// The tangle: a DAG of transactions where each new transaction approves two
// former ones. Maintains the approval graph, the tip set, per-transaction
// weights (number of direct + indirect validations, paper Section II-B) and
// confirmation state.
//
// Weight/depth bookkeeping is *incremental*: every `add` propagates +1
// cumulative weight through the new transaction's ancestor cone and relaxes
// the longest-path depth upward, so `cumulative_weight`, `is_confirmed` and
// `depth` are O(1) lookups instead of O(n) sweeps per call. The brute-force
// sweeps are kept (suffixed `_brute_force`) as the reference implementation
// for property tests and for the before/after bench.
//
// `add` additionally maintains secondary indexes (by sender, by type, by
// arrival time — see DESIGN.md section 9 for the atomicity invariants) plus
// the anti-entropy set summaries from reconcile.h, so data queries, sync
// diffing and snapshot account capture are O(results + log n) instead of
// full-DAG scans. Brute-force counterparts are kept here too.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "tangle/reconcile.h"
#include "tangle/transaction.h"

namespace biot::tangle {

/// Validation/bookkeeping record for one transaction in the graph.
struct TxRecord {
  Transaction tx;
  TimePoint arrival = 0.0;             // local time the tangle accepted it
  std::vector<TxId> approvers;         // transactions that directly approve it
  // Incrementally maintained consensus bookkeeping (see Tangle::add):
  std::size_t weight = 1;              // 1 + distinct indirect approvers
  std::size_t depth = 0;               // longest approval path from any tip
  // Resolved parent records (nullptr for genesis' zero-id sentinel parents).
  // unordered_map element addresses are stable across insert and move, and
  // Tangle is move-only, so these never dangle. They let the add-path cone
  // walk follow pointers instead of re-hashing 32-byte ids.
  TxRecord* parent1_rec = nullptr;
  TxRecord* parent2_rec = nullptr;
  std::uint64_t visit_mark = 0;        // add-path BFS stamp (internal)
  // Position in arrival_order(). Sorting any id subset by this ships
  // parents before children (a parent always attaches first).
  std::size_t order_pos = 0;
};

/// One secondary-index entry. Index vectors are sorted by arrival (ties keep
/// insertion order), so time-bounded queries binary-search their start.
struct IndexEntry {
  TxId id;
  TimePoint arrival = 0.0;
  TxType type = TxType::kData;
};

class Tangle {
 public:
  /// Builds the deterministic genesis transaction (self-parented, unsigned —
  /// its validity is an axiom, like the hard-coded genesis config in Fig 6).
  static Transaction make_genesis(TimePoint timestamp = 0.0);

  explicit Tangle(const Transaction& genesis);

  // Move-only: TxRecord caches pointers into the record map, which stay
  // valid across moves (node ownership transfers) but not across copies.
  Tangle(const Tangle&) = delete;
  Tangle& operator=(const Tangle&) = delete;
  Tangle(Tangle&&) = default;
  Tangle& operator=(Tangle&&) = default;

  /// Validates structure (duplicate, parents known, signature, PoW) and
  /// attaches the transaction. Does NOT check credit-difficulty policy or
  /// ledger conflicts — those belong to the gateway (node layer).
  [[nodiscard]] Status add(const Transaction& tx, TimePoint arrival);

  /// Single-verify attach: like add(), but the signature check is replaced by
  /// the token (kVerifyFailed if it does not cover tx.id()). Lets the
  /// admission pipeline verify each transaction exactly once.
  [[nodiscard]] Status add(const Transaction& tx, TimePoint arrival,
                           const VerifiedToken& token);

  /// Scoped single-writer attach batch. add() performs the full structural
  /// attach immediately — records, approvers, tips, arrival order, weight
  /// and depth propagation all stay live, so later batch members can parent
  /// on earlier ones and duplicate/lazy checks see the true DAG — but the
  /// secondary-index inserts and the XOR digest / SetSketch toggles are
  /// deferred to one commit() epilogue, amortizing their maintenance across
  /// the batch. Mid-batch, readers of the DEFERRED state (data_since,
  /// arrival_index, id_digest/id_sketch) see the pre-batch snapshot; the
  /// admission loop is the only writer and reads none of them, and commit()
  /// runs before control returns to anything that does.
  ///
  /// Failed add() calls leave no trace, exactly like Tangle::add. The
  /// destructor commits whatever attached, so a batch cannot be dropped
  /// half-indexed.
  class AttachBatch {
   public:
    explicit AttachBatch(Tangle& tangle) : tangle_(tangle) {}
    ~AttachBatch() { commit(); }

    AttachBatch(const AttachBatch&) = delete;
    AttachBatch& operator=(const AttachBatch&) = delete;

    /// Token-gated attach, same contract as Tangle::add(tx, arrival, token).
    [[nodiscard]] Status add(const Transaction& tx, TimePoint arrival,
                             const VerifiedToken& token);

    /// Applies the deferred index/digest/sketch updates. Idempotent; called
    /// by the destructor.
    void commit();

    /// Attaches not yet indexed (zero after commit()).
    std::size_t pending() const { return pending_.size(); }

   private:
    friend class Tangle;
    Tangle& tangle_;
    std::vector<const TxRecord*> pending_;
  };

  /// Convenience wrapper: attaches `items` in order inside one AttachBatch
  /// and returns one status per item. Equivalent to calling add() per item
  /// except the deferred maintenance is paid once.
  struct BatchAttachItem {
    const Transaction* tx = nullptr;
    TimePoint arrival = 0.0;
    const VerifiedToken* token = nullptr;
  };
  [[nodiscard]] std::vector<Status> attach_batch(
      const std::vector<BatchAttachItem>& items);

  /// The cheap structural subset of add(): genesis/duplicate/unknown-parent.
  /// kOk means add() would proceed to signature+PoW validation. Lets callers
  /// order checks cheapest-first (e.g. admission runs this BEFORE paying the
  /// Ed25519 verification, so duplicate or orphan gossip costs no verify).
  [[nodiscard]] Status attach_precheck(const Transaction& tx) const;

  bool contains(const TxId& id) const { return records_.contains(id); }
  /// Record access; nullptr when unknown.
  const TxRecord* find(const TxId& id) const;

  /// Transactions with no approvers yet.
  const std::set<TxId>& tips() const { return tips_; }
  bool is_tip(const TxId& id) const { return tips_.contains(id); }

  std::size_t size() const { return records_.size(); }
  const TxId& genesis_id() const { return genesis_id_; }
  /// Ids in arrival order (stable iteration for benches/metrics).
  const std::vector<TxId>& arrival_order() const { return order_; }

  std::size_t approver_count(const TxId& id) const;

  /// Exact cumulative weight: 1 + number of distinct transactions that
  /// directly or indirectly approve `id`. O(1) — maintained by `add`.
  std::size_t cumulative_weight(const TxId& id) const;

  /// Reference implementation of `cumulative_weight`: full BFS over the
  /// approver graph. Kept for property tests and benches only.
  std::size_t cumulative_weight_brute_force(const TxId& id) const;

  /// A transaction is confirmed once its cumulative weight reaches the
  /// threshold (the paper's analogue of bitcoin's six-block security).
  bool is_confirmed(const TxId& id, std::size_t weight_threshold) const;

  /// Depth of `id`: longest approval path from any tip down to it. Genesis
  /// has the largest depth. Used by lazy-tip detection heuristics.
  /// O(1) — maintained by `add`.
  std::size_t depth(const TxId& id) const;

  /// Reference implementation of `depth`: full reverse-topological sweep.
  /// Kept for property tests and benches only.
  std::size_t depth_brute_force(const TxId& id) const;

  // ---- Secondary indexes (maintained by `add`, O(1) amortized each) ------

  /// All transactions from `sender`, arrival order. Empty for unknown senders.
  const std::vector<IndexEntry>& sender_index(const AccountKey& sender) const;
  /// All transactions of `type`, arrival order.
  const std::vector<IndexEntry>& type_index(TxType type) const;
  /// Every transaction, sorted by arrival time.
  const std::vector<IndexEntry>& arrival_index() const { return by_arrival_; }
  /// Distinct senders in first-seen order (includes the genesis sender) —
  /// what snapshot capture enumerates instead of sweeping the DAG.
  const std::vector<AccountKey>& senders_first_seen() const {
    return senders_first_seen_;
  }

  /// Index of the first entry in `index` with arrival >= since (binary
  /// search — entries are arrival-sorted).
  static std::size_t first_at_or_after(const std::vector<IndexEntry>& index,
                                       TimePoint since);

  /// Data transactions with arrival >= `since`, optionally restricted to one
  /// sender (nullptr = any), arrival order, at most `max_results`. Served
  /// from the secondary indexes: O(log n + results), plus a skip per
  /// non-data transaction the sender interleaved in the range.
  std::vector<const TxRecord*> data_since(const AccountKey* sender,
                                          TimePoint since,
                                          std::size_t max_results) const;
  /// Reference implementation of `data_since`: full arrival-order scan.
  std::vector<const TxRecord*> data_since_brute_force(
      const AccountKey* sender, TimePoint since,
      std::size_t max_results) const;

  // ---- Anti-entropy summaries (maintained by `add`, O(1) each) -----------

  /// Order-independent XOR fold of every id: equal digest + equal size is
  /// the O(1) "replicas already converged" sync fast path.
  const IdDigest& id_digest() const { return id_digest_; }
  /// Constant-size invertible sketch of the id set; subtracting a peer's
  /// sketch recovers the exact inventory difference in O(diff).
  const SetSketch& id_sketch() const { return id_sketch_; }

 private:
  // Lets the auditor's negative tests corrupt internal state (weights,
  // index entries, digests) on a rebuilt tangle to prove tangle/audit.h
  // detects the damage. Defined only in tests — never in product code.
  friend struct TangleTestAccess;

  Status add_impl(const Transaction& tx, TimePoint arrival, bool pre_verified,
                  AttachBatch* batch = nullptr);
  void index_tx(const Transaction& tx, const TxId& id, TimePoint arrival);
  static void insert_sorted(std::vector<IndexEntry>& index, IndexEntry entry);

  std::unordered_map<TxId, TxRecord, FixedBytesHash<32>> records_;
  std::set<TxId> tips_;
  std::vector<TxId> order_;
  TxId genesis_id_;
  std::uint64_t visit_epoch_ = 0;       // stamps one add-path BFS
  std::vector<TxRecord*> cone_scratch_;  // reused BFS frontier (no allocs)

  std::unordered_map<AccountKey, std::vector<IndexEntry>, FixedBytesHash<32>>
      by_sender_;
  std::vector<AccountKey> senders_first_seen_;
  std::unordered_map<std::uint8_t, std::vector<IndexEntry>> by_type_;
  std::vector<IndexEntry> by_arrival_;
  IdDigest id_digest_;
  SetSketch id_sketch_;
};

}  // namespace biot::tangle
