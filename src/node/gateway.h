// Gateway (full node). Maintains a tangle replica, enforces admission
// control against the manager-published authorization list, enforces the
// difficulty policy, detects malicious behaviours (feeding the credit
// model), applies the ledger, answers light-node RPCs and gossips accepted
// transactions to peer gateways (paper Section IV-A "Gateways").
//
// All five transaction ingress paths — service submission, offloaded
// attach, gossip, anti-entropy sync and cold-start replay — run the SAME
// staged AdmissionPipeline (node/admission.h); the gateway itself only owns
// transport concerns: RPC framing, rate limiting, gossip relay, orphan
// buffering and the sync protocol.
#pragma once

#include <memory>
#include <vector>

#include "auth/authorization.h"
#include "consensus/credit.h"
#include "consensus/detectors.h"
#include "consensus/policy.h"
#include "consensus/pow.h"
#include "node/admission.h"
#include "node/offline.h"
#include "node/rpc.h"
#include "sim/network.h"
#include "tangle/ledger.h"
#include "tangle/milestones.h"
#include "tangle/tangle.h"
#include "tangle/tip_selection.h"

namespace biot::node {

/// Hot-path latency/size distributions owned by the gateway (the counter
/// side lives in GatewayStats). The time domain is part of each name:
/// _wall_s histograms measure real CPU cost, _sim_s ones measure protocol
/// latency on the simulated clock.
struct GatewayMetrics {
  AdmissionMetrics admission;      // per-stage wall latencies
  BatchAdmissionMetrics admission_batch;  // admit_many phase split + sizes
  obs::Histogram pow_grind_wall_s; // offloaded-PoW grind (handle_attach)
  obs::Histogram sync_rtt_sim_s;   // summary sent -> missing txs received
  obs::Histogram tip_walk_steps{obs::HistogramSpec::size()};

  /// Registers everything under `scope` (e.g. "gateway.g0").
  void attach_to(const obs::Scope& scope) const;
};

struct GatewayConfig {
  /// Difficulty policy: kCredit (the paper's mechanism) or kFixed baseline.
  enum class Policy { kCredit, kFixed } policy = Policy::kCredit;
  int fixed_difficulty = 11;  // used when policy == kFixed
  consensus::CreditParams credit;
  consensus::LazyTipPolicy lazy;
  /// Cumulative-weight threshold for confirmation queries.
  std::size_t confirmation_weight = 5;
  /// Tip selection handed to light nodes: uniform random over tips, or the
  /// IOTA-style alpha-weighted MCMC walk (lazy-tip resistant; it reads the
  /// tangle's exact O(1) cumulative weights, so a selection costs O(walk)
  /// even right after an attach — see bench/tip_selection_bench).
  enum class TipStrategy { kUniform, kWeightedWalk } tips = TipStrategy::kUniform;
  double walk_alpha = 0.5;  // used when tips == kWeightedWalk
  /// Worker threads for offloaded-PoW attach requests (sharded nonce ranges,
  /// first-found-wins). 1 = serial mining with a deterministic nonce; >1
  /// trades nonce determinism for wall-clock speed (attempt accounting stays
  /// exact either way); 0 = hardware concurrency.
  unsigned pow_threads = 1;
  /// Worker lanes for the admission read phase (structural precheck +
  /// batched Ed25519 verification fanned out by admit_many). 1 = the
  /// deterministic InlineExecutor — every batch runs the read phase at the
  /// call site, byte-identical to the serial reference, the sim/test
  /// default; >1 = a ThreadPoolExecutor with that many workers (the commit
  /// phase stays serialized either way, so verdicts and state are identical
  /// at any width); 0 = hardware concurrency.
  unsigned admission_threads = 1;
  /// Upper bound on one admit_many slice. Bursts larger than this are
  /// split, bounding token/scratch memory per batch and keeping the batch
  /// latency histograms meaningful; orphan adoption runs between slices.
  std::size_t admission_max_batch = 256;
  /// Anti-entropy: every `sync_interval` seconds each gateway sends its
  /// constant-size inventory summary (count + XOR digest + invertible
  /// sketch, tangle/reconcile.h) to one peer (round-robin); the peer decodes
  /// the exact difference and ships whatever the sender is missing, falling
  /// back to a full-inventory exchange when the difference exceeds the
  /// sketch capacity. Heals partitions completely where live gossip alone
  /// cannot backfill missed history. 0 disables.
  Duration sync_interval = 0.0;
  /// Per-sender request rate limit (token bucket, requests/second) applied
  /// to the service edge before any other processing — even replying
  /// "unauthorized" costs cycles, so a DDoS flood is shed here. 0 disables.
  double rate_limit_per_sender = 0.0;
  double rate_limit_burst = 10.0;
  /// Gossip can deliver a child before its parents (per-message latency is
  /// random); such orphans are buffered and retried when the parent lands
  /// instead of being dropped. Bounds memory under attack.
  std::size_t max_orphans = 256;
  /// Sensor-data quality inspector (future-work extension, Section VIII).
  /// Configured here (not only via set_quality_inspector) so that a
  /// cold-start replay judges historical payloads exactly as the live
  /// gateway did — required for credit re-derivability. A zero score is
  /// recorded as Behaviour::kPoorQuality against the sender; the
  /// transaction still attaches (bad data is not a protocol violation),
  /// but the sender's PoW gets harder.
  QualityInspector quality_inspector;
};

class Gateway {
 public:
  Gateway(sim::NodeId id, const crypto::Identity& identity,
          const crypto::Ed25519PublicKey& manager_key,
          const tangle::Transaction& genesis, sim::Network& network,
          GatewayConfig config = {});

  /// Cold start from a persisted replica (storage::load_tangle). All derived
  /// state — ledger slots and balances, the authorization list, milestone
  /// confirmations, stats counters and every node's credit history — is
  /// REBUILT by running the restored history through the same
  /// AdmissionPipeline as live traffic (Ingress::kReplay), in arrival
  /// order. This is the paper's tamper-proof credit property made
  /// operational: "the credit value is calculated based on transaction
  /// weight and abnormal behaviours, which can be reflected from blockchain
  /// records" — a restarted gateway derives it from chain.
  /// The coordinator key (when used) must be passed here so historical
  /// milestones are honoured during the replay.
  Gateway(sim::NodeId id, const crypto::Identity& identity,
          const crypto::Ed25519PublicKey& manager_key,
          tangle::Tangle restored, sim::Network& network,
          GatewayConfig config = {},
          const std::optional<crypto::Ed25519PublicKey>& coordinator = {});

  /// Registers the gateway's message handler with the network.
  void attach();

  /// Crash: detaches from the network and drops all in-flight state
  /// (orphan buffer, rate-limiter buckets, pending sync ticks). The tangle
  /// replica itself is left in place only so the driver can serialize it —
  /// a real crash persists exactly the admitted history, nothing else.
  /// Idempotent; restart() or attach() brings the gateway back.
  void stop();

  /// Cold restart from a persisted replica, in place: every derived-state
  /// member is reset and the restored history is re-run through a fresh
  /// AdmissionPipeline (Ingress::kReplay), exactly like the restore
  /// constructor — then the gateway re-attaches and resumes sync ticks.
  /// In-place (rather than destroying the object) because Manager and
  /// Coordinator hold references to this gateway across the outage.
  void restart(const tangle::Tangle& restored);

  /// False between stop() and the next restart()/attach().
  bool running() const { return running_; }

  sim::NodeId node_id() const { return id_; }
  void add_peer(sim::NodeId peer) { peers_.push_back(peer); }

  const tangle::Tangle& tangle() const { return tangle_; }
  const tangle::Ledger& ledger() const { return ledger_; }
  tangle::Ledger& ledger() { return ledger_; }
  const auth::AuthRegistry& auth_registry() const { return auth_; }
  /// Registers a co-manager (the paper permits several per factory).
  void add_manager(const crypto::Ed25519PublicKey& key) { auth_.add_manager(key); }

  /// Registers the Coordinator key: only this identity may attach milestone
  /// transactions. Milestone-based confirmation is disabled until set.
  void set_coordinator(const crypto::Ed25519PublicKey& key) {
    coordinator_key_ = key;
  }
  const tangle::MilestoneTracker& milestones() const { return milestones_; }

  /// Confirmation status under both rules (weight threshold + milestones).
  ConfirmationInfo confirmation_status(const tangle::TxId& id) const;
  const consensus::CreditRegistry& credit_registry() const { return credit_; }
  /// Settled offline exchanges, (issuer, outbox_seq) -> settling tx.
  /// Derived from the tangle by OfflineSettlementObserver, so it is
  /// replica-convergent and rebuilt by restart() like all derived state.
  const OfflineRegistry& offline_registry() const { return offline_registry_; }
  const GatewayStats& stats() const { return stats_; }
  const GatewayMetrics& metrics() const { return metrics_; }

  /// Exports this gateway's stats and metrics under `scope` (the
  /// SmartFactory binds "gateway.g<i>"). Instruments are attached by
  /// address, so one bind survives restart()'s in-place stats reset.
  void bind_metrics(const obs::Scope& scope) const {
    stats_.attach_to(scope);
    metrics_.attach_to(scope);
  }

  /// Weight oracle over this gateway's tangle replica: weight(tx) = 1 +
  /// direct approvals received so far.
  consensus::WeightOracle weight_oracle() const;

  /// Difficulty currently required of `sender` under the active policy.
  int required_difficulty(const tangle::AccountKey& sender) const;

  /// Local (non-RPC) submission path used by in-process callers and tests.
  /// Performs the exact same admission pipeline as a kSubmitTx message.
  [[nodiscard]] Status submit(const tangle::Transaction& tx);

  /// Batch ingress: admits `txs` through the two-phase pipeline
  /// (AdmissionPipeline::admit_many on admission_threads lanes) in slices
  /// of at most admission_max_batch, preserving input order; returns one
  /// status per transaction. Sync backfill bursts route through this, and
  /// in-process callers (benches, bulk feeds) can use it directly. Orphans
  /// unblocked by a newly attached transaction are adopted after its slice
  /// commits.
  [[nodiscard]] std::vector<Status> admit_many(
      const std::vector<tangle::Transaction>& txs, Ingress ingress);

  /// Installs (or replaces) the data-quality inspector post-construction.
  /// Prefer GatewayConfig::quality_inspector so cold-start replay sees it.
  void set_quality_inspector(QualityInspector inspector) {
    quality_inspector_ = std::move(inspector);
  }

  /// Registers an additional derived-state observer on the admission
  /// pipeline (metrics, tracing, extra detectors). Runs after the built-in
  /// observers, in registration order.
  void add_attach_observer(std::unique_ptr<AttachObserver> observer) {
    pipeline_->add_observer(std::move(observer));
  }

  /// Tip pair this gateway would hand out right now.
  tangle::TipPair select_tips();

  /// Live token buckets held by the rate limiter (bounded: idle buckets are
  /// evicted once they would have refilled completely).
  std::size_t rate_bucket_count() const { return buckets_.size(); }
  /// Out-of-order transactions currently buffered awaiting a parent.
  std::size_t orphan_count() const { return orphan_count_; }

  /// Operational local snapshot (the "storage limitations" future-work item,
  /// live): archives every transaction older than `cutoff` through
  /// `archive_tx` (arrival order), then swaps the hot tangle for one rooted
  /// at a snapshot genesis committing to the current ledger/authorization
  /// state. Ledger and credit state carry over untouched; devices re-anchor
  /// on the snapshot genesis at their next tips request. In a multi-gateway
  /// deployment all replicas must prune at an agreed point (e.g. a
  /// milestone) or gossip for in-flight history will dangle. Returns the
  /// number of archived transactions.
  std::size_t snapshot_and_prune(
      TimePoint cutoff,
      const std::function<void(const tangle::Transaction&, TimePoint)>&
          archive_tx);

 private:
  void build_pipeline();
  void on_message(sim::NodeId from, const Bytes& wire);
  void handle_get_tips(sim::NodeId from, const RpcMessage& msg);
  void handle_submit(sim::NodeId from, const RpcMessage& msg);
  void handle_attach(sim::NodeId from, const RpcMessage& msg);
  void handle_confirm_query(sim::NodeId from, const RpcMessage& msg);
  void handle_data_query(sim::NodeId from, const RpcMessage& msg);
  void handle_offline_drain(sim::NodeId from, const RpcMessage& msg);
  void handle_gossip(const RpcMessage& msg);
  void handle_sync_summary(sim::NodeId from, const RpcMessage& msg);
  void handle_sync_inventory_request(sim::NodeId from, const RpcMessage& msg);
  void handle_sync_inventory(sim::NodeId from, const RpcMessage& msg);
  void handle_sync_missing(const RpcMessage& msg);
  void sync_tick();
  /// Schedules the next sync tick, tagged with the current lifecycle epoch
  /// so ticks scheduled before a stop()/restart() die silently instead of
  /// running against the reborn gateway.
  void schedule_sync();
  /// Re-admits `restored`'s history through the pipeline (Ingress::kReplay);
  /// shared by the restore constructor and restart().
  void replay(const tangle::Tangle& restored);
  /// Ships `ids` (which this replica holds and `to` lacks) in arrival order.
  void ship_missing(sim::NodeId to, std::uint64_t request_id,
                    std::vector<tangle::TxId> ids);
  /// Token-bucket check for a service request; false = shed.
  bool rate_limit_allows(const crypto::Ed25519PublicKey& sender);
  /// Amortized sweep dropping buckets idle past the full-refill horizon.
  void evict_idle_buckets(TimePoint now);
  /// Buffers an out-of-order gossiped transaction awaiting `missing_parent`.
  void buffer_orphan(const tangle::TxId& missing_parent,
                     tangle::Transaction tx);
  /// Retries orphans that were waiting for `arrived`.
  void adopt_orphans(const tangle::TxId& arrived);
  /// Runs the staged admission pipeline, then retries any orphans the new
  /// transaction unblocks. `pre_verified` forwards a caller-held proof that
  /// the signature was already checked (batch sync, replay).
  [[nodiscard]] Status admit(const tangle::Transaction& tx, Ingress ingress,
                             const tangle::VerifiedToken* pre_verified =
                                 nullptr);
  /// Shared batch driver behind admit_many() and replay(): slices `items`
  /// by admission_max_batch, runs each slice through the pipeline on the
  /// admission executor, then adopts orphans for every attached id.
  std::vector<Status> admit_batch_items(
      const std::vector<AdmissionBatchItem>& items, Ingress ingress);
  void reply(sim::NodeId to, MsgType type, std::uint64_t request_id,
             const Bytes& body);
  TimePoint now() const { return network_.scheduler().now(); }

  sim::NodeId id_;
  const crypto::Identity& identity_;
  sim::Network& network_;
  GatewayConfig config_;
  crypto::Ed25519PublicKey manager_key_;  // kept for restart() auth rebuild
  bool running_ = false;
  // Bumped on every stop(); epoch-tagged sync lambdas from a previous life
  // compare against it and expire.
  std::uint64_t lifecycle_epoch_ = 0;

  tangle::Tangle tangle_;
  tangle::Ledger ledger_;
  auth::AuthRegistry auth_;
  consensus::CreditRegistry credit_;
  std::unique_ptr<consensus::DifficultyPolicy> policy_;
  std::unique_ptr<tangle::TipSelector> tip_selector_;
  consensus::Miner miner_;  // serves offloaded-PoW attach requests
  // Threaded variant, engaged when config.pow_threads != 1.
  std::unique_ptr<consensus::ParallelMiner> parallel_miner_;
  // Read-phase lanes for admit_many: InlineExecutor (admission_threads ==
  // 1, deterministic) or ThreadPoolExecutor (> 1, or 0 = hardware width).
  std::unique_ptr<Executor> admission_executor_;
  Rng rng_;

  struct TokenBucket {
    double tokens = 0.0;
    TimePoint last_refill = 0.0;
  };
  std::unordered_map<crypto::Ed25519PublicKey, TokenBucket, FixedBytesHash<32>>
      buckets_;
  TimePoint last_bucket_sweep_ = 0.0;

  std::vector<sim::NodeId> peers_;
  std::size_t next_sync_peer_ = 0;
  // Sim-time send stamps of in-flight sync summaries, keyed by request id;
  // matched (and erased) by the kSyncMissing reply for the RTT histogram.
  // Converged peers never reply, so stale entries are pruned every tick.
  std::unordered_map<std::uint64_t, TimePoint> sync_sent_at_;
  std::uint64_t next_sync_request_id_ = 1;
  // missing parent id -> transactions waiting on it
  std::unordered_map<tangle::TxId, std::vector<tangle::Transaction>,
                     FixedBytesHash<32>>
      orphans_;
  std::size_t orphan_count_ = 0;
  QualityInspector quality_inspector_;
  std::optional<crypto::Ed25519PublicKey> coordinator_key_;
  tangle::MilestoneTracker milestones_;
  OfflineRegistry offline_registry_;
  GatewayStats stats_;
  GatewayMetrics metrics_;
  std::unique_ptr<AdmissionPipeline> pipeline_;
};

}  // namespace biot::node
