#include "node/gateway.h"

#include "common/codec.h"
#include "common/log.h"
#include "crypto/ed25519.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "storage/snapshot.h"

namespace biot::node {

namespace {
Logger logger("gateway");

// Anti-entropy summary wire format version (see tangle/reconcile.h). v2 is
// the constant-size digest + sketch summary; the full-inventory exchange
// survives as the kSyncInventory fallback for oversized differences.
constexpr std::uint8_t kSyncSummaryV2 = 2;
}  // namespace

void GatewayMetrics::attach_to(const obs::Scope& scope) const {
  admission.attach_to(scope.scope("admission"));
  admission_batch.attach_to(scope.scope("admission").scope("batch"));
  scope.attach("pow.grind_wall_s", &pow_grind_wall_s);
  scope.attach("sync.rtt_sim_s", &sync_rtt_sim_s);
  scope.attach("tips.walk_steps", &tip_walk_steps);
}

Gateway::Gateway(sim::NodeId id, const crypto::Identity& identity,
                 const crypto::Ed25519PublicKey& manager_key,
                 const tangle::Transaction& genesis, sim::Network& network,
                 GatewayConfig config)
    : id_(id),
      identity_(identity),
      network_(network),
      config_(std::move(config)),
      manager_key_(manager_key),
      tangle_(genesis),
      auth_(manager_key),
      credit_(config_.credit),
      miner_((std::uint64_t{id} << 48) | 0xa77ull),
      rng_(0x6a77ull ^ id),
      quality_inspector_(config_.quality_inspector) {
  if (config_.policy == GatewayConfig::Policy::kCredit)
    policy_ = std::make_unique<consensus::CreditDifficultyPolicy>(credit_);
  else
    policy_ = std::make_unique<consensus::FixedDifficultyPolicy>(
        config_.fixed_difficulty);

  if (config_.tips == GatewayConfig::TipStrategy::kWeightedWalk)
    tip_selector_ =
        std::make_unique<tangle::WeightedWalkTipSelector>(config_.walk_alpha);
  else
    tip_selector_ = std::make_unique<tangle::UniformRandomTipSelector>();

  if (config_.pow_threads != 1)
    parallel_miner_ = std::make_unique<consensus::ParallelMiner>(
        config_.pow_threads, (std::uint64_t{id} << 48) | 0xa77ull);

  if (config_.admission_threads == 1)
    admission_executor_ = std::make_unique<InlineExecutor>();
  else
    admission_executor_ =
        std::make_unique<ThreadPoolExecutor>(config_.admission_threads);

  build_pipeline();
}

void Gateway::build_pipeline() {
  pipeline_ = std::make_unique<AdmissionPipeline>(
      tangle_, auth_, ledger_, coordinator_key_, config_.lazy,
      [this](const tangle::AccountKey& sender) {
        return required_difficulty(sender);
      });
  // Registration order is the annotation contract (DESIGN.md section 9):
  // ledger resolves the slot, quality scores the payload, credit prices
  // both plus laziness, then confirmations/authorization, stats last.
  pipeline_->add_observer(std::make_unique<LedgerObserver>(ledger_));
  pipeline_->add_observer(
      std::make_unique<QualityObserver>(quality_inspector_));
  pipeline_->add_observer(std::make_unique<CreditObserver>(credit_));
  pipeline_->add_observer(std::make_unique<MilestoneObserver>(
      milestones_, tangle_, coordinator_key_));
  pipeline_->add_observer(std::make_unique<AuthObserver>(auth_));
  pipeline_->add_observer(
      std::make_unique<OfflineSettlementObserver>(offline_registry_));
  pipeline_->add_observer(std::make_unique<StatsObserver>(stats_));
  pipeline_->set_metrics(&metrics_.admission);
  pipeline_->set_batch_metrics(&metrics_.admission_batch);
}

Gateway::Gateway(sim::NodeId id, const crypto::Identity& identity,
                 const crypto::Ed25519PublicKey& manager_key,
                 tangle::Tangle restored, sim::Network& network,
                 GatewayConfig config,
                 const std::optional<crypto::Ed25519PublicKey>& coordinator)
    : Gateway(id, identity, manager_key,
              restored.find(restored.genesis_id())->tx, network,
              std::move(config)) {
  coordinator_key_ = coordinator;

  // Cold start = the SAME pipeline over the restored arrival order
  // (Ingress::kReplay) — every derived-state observer, stats included,
  // re-runs exactly as it did live, so live/restore divergence is
  // impossible by construction. Structural validity was already re-checked
  // when the tangle loaded (deserialize_tangle batch-verifies every
  // signature and runs the structural and PoW checks of Tangle::add).
  replay(restored);
}

void Gateway::replay(const tangle::Tangle& restored) {
  // Every member of `restored` already had its signature verified
  // (deserialize_tangle re-checks each signature as it loads), so replay
  // admits with an assume_valid token per transaction instead of verifying
  // a second time — batch ingress with zero Ed25519 work. The batch runs
  // the same staged pipeline per item, in the recorded arrival order, so
  // every derived-state observer re-runs exactly as it did live.
  std::vector<tangle::VerifiedToken> tokens;
  std::vector<AdmissionBatchItem> items;
  tokens.reserve(restored.size());
  items.reserve(restored.size());
  for (const auto& id_in_order : restored.arrival_order()) {
    const auto* rec = restored.find(id_in_order);
    if (rec->tx.type == tangle::TxType::kGenesis) continue;
    tokens.push_back(tangle::VerifiedToken::assume_valid(rec->tx));
    items.push_back(AdmissionBatchItem{&rec->tx, rec->arrival, &tokens.back()});
  }
  (void)admit_batch_items(items, Ingress::kReplay);
}

void Gateway::stop() {
  if (!running_) return;
  running_ = false;
  ++lifecycle_epoch_;  // expire pending sync ticks from this life
  network_.detach(id_);
  // In-flight state dies with the process: buffered orphans, rate-limiter
  // buckets. Only what the pipeline admitted (the tangle) survives a crash,
  // via whatever snapshot the driver persisted.
  orphans_.clear();
  orphan_count_ = 0;
  buckets_.clear();
  last_bucket_sweep_ = 0.0;
  sync_sent_at_.clear();
}

void Gateway::restart(const tangle::Tangle& restored) {
  stop();  // no-op if already stopped; guarantees a clean slate either way
  // Reset every derived-state member in place (Manager/Coordinator hold
  // references to this object, so no destroy-and-reconstruct), then rebuild
  // the pipeline over the fresh members and re-derive everything from the
  // restored history — the same tamper-proof-credit replay as the restore
  // constructor.
  tangle_ = tangle::Tangle(restored.find(restored.genesis_id())->tx);
  ledger_ = tangle::Ledger{};
  auth_ = auth::AuthRegistry(manager_key_);
  credit_ = consensus::CreditRegistry(config_.credit);
  milestones_ = tangle::MilestoneTracker{};
  offline_registry_ = OfflineRegistry{};
  stats_ = GatewayStats{};
  build_pipeline();
  replay(restored);
  attach();
}

void Gateway::attach() {
  running_ = true;
  network_.attach(id_, [this](sim::NodeId from, const Bytes& wire) {
    on_message(from, wire);
  });
  schedule_sync();
}

void Gateway::schedule_sync() {
  if (config_.sync_interval <= 0.0) return;
  network_.scheduler().after(
      config_.sync_interval, [this, epoch = lifecycle_epoch_] {
        // A tick scheduled before a stop() must not fire against the reborn
        // gateway (it would double the tick cadence after every restart).
        if (!running_ || epoch != lifecycle_epoch_) return;
        sync_tick();
      });
}

void Gateway::sync_tick() {
  if (!peers_.empty()) {
    // Round-robin one peer per tick; ship a constant-size summary (count +
    // XOR digest + invertible sketch) instead of the full id inventory —
    // the peer decodes the exact difference locally (tangle/reconcile.h).
    const auto peer = peers_[next_sync_peer_++ % peers_.size()];
    Writer w;
    w.u8(kSyncSummaryV2);
    w.u64(tangle_.size());
    w.raw(tangle_.id_digest().value.view());
    w.blob(tangle_.id_sketch().encode());

    RpcMessage msg;
    msg.type = MsgType::kSyncSummary;
    // Fresh id per tick so the eventual kSyncMissing reply (which echoes it
    // through both the sketch and inventory-fallback paths) can be matched
    // to this send for the round-trip-time histogram.
    msg.request_id = next_sync_request_id_++;
    msg.sender_key = identity_.public_identity().sign_key;
    msg.body = std::move(w).take();
    sync_sent_at_[msg.request_id] = now();
    network_.send(id_, peer, msg.encode());
    ++stats_.syncs_sent;

    // Converged peers answer a summary with silence, so stamps without a
    // reply accumulate; drop anything older than a few intervals (a real
    // straggler reply that late would be a stale RTT sample anyway).
    const TimePoint cutoff = now() - 8.0 * config_.sync_interval;
    std::erase_if(sync_sent_at_,
                  [cutoff](const auto& kv) { return kv.second < cutoff; });
  }
  schedule_sync();
}

void Gateway::handle_sync_summary(sim::NodeId from, const RpcMessage& msg) {
  Reader r(msg.body);
  const auto version = r.u8();
  if (!version || version.value() != kSyncSummaryV2) return;
  const auto count = r.u64();
  const auto digest_raw = r.raw(32);
  const auto sketch_wire = r.blob();
  if (!count || !digest_raw || !sketch_wire) return;

  // O(1) fast path: identical digest + identical size means identical id
  // sets (w.h.p.) — converged replicas exchange 23 KB and do no work.
  const tangle::IdDigest peer_digest{
      tangle::TxId::from_view(digest_raw.value())};
  if (peer_digest == tangle_.id_digest() && count.value() == tangle_.size())
    return;

  auto peer_sketch = tangle::SetSketch::decode(sketch_wire.value());
  if (!peer_sketch) return;
  auto diff = tangle_.id_sketch().subtract_and_decode(peer_sketch.value());
  if (!diff.decoded) {
    // Difference exceeded the sketch capacity (fresh peer, long partition):
    // fall back to the full-inventory exchange.
    ++stats_.sync_fallbacks;
    reply(from, MsgType::kSyncInventoryRequest, msg.request_id, {});
    return;
  }
  // diff.only_local = ids we hold that the peer lacks; diff.only_remote is
  // the converse and will be backfilled when OUR next tick reaches them.
  ship_missing(from, msg.request_id, std::move(diff.only_local));
}

void Gateway::handle_sync_inventory_request(sim::NodeId from,
                                            const RpcMessage& msg) {
  Writer w;
  const auto& order = tangle_.arrival_order();
  w.u32(static_cast<std::uint32_t>(order.size()));
  for (const auto& id : order) w.raw(id.view());
  reply(from, MsgType::kSyncInventory, msg.request_id, std::move(w).take());
}

void Gateway::handle_sync_inventory(sim::NodeId from, const RpcMessage& msg) {
  // Reference/fallback diff path: explicit inventory, full scan. The sketch
  // path must produce exactly this result whenever it decodes (property-
  // tested in tests/test_indexes.cpp).
  Reader r(msg.body);
  const auto count = r.u32();
  if (!count) return;
  std::unordered_set<tangle::TxId, FixedBytesHash<32>> peer_has;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    const auto id = r.raw(32);
    if (!id) return;
    peer_has.insert(tangle::TxId::from_view(id.value()));
  }

  std::vector<tangle::TxId> missing;
  for (const auto& id : tangle_.arrival_order()) {
    if (!peer_has.contains(id)) missing.push_back(id);
  }
  ship_missing(from, msg.request_id, std::move(missing));
}

void Gateway::ship_missing(sim::NodeId to, std::uint64_t request_id,
                           std::vector<tangle::TxId> ids) {
  // Ship in arrival order so parents precede children and the peer can
  // attach in one pass (order_pos is the arrival_order position).
  std::vector<const tangle::TxRecord*> recs;
  recs.reserve(ids.size());
  for (const auto& id : ids) {
    const auto* rec = tangle_.find(id);  // sketch decode is probabilistic —
    if (rec == nullptr) continue;        // drop anything we don't truly hold
    if (rec->tx.type == tangle::TxType::kGenesis) continue;
    recs.push_back(rec);
  }
  if (recs.empty()) return;
  std::sort(recs.begin(), recs.end(),
            [](const tangle::TxRecord* a, const tangle::TxRecord* b) {
              return a->order_pos < b->order_pos;
            });

  Writer w;
  w.u32(static_cast<std::uint32_t>(recs.size()));
  for (const auto* rec : recs) w.blob(rec->tx.encode());
  stats_.sync_txs_served += recs.size();

  RpcMessage out;
  out.type = MsgType::kSyncMissing;
  out.request_id = request_id;
  out.sender_key = identity_.public_identity().sign_key;
  out.body = std::move(w).take();
  network_.send(id_, to, out.encode());
}

void Gateway::handle_sync_missing(const RpcMessage& msg) {
  // RTT of the anti-entropy exchange this reply closes (sim time; covers
  // both the sketch-decode path and the inventory fallback, which adds a
  // full extra round trip).
  if (const auto it = sync_sent_at_.find(msg.request_id);
      it != sync_sent_at_.end()) {
    metrics_.sync_rtt_sim_s.observe(now() - it->second);
    sync_sent_at_.erase(it);
  }
  Reader r(msg.body);
  const auto count = r.u32();
  if (!count) return;
  // Decode the whole burst first so the signatures can be checked with one
  // batched Ed25519 verification instead of one scalar verify per tx; the
  // admission pipeline then accepts each batch-verified tx via its token.
  // The count is attacker-controlled wire data: never reserve off it
  // directly (a forged 2^32-1 would ask for hundreds of GB up front).
  // Every blob costs at least its u32 length prefix, so the remaining body
  // bounds how many transactions the message can actually carry.
  std::vector<tangle::Transaction> txs;
  txs.reserve(std::min<std::size_t>(count.value(),
                                    r.remaining() / sizeof(std::uint32_t)));
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    const auto wire = r.blob();
    if (!wire) break;
    auto tx = tangle::Transaction::decode(wire.value());
    if (!tx) continue;
    txs.push_back(std::move(tx).value());
  }
  // The pipeline's batch ingress does the rest: its read phase checks the
  // whole burst with one batched Ed25519 verification per chunk (invalid
  // signatures fall through to the normal kVerify rejection), and its
  // commit phase attaches in shipped order — parents precede children, so
  // a burst of linked history lands in one pass.
  const auto statuses = admit_many(txs, Ingress::kSync);
  for (const auto& status : statuses)
    if (status.is_ok()) ++stats_.sync_txs_applied;
}

bool Gateway::rate_limit_allows(const crypto::Ed25519PublicKey& sender) {
  if (config_.rate_limit_per_sender <= 0.0) return true;
  const TimePoint t = now();
  evict_idle_buckets(t);
  auto [it, inserted] = buckets_.try_emplace(
      sender, TokenBucket{config_.rate_limit_burst, t});  // start full
  auto& bucket = it->second;
  bucket.tokens = std::min(
      config_.rate_limit_burst,
      bucket.tokens + (t - bucket.last_refill) * config_.rate_limit_per_sender);
  bucket.last_refill = t;
  if (bucket.tokens < 1.0) {
    ++stats_.rate_limited;
    return false;
  }
  bucket.tokens -= 1.0;
  return true;
}

void Gateway::evict_idle_buckets(TimePoint t) {
  // A bucket untouched for burst/rate seconds has fully refilled, so
  // evicting it is indistinguishable from keeping it (try_emplace recreates
  // it full). Sweeping once per horizon bounds the map by the senders seen
  // in the last two horizons — an unauthorized-sender Sybil flood can no
  // longer grow gateway memory without bound.
  const Duration horizon =
      config_.rate_limit_burst / config_.rate_limit_per_sender;
  if (t - last_bucket_sweep_ < horizon) return;
  last_bucket_sweep_ = t;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    if (t - it->second.last_refill >= horizon) {
      it = buckets_.erase(it);
      ++stats_.rate_buckets_evicted;
    } else {
      ++it;
    }
  }
}

consensus::WeightOracle Gateway::weight_oracle() const {
  // Weight of a transaction = "the number of validation to this transaction"
  // (Section IV-B): its own weight of 1 plus the direct approvals it has
  // received so far. Direct counts keep CrP bounded by the node's real
  // validation service to the tangle; cumulative weight would grow
  // quadratically in the window and swamp the Eqn 4 penalty.
  return [this](const tangle::TxId& id) {
    return 1.0 + static_cast<double>(tangle_.approver_count(id));
  };
}

int Gateway::required_difficulty(const tangle::AccountKey& sender) const {
  return policy_->required_difficulty(sender, now(), weight_oracle());
}

tangle::TipPair Gateway::select_tips() {
  ++stats_.tips_served;
  const auto tips = tip_selector_->select(tangle_, rng_);
  if (const auto steps = tip_selector_->last_walk_steps(); steps > 0)
    metrics_.tip_walk_steps.observe(static_cast<double>(steps));
  return tips;
}

void Gateway::on_message(sim::NodeId from, const Bytes& wire) {
  const auto msg = RpcMessage::decode(wire);
  if (!msg) {
    logger.warn() << "dropping malformed message from node " << from;
    return;
  }
  switch (msg.value().type) {
    // Service-edge requests pass the per-sender token bucket first; a flood
    // is shed silently (no reply — replying would amplify the attack).
    case MsgType::kGetTipsRequest:
      if (rate_limit_allows(msg.value().sender_key))
        handle_get_tips(from, msg.value());
      break;
    case MsgType::kSubmitTx:
      if (rate_limit_allows(msg.value().sender_key))
        handle_submit(from, msg.value());
      break;
    case MsgType::kAttachRequest:
      if (rate_limit_allows(msg.value().sender_key))
        handle_attach(from, msg.value());
      break;
    case MsgType::kConfirmQuery:
      if (rate_limit_allows(msg.value().sender_key))
        handle_confirm_query(from, msg.value());
      break;
    case MsgType::kDataQuery:
      if (rate_limit_allows(msg.value().sender_key))
        handle_data_query(from, msg.value());
      break;
    case MsgType::kOfflineDrainRequest:
      // One token per CHUNK, not per transaction: a healing flash crowd is
      // exactly when the rate limiter must not starve the drain path.
      if (rate_limit_allows(msg.value().sender_key))
        handle_offline_drain(from, msg.value());
      break;
    case MsgType::kBroadcastTx:
      handle_gossip(msg.value());
      break;
    case MsgType::kSyncSummary:
      handle_sync_summary(from, msg.value());
      break;
    case MsgType::kSyncInventoryRequest:
      handle_sync_inventory_request(from, msg.value());
      break;
    case MsgType::kSyncInventory:
      handle_sync_inventory(from, msg.value());
      break;
    case MsgType::kSyncMissing:
      handle_sync_missing(msg.value());
      break;
    default:
      logger.warn() << "unexpected message type from node " << from;
  }
}

void Gateway::handle_get_tips(sim::NodeId from, const RpcMessage& msg) {
  TipsResponse resp;
  const bool is_manager = auth_.is_manager(msg.sender_key);
  if (!is_manager && !auth_.is_authorized(msg.sender_key)) {
    // Admission control: unauthorized devices are refused service outright
    // (Sybil / DDoS defence, Section VI-C).
    ++stats_.rejected_unauthorized;
    resp.status = ErrorCode::kUnauthorized;
    resp.message = "device not in authorization list";
  } else {
    const auto [t1, t2] = select_tips();
    resp.tip1 = t1;
    resp.tip2 = t2;
    resp.required_difficulty = static_cast<std::uint8_t>(
        required_difficulty(msg.sender_key));
  }
  reply(from, MsgType::kGetTipsResponse, msg.request_id, resp.encode());
}

ConfirmationInfo Gateway::confirmation_status(const tangle::TxId& id) const {
  ConfirmationInfo info;
  info.tx_id = id;
  info.known = tangle_.contains(id);
  if (!info.known) return info;
  info.milestone_confirmed = milestones_.is_confirmed(id);
  // O(1): the tangle maintains cumulative weight incrementally, so serving
  // confirmation queries never re-sweeps the DAG (bench/weight_cache_bench).
  info.cumulative_weight = tangle_.cumulative_weight(id);
  info.weight_confirmed = info.cumulative_weight >= config_.confirmation_weight;
  return info;
}

void Gateway::handle_confirm_query(sim::NodeId from, const RpcMessage& msg) {
  if (msg.body.size() != 32) return;  // malformed query: drop
  const auto info =
      confirmation_status(tangle::TxId::from_view(msg.body));
  reply(from, MsgType::kConfirmResponse, msg.request_id, info.encode());
}

std::size_t Gateway::snapshot_and_prune(
    TimePoint cutoff,
    const std::function<void(const tangle::Transaction&, TimePoint)>&
        archive_tx) {
  // Capture the derived state the snapshot genesis must commit to. Account
  // enumeration comes from the tangle's first-seen sender index — no DAG
  // sweep.
  const auto state = storage::capture_state(
      now(), ledger_, tangle_.senders_first_seen(), auth_.authorized_devices());
  auto pruned = storage::prune(tangle_, state, cutoff);

  for (const auto& id : pruned.archived) {
    const auto* rec = tangle_.find(id);
    archive_tx(rec->tx, rec->arrival);
  }
  // Recent transactions reference pruned parents and cannot carry over
  // verbatim (parents are inside the signature); archive them too so no
  // history is lost, then restart from the snapshot genesis. The arrival
  // index hands us exactly the >= cutoff suffix.
  const auto& by_arrival = tangle_.arrival_index();
  for (std::size_t i = tangle::Tangle::first_at_or_after(by_arrival, cutoff);
       i < by_arrival.size(); ++i) {
    if (by_arrival[i].type == tangle::TxType::kGenesis) continue;
    const auto* rec = tangle_.find(by_arrival[i].id);
    archive_tx(rec->tx, rec->arrival);
  }

  const std::size_t archived = tangle_.size() - 1;
  tangle_ = std::move(pruned.tangle);
  milestones_ = tangle::MilestoneTracker{};  // confirmations restart
  return archived;
}

void Gateway::handle_data_query(sim::NodeId from, const RpcMessage& msg) {
  const auto query = DataQuery::decode(msg.body);
  if (!query) return;

  // Reading the ledger is open to any party — the tangle is a public
  // blockchain; confidentiality of sensitive payloads comes from the data
  // authority management method (AES envelopes), not from access control
  // on reads (paper Section IV-C). Served from the by-sender / by-type
  // secondary indexes: O(log n + results), never a DAG sweep.
  const tangle::AccountKey zero{};
  const bool any_sender = query.value().sender == zero;
  DataResponse response;
  for (const auto* rec :
       tangle_.data_since(any_sender ? nullptr : &query.value().sender,
                          query.value().since, query.value().max_results))
    response.transactions.push_back(rec->tx);
  reply(from, MsgType::kDataResponse, msg.request_id, response.encode());
}

Status Gateway::admit(const tangle::Transaction& tx, Ingress ingress,
                      const tangle::VerifiedToken* pre_verified) {
  const auto status = pipeline_->admit(tx, now(), ingress, pre_verified);
  // A newly attached transaction may be the parent some buffered
  // out-of-order gossip was waiting for.
  if (status.is_ok()) adopt_orphans(tx.id());
  return status;
}

std::vector<Status> Gateway::admit_many(
    const std::vector<tangle::Transaction>& txs, Ingress ingress) {
  const TimePoint arrival = now();
  std::vector<AdmissionBatchItem> items;
  items.reserve(txs.size());
  for (const auto& tx : txs)
    items.push_back(AdmissionBatchItem{&tx, arrival, nullptr});
  return admit_batch_items(items, ingress);
}

std::vector<Status> Gateway::admit_batch_items(
    const std::vector<AdmissionBatchItem>& items, Ingress ingress) {
  std::vector<Status> out;
  out.reserve(items.size());
  for (std::size_t begin = 0; begin < items.size();
       begin += config_.admission_max_batch) {
    const std::size_t end =
        std::min(items.size(), begin + config_.admission_max_batch);
    const std::vector<AdmissionBatchItem> slice(items.begin() + begin,
                                                items.begin() + end);
    auto statuses =
        pipeline_->admit_many(slice, ingress, *admission_executor_);
    // Orphan adoption after the slice committed, in slice order — the same
    // "newly attached tx may be a buffered child's parent" rule as the
    // serial path, just amortized to the batch boundary.
    for (std::size_t i = 0; i < statuses.size(); ++i)
      if (statuses[i].is_ok()) adopt_orphans(slice[i].tx->id());
    out.insert(out.end(), std::make_move_iterator(statuses.begin()),
               std::make_move_iterator(statuses.end()));
  }
  return out;
}

Status Gateway::submit(const tangle::Transaction& tx) {
  const auto status = admit(tx, Ingress::kService);
  if (status.is_ok()) {
    RpcMessage gossip;
    gossip.type = MsgType::kBroadcastTx;
    gossip.sender_key = identity_.public_identity().sign_key;
    gossip.body = tx.encode();
    const Bytes wire = gossip.encode();
    for (const auto peer : peers_) network_.send(id_, peer, wire);
  }
  return status;
}

void Gateway::handle_submit(sim::NodeId from, const RpcMessage& msg) {
  SubmitResult result;
  const auto tx = tangle::Transaction::decode(msg.body);
  if (!tx) {
    result.status = ErrorCode::kInvalidArgument;
    result.message = "undecodable transaction";
  } else if (tx.value().sender != msg.sender_key) {
    result.status = ErrorCode::kUnauthorized;
    result.message = "transaction sender differs from RPC sender";
  } else {
    const auto status = submit(tx.value());
    result.status = status.code();
    result.message = status.message();
    result.tx_id = tx.value().id();
  }
  reply(from, MsgType::kSubmitResult, msg.request_id, result.encode());
}

void Gateway::handle_attach(sim::NodeId from, const RpcMessage& msg) {
  // Offloaded PoW (the remote attachToTangle pattern): the device signed the
  // transaction but left the nonce to us. Grind it at the difficulty the
  // credit policy demands of the *device*, then run the normal admission
  // pipeline. The gateway is a server-class node, so this is cheap for it —
  // and the credit mechanism still prices the device's behaviour, because
  // the required difficulty follows the device's credit either way.
  SubmitResult result;
  auto tx = tangle::Transaction::decode(msg.body);
  if (!tx) {
    result.status = ErrorCode::kInvalidArgument;
    result.message = "undecodable transaction";
  } else if (tx.value().sender != msg.sender_key) {
    result.status = ErrorCode::kUnauthorized;
    result.message = "transaction sender differs from RPC sender";
  } else {
    auto& t = tx.value();
    // The declared difficulty is signed by the device, so it cannot be
    // adjusted here; if it fell behind the policy (credit moved since the
    // tips response), the device must refresh and re-sign.
    const int required = required_difficulty(t.sender);
    if (t.difficulty < required) {
      ++stats_.rejected_difficulty;
      result.status = ErrorCode::kPowInvalid;
      result.message = "declared difficulty below required";
    } else if (t.difficulty > config_.credit.max_difficulty) {
      // No honest device declares more than the policy ceiling; grinding a
      // corrupted/hostile 2^200 request would wedge the gateway (DoS).
      ++stats_.rejected_difficulty;
      result.status = ErrorCode::kPowInvalid;
      result.message = "declared difficulty above protocol maximum";
    } else {
      const obs::WallTimer grind;
      const auto mined =
          parallel_miner_
              ? parallel_miner_->mine(t.parent1, t.parent2, t.difficulty)
              : miner_.mine(t.parent1, t.parent2, t.difficulty);
      metrics_.pow_grind_wall_s.observe(grind.elapsed());
      if (!mined) {
        // Bounded miners (or an out-of-range difficulty) can exhaust the
        // nonce budget without a hit; report that instead of dereferencing
        // an empty result. This is gateway-side mining giving up, not a
        // client submitting an invalid proof, so it gets its own counter
        // rather than polluting rejected_pow.
        ++stats_.pow_offload_exhausted;
        result.status = ErrorCode::kPowInvalid;
        result.message = "nonce search exhausted without a valid proof";
      } else {
        t.nonce = mined->nonce;
        // decode() cached the id of the nonce-less wire; the nonce is part
        // of the id, so the cache must be dropped before anyone reads it.
        t.invalidate_id();
        const auto status = submit(t);
        result.status = status.code();
        result.message = status.message();
        result.tx_id = t.id();
      }
    }
  }
  reply(from, MsgType::kAttachResult, msg.request_id, result.encode());
}

void Gateway::handle_offline_drain(sim::NodeId from, const RpcMessage& msg) {
  ++stats_.drain_requests;
  const auto request = OfflineDrainRequest::decode(msg.body);
  if (!request) return;  // malformed chunk: drop, don't amplify
  const auto& txs = request.value().transactions;

  OfflineDrainResult result;
  result.items.resize(txs.size());
  std::vector<tangle::Transaction> to_admit;
  std::vector<std::size_t> admit_slot;  // result index per to_admit entry
  to_admit.reserve(txs.size());
  admit_slot.reserve(txs.size());

  for (std::size_t i = 0; i < txs.size(); ++i) {
    auto& item = result.items[i];
    item.tx_id = txs[i].id();
    if (txs[i].sender != msg.sender_key) {
      item.status = ErrorCode::kUnauthorized;
      continue;
    }
    // Explicit-duplicate pre-pass: a record whose (issuer, seq) already
    // settled — the witness's evidence copy landed first, or the device
    // crashed after a drain was admitted but before the verdict arrived —
    // is answered "already settled by <tx>" without any admission work.
    // Service-edge only: gossip/sync/replay of the settling transactions
    // themselves must stay byte-identical across replicas.
    if (!txs[i].payload_encrypted &&
        OfflineEnvelope::is_offline_payload(txs[i].payload)) {
      if (const auto envelope = OfflineEnvelope::decode(txs[i].payload)) {
        const OfflineKey key{envelope.value().record.issuer,
                             envelope.value().record.outbox_seq};
        if (const auto settled = offline_registry_.find(key)) {
          ++stats_.offline_duplicates;
          item.status = ErrorCode::kReplayDetected;
          item.tx_id = *settled;  // tell the device which tx settled it
          continue;
        }
      }
    }
    admit_slot.push_back(i);
    to_admit.push_back(txs[i]);
  }

  // The whole chunk goes through batch admission (one batched signature
  // verification, one attach batch) — never per-item admit() in a drain
  // loop, which is what the flash-crowd reconnect would wedge on.
  const auto statuses = admit_many(to_admit, Ingress::kService);
  for (std::size_t j = 0; j < statuses.size(); ++j) {
    auto& item = result.items[admit_slot[j]];
    item.status = statuses[j].code();
    if (statuses[j].is_ok()) {
      ++stats_.offline_drained;
      // Drained history reaches peers like any service submission.
      RpcMessage gossip;
      gossip.type = MsgType::kBroadcastTx;
      gossip.sender_key = identity_.public_identity().sign_key;
      gossip.body = to_admit[j].encode();
      const Bytes wire = gossip.encode();
      for (const auto peer : peers_) network_.send(id_, peer, wire);
    }
  }
  reply(from, MsgType::kOfflineDrainResult, msg.request_id, result.encode());
}

void Gateway::buffer_orphan(const tangle::TxId& missing_parent,
                            tangle::Transaction tx) {
  if (orphan_count_ >= config_.max_orphans) {  // bounded under attack
    ++stats_.orphans_dropped;
    return;
  }
  orphans_[missing_parent].push_back(std::move(tx));
  ++orphan_count_;
  ++stats_.orphans_buffered;
}

void Gateway::adopt_orphans(const tangle::TxId& arrived) {
  const auto it = orphans_.find(arrived);
  if (it == orphans_.end()) return;
  auto waiting = std::move(it->second);
  orphans_.erase(it);
  orphan_count_ -= waiting.size();
  for (auto& tx : waiting) {
    const auto status = admit(tx, Ingress::kOrphanRetry);
    if (status.is_ok()) {
      ++stats_.orphans_adopted;
    } else if (status.code() == ErrorCode::kNotFound) {
      // The OTHER parent is still missing: re-buffer on it rather than
      // dropping a transaction we already held.
      const auto missing =
          tangle_.contains(tx.parent1) ? tx.parent2 : tx.parent1;
      buffer_orphan(missing, std::move(tx));
    }
  }
}

void Gateway::handle_gossip(const RpcMessage& msg) {
  ++stats_.gossip_received;
  const auto tx = tangle::Transaction::decode(msg.body);
  if (!tx) return;
  const auto status = admit(tx.value(), Ingress::kGossip);
  if (status.is_ok()) {
    // Relay onward so the tangle converges across >2 gateways; duplicates
    // are rejected by the tangle, which stops the flood.
    RpcMessage relay = msg;
    const Bytes wire = relay.encode();
    for (const auto peer : peers_) network_.send(id_, peer, wire);
  } else if (status.code() == ErrorCode::kNotFound) {
    // Random per-message latency reorders gossip: hold the child until its
    // missing parent lands rather than dropping it.
    const auto& t = tx.value();
    const auto missing = tangle_.contains(t.parent1) ? t.parent2 : t.parent1;
    buffer_orphan(missing, t);
  }
}

void Gateway::reply(sim::NodeId to, MsgType type, std::uint64_t request_id,
                    const Bytes& body) {
  RpcMessage msg;
  msg.type = type;
  msg.request_id = request_id;
  msg.sender_key = identity_.public_identity().sign_key;
  msg.body = body;
  network_.send(id_, to, msg.encode());
}

}  // namespace biot::node
