#include "storage/tangle_io.h"

#include <cstdio>
#include <sstream>

#include "common/codec.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"

namespace biot::storage {

Bytes serialize_tangle(const tangle::Tangle& tangle) {
  Writer w;
  const auto& order = tangle.arrival_order();
  w.u32(static_cast<std::uint32_t>(order.size()));
  for (const auto& id : order) {
    const auto* rec = tangle.find(id);
    w.f64(rec->arrival);
    w.blob(rec->tx.encode());
  }
  const auto digest = crypto::Sha256::hash(w.bytes());
  w.raw(digest.view());
  return std::move(w).take();
}

namespace {
constexpr std::size_t kVerifyChunk = 64;

struct Record {
  tangle::Transaction tx;
  TimePoint arrival;
};

// Batch-verifies the chunk's signatures, then attaches it in order. A record
// that failed verification reports what Tangle::add would have: its
// structural error if it has one, else a bad signature.
Status attach_chunk(tangle::Tangle& tangle, const std::vector<Record>& chunk) {
  std::vector<Bytes> messages;
  messages.reserve(chunk.size());
  std::vector<crypto::VerifyItem> items;
  items.reserve(chunk.size());
  for (const auto& rec : chunk) {
    messages.push_back(rec.tx.signing_bytes());
    items.push_back({&rec.tx.sender, ByteView{messages.back()}, &rec.tx.signature});
  }
  const auto valid = crypto::ed25519_verify_batch(items);
  tangle::Tangle::AttachBatch batch(tangle);
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    const auto& tx = chunk[k].tx;
    if (!valid[k]) {
      if (auto s = tangle.attach_precheck(tx); !s) return s;
      return Status::error(ErrorCode::kVerifyFailed, "tangle: bad signature");
    }
    if (auto s = batch.add(tx, chunk[k].arrival,
                           tangle::VerifiedToken::assume_valid(tx));
        !s)
      return s;
  }
  return Status::ok();
}
}  // namespace

Result<tangle::Tangle> deserialize_tangle(ByteView wire) {
  if (wire.size() < 32)
    return Status::error(ErrorCode::kInvalidArgument, "tangle file: too short");
  const ByteView body = wire.subspan(0, wire.size() - 32);
  const ByteView digest = wire.subspan(wire.size() - 32);
  if (!ct_equal(crypto::Sha256::hash(body).view(), digest))
    return Status::error(ErrorCode::kVerifyFailed, "tangle file: digest mismatch");

  Reader r(body);
  const auto count = r.u32();
  if (!count) return count.status();
  if (count.value() == 0)
    return Status::error(ErrorCode::kInvalidArgument, "tangle file: no genesis");

  // First record must be the genesis.
  const auto genesis_arrival = r.f64();
  if (!genesis_arrival) return genesis_arrival.status();
  const auto genesis_wire = r.blob();
  if (!genesis_wire) return genesis_wire.status();
  auto genesis = tangle::Transaction::decode(genesis_wire.value());
  if (!genesis) return genesis.status();
  if (genesis.value().type != tangle::TxType::kGenesis)
    return Status::error(ErrorCode::kInvalidArgument,
                         "tangle file: first record is not genesis");

  // The remaining records are verified a chunk at a time by one batch
  // equation, then attached in order inside one AttachBatch. The batch
  // accounts one verification per record, as Tangle::add would.
  tangle::Tangle tangle(genesis.value());
  std::vector<Record> chunk;
  for (std::uint32_t i = 1; i < count.value();) {
    chunk.clear();
    for (; i < count.value() && chunk.size() < kVerifyChunk; ++i) {
      const auto arrival = r.f64();
      if (!arrival) return arrival.status();
      const auto tx_wire = r.blob();
      if (!tx_wire) return tx_wire.status();
      auto tx = tangle::Transaction::decode(tx_wire.value());
      if (!tx) return tx.status();
      chunk.push_back(Record{std::move(tx.value()), arrival.value()});
    }
    if (auto s = attach_chunk(tangle, chunk); !s) return s;
  }
  if (!r.at_end())
    return Status::error(ErrorCode::kInvalidArgument, "tangle file: trailing bytes");
  return tangle;
}

Status save_tangle(const tangle::Tangle& tangle, const std::string& path) {
  const Bytes wire = serialize_tangle(tangle);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    return Status::error(ErrorCode::kInternal, "cannot open " + path);
  const bool ok = std::fwrite(wire.data(), 1, wire.size(), f) == wire.size();
  std::fclose(f);
  if (!ok) return Status::error(ErrorCode::kInternal, "short write to " + path);
  return Status::ok();
}

Result<tangle::Tangle> load_tangle(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Status::error(ErrorCode::kNotFound, "cannot open " + path);
  Bytes contents;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    contents.insert(contents.end(), buf, buf + n);
  std::fclose(f);
  return deserialize_tangle(contents);
}

std::string to_dot(const tangle::Tangle& tangle, std::size_t max_nodes) {
  std::ostringstream out;
  out << "digraph tangle {\n  rankdir=RL;\n  node [shape=box, fontsize=9];\n";
  std::size_t emitted = 0;
  // Most recent transactions first — the interesting frontier.
  const auto& order = tangle.arrival_order();
  for (auto it = order.rbegin(); it != order.rend() && emitted < max_nodes;
       ++it, ++emitted) {
    const auto* rec = tangle.find(*it);
    const std::string name = "t" + it->hex().substr(0, 8);
    out << "  " << name << " [label=\"" << it->hex().substr(0, 8) << "\\n"
        << tangle::tx_type_name(rec->tx.type) << "\"";
    if (tangle.is_tip(*it)) out << ", style=filled, fillcolor=lightgray";
    out << "];\n";
    if (rec->tx.type != tangle::TxType::kGenesis) {
      out << "  " << name << " -> t" << rec->tx.parent1.hex().substr(0, 8)
          << ";\n";
      if (rec->tx.parent2 != rec->tx.parent1)
        out << "  " << name << " -> t" << rec->tx.parent2.hex().substr(0, 8)
            << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace biot::storage
