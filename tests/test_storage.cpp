// Storage substrate tests: archive round-trip and corruption detection,
// tangle serialization/cold-start, snapshot state hashing and pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "storage/archive.h"
#include "storage/snapshot.h"
#include "storage/tangle_io.h"
#include "test_util.h"

namespace biot::storage {
namespace {

using testutil::TxFactory;

/// RAII temp file path.
struct TempFile {
  std::string path;
  explicit TempFile(const char* tag)
      : path(std::string("/tmp/biot_test_") + tag + "_" +
             std::to_string(::getpid())) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

tangle::Tangle build_tangle(TxFactory& node, int txs) {
  tangle::Tangle tangle(tangle::Tangle::make_genesis());
  biot::Rng rng(1);
  for (int i = 0; i < txs; ++i) {
    const auto& order = tangle.arrival_order();
    const auto& p1 = order[rng.index(order.size())];
    const auto& p2 = order[rng.index(order.size())];
    const auto tx = node.make(p1, p2, 2, to_bytes("r" + std::to_string(i)),
                              0.5 * i);
    EXPECT_TRUE(tangle.add(tx, 0.5 * i).is_ok());
  }
  return tangle;
}

// ---- Archive -----------------------------------------------------------------

TEST(Archive, WriteReadRoundTrip) {
  TempFile file("archive");
  TxFactory node(1);
  const auto g = tangle::Tangle::make_genesis().id();

  {
    ArchiveWriter writer(file.path);
    for (int i = 0; i < 10; ++i) {
      const auto tx = node.make(g, g, 2);
      ASSERT_TRUE(writer.append(tx, 1.5 * i).is_ok());
    }
    EXPECT_EQ(writer.records_written(), 10u);
  }

  const auto back = read_archive(file.path);
  ASSERT_TRUE(back) << back.status().to_string();
  ASSERT_EQ(back.value().size(), 10u);
  EXPECT_EQ(back.value()[3].arrival, 4.5);
  EXPECT_EQ(back.value()[3].tx.sequence, 3u);
  EXPECT_TRUE(back.value()[3].tx.signature_valid());
}

TEST(Archive, AppendAcrossReopens) {
  TempFile file("archive_reopen");
  TxFactory node(2);
  const auto g = tangle::Tangle::make_genesis().id();
  {
    ArchiveWriter w(file.path);
    ASSERT_TRUE(w.append(node.make(g, g, 2), 0.0).is_ok());
  }
  {
    ArchiveWriter w(file.path);  // reopen: must not rewrite the header
    ASSERT_TRUE(w.append(node.make(g, g, 2), 1.0).is_ok());
  }
  const auto back = read_archive(file.path);
  ASSERT_TRUE(back);
  EXPECT_EQ(back.value().size(), 2u);
}

TEST(Archive, MissingFileIsNotFound) {
  EXPECT_EQ(read_archive("/tmp/biot_definitely_missing_archive").code(),
            ErrorCode::kNotFound);
}

TEST(Archive, CorruptionDetected) {
  TempFile file("archive_corrupt");
  TxFactory node(3);
  const auto g = tangle::Tangle::make_genesis().id();
  {
    ArchiveWriter w(file.path);
    ASSERT_TRUE(w.append(node.make(g, g, 2), 0.0).is_ok());
  }
  // Flip one byte in the middle of the record.
  std::FILE* f = std::fopen(file.path.c_str(), "r+b");
  std::fseek(f, 40, SEEK_SET);
  std::fputc(0x5a, f);
  std::fclose(f);

  const auto back = read_archive(file.path);
  EXPECT_FALSE(back);
}

TEST(Archive, TruncationDetected) {
  TempFile file("archive_trunc");
  TxFactory node(4);
  const auto g = tangle::Tangle::make_genesis().id();
  {
    ArchiveWriter w(file.path);
    ASSERT_TRUE(w.append(node.make(g, g, 2), 0.0).is_ok());
  }
  std::FILE* f = std::fopen(file.path.c_str(), "r+b");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(file.path.c_str(), size - 5), 0);
  EXPECT_FALSE(read_archive(file.path));
}

// ---- Tangle serialization -------------------------------------------------------

TEST(TangleIo, SerializeDeserializeRoundTrip) {
  TxFactory node(5);
  const auto tangle = build_tangle(node, 25);
  const Bytes wire = serialize_tangle(tangle);

  const auto back = deserialize_tangle(wire);
  ASSERT_TRUE(back) << back.status().to_string();
  EXPECT_EQ(back.value().size(), tangle.size());
  EXPECT_EQ(back.value().tips(), tangle.tips());
  EXPECT_EQ(back.value().genesis_id(), tangle.genesis_id());
  EXPECT_EQ(back.value().arrival_order(), tangle.arrival_order());
}

TEST(TangleIo, FileRoundTrip) {
  TempFile file("tangle");
  TxFactory node(6);
  const auto tangle = build_tangle(node, 10);
  ASSERT_TRUE(save_tangle(tangle, file.path).is_ok());
  const auto back = load_tangle(file.path);
  ASSERT_TRUE(back);
  EXPECT_EQ(back.value().size(), tangle.size());
}

TEST(TangleIo, DigestMismatchDetected) {
  TxFactory node(7);
  const auto tangle = build_tangle(node, 5);
  Bytes wire = serialize_tangle(tangle);
  wire[10] ^= 0x01;
  EXPECT_EQ(deserialize_tangle(wire).code(), ErrorCode::kVerifyFailed);
}

TEST(TangleIo, TamperedTransactionRejectedOnReload) {
  // Tamper with a transaction AND fix up the file digest: the per-tx
  // signature check during reconstruction must still catch it.
  TxFactory node(8);
  const auto tangle = build_tangle(node, 5);
  Bytes wire = serialize_tangle(tangle);
  Bytes body(wire.begin(), wire.end() - 32);
  body[body.size() / 2] ^= 0x01;
  const auto digest = crypto::Sha256::hash(body);
  Bytes forged = body;
  forged.insert(forged.end(), digest.begin(), digest.end());
  EXPECT_FALSE(deserialize_tangle(forged));
}

TEST(TangleIo, BadSignatureFailsReload) {
  // Only the signature changes: parents, nonce and PoW stay valid, so the
  // batch verification on reload is the check that must catch it.
  TxFactory node(10);
  const auto tangle = build_tangle(node, 80);
  Bytes body = serialize_tangle(tangle);
  body.resize(body.size() - 32);
  const auto& sig = tangle.find(tangle.arrival_order()[70])->tx.signature;
  const auto at =
      std::search(body.begin(), body.end(), sig.data.begin(), sig.data.end());
  ASSERT_NE(at, body.end());
  at[40] ^= 0x01;
  const auto digest = crypto::Sha256::hash(body);
  body.insert(body.end(), digest.begin(), digest.end());
  EXPECT_EQ(deserialize_tangle(body).code(), ErrorCode::kVerifyFailed);
}

TEST(TangleIo, ReloadAccountsOneVerifyPerRecord) {
  TxFactory node(11);
  const auto tangle = build_tangle(node, 80);  // more than one verify chunk
  const Bytes wire = serialize_tangle(tangle);
  const std::uint64_t before = crypto::ed25519_verify_calls();
  ASSERT_TRUE(deserialize_tangle(wire));
  EXPECT_EQ(crypto::ed25519_verify_calls() - before, tangle.size() - 1);
}

TEST(TangleIo, EmptyAndGarbageInputRejected) {
  EXPECT_FALSE(deserialize_tangle(Bytes{}));
  EXPECT_FALSE(deserialize_tangle(Bytes(100, 0xab)));
}

TEST(TangleIo, DotExportContainsTipsAndEdges) {
  TxFactory node(9);
  const auto tangle = build_tangle(node, 8);
  const std::string dot = to_dot(tangle);
  EXPECT_NE(dot.find("digraph tangle"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightgray"), std::string::npos);  // a tip
  EXPECT_NE(dot.find("->"), std::string::npos);                   // an edge
}

// ---- Snapshots -------------------------------------------------------------------

TEST(Snapshot, StateEncodeDecodeRoundTrip) {
  SnapshotState state;
  state.taken_at = 120.0;
  TxFactory a(10), b(11);
  state.balances.emplace_back(a.key(), 500);
  state.next_sequences.emplace_back(a.key(), 42);
  state.authorized.push_back(crypto::Identity::deterministic(12).public_identity());

  const auto back = SnapshotState::decode(state.encode());
  ASSERT_TRUE(back);
  EXPECT_EQ(back.value().taken_at, 120.0);
  ASSERT_EQ(back.value().balances.size(), 1u);
  EXPECT_EQ(back.value().balances[0].second, 500u);
  EXPECT_EQ(back.value().next_sequences[0].second, 42u);
  EXPECT_EQ(back.value().authorized.size(), 1u);
  EXPECT_EQ(back.value().state_hash(), state.state_hash());
}

TEST(Snapshot, StateHashIsOrderIndependentViaCapture) {
  tangle::Ledger ledger;
  TxFactory a(13), b(14);
  ledger.credit(a.key(), 100);
  ledger.credit(b.key(), 200);
  const auto id1 = crypto::Identity::deterministic(15).public_identity();
  const auto id2 = crypto::Identity::deterministic(16).public_identity();

  const auto s1 = capture_state(10.0, ledger, {a.key(), b.key()}, {id1, id2});
  const auto s2 = capture_state(10.0, ledger, {b.key(), a.key()}, {id2, id1});
  EXPECT_EQ(s1.state_hash(), s2.state_hash());
}

TEST(Snapshot, GenesisCommitsToState) {
  SnapshotState state;
  state.taken_at = 50.0;
  const auto genesis = make_snapshot_genesis(state);
  EXPECT_EQ(genesis.type, tangle::TxType::kGenesis);
  EXPECT_EQ(genesis.payload, state.state_hash().bytes());

  SnapshotState other = state;
  other.balances.emplace_back(tangle::AccountKey{}, 1);
  EXPECT_NE(make_snapshot_genesis(other).id(), genesis.id());
}

TEST(Snapshot, PruneSplitsAtCutoff) {
  TxFactory node(17);
  const auto tangle = build_tangle(node, 20);  // arrivals 0, 0.5, ..., 9.5

  tangle::Ledger ledger;
  const auto state = capture_state(10.0, ledger, {node.key()}, {});
  const auto result = prune(tangle, state, 5.0);

  EXPECT_EQ(result.archived.size(), 10u);   // arrivals 0..4.5
  EXPECT_EQ(result.retained, 10u);          // arrivals 5.0..9.5
  EXPECT_EQ(result.tangle.size(), 1u);      // fresh snapshot genesis only
  EXPECT_EQ(result.tangle.genesis_id(), make_snapshot_genesis(state).id());
}

TEST(Snapshot, ResumedTangleAcceptsNewTransactions) {
  TxFactory node(18);
  const auto old_tangle = build_tangle(node, 10);
  tangle::Ledger ledger;
  const auto state = capture_state(5.0, ledger, {node.key()}, {});
  auto result = prune(old_tangle, state, 100.0);

  // Devices re-anchor on the snapshot genesis and continue.
  const auto g = result.tangle.genesis_id();
  const auto tx = node.make(g, g, 2, {}, 101.0);
  EXPECT_TRUE(result.tangle.add(tx, 101.0).is_ok());
  EXPECT_EQ(result.tangle.size(), 2u);
}

TEST(Snapshot, ArchiveThenPrunePreservesEveryTransaction) {
  TempFile file("snapshot_archive");
  TxFactory node(19);
  const auto tangle = build_tangle(node, 12);
  tangle::Ledger ledger;
  const auto state = capture_state(6.0, ledger, {node.key()}, {});
  const auto result = prune(tangle, state, 3.0);

  {
    ArchiveWriter writer(file.path);
    for (const auto& id : result.archived) {
      const auto* rec = tangle.find(id);
      ASSERT_TRUE(writer.append(rec->tx, rec->arrival).is_ok());
    }
  }
  const auto archived = read_archive(file.path);
  ASSERT_TRUE(archived);
  EXPECT_EQ(archived.value().size(), result.archived.size());
  // Hot set + archive together cover the original tangle minus genesis.
  EXPECT_EQ(archived.value().size() + result.retained, tangle.size() - 1);
}

}  // namespace
}  // namespace biot::storage
