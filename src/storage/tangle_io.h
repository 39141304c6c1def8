// Whole-tangle serialization: lets a full node persist its replica and
// cold-start from disk instead of replaying gossip (the paper's gateways
// "keep copies of the blockchain" — this is those copies on stable storage).
//
// Format: u32 count, then per transaction (in arrival order) f64 arrival +
// length-prefixed encoding, then a trailing SHA-256 over everything before
// it. Reload re-validates every transaction (signatures batch-verified a
// chunk at a time, then the structural and PoW checks of Tangle::add), so a
// tampered or truncated file cannot produce a corrupt replica.
#pragma once

#include <string>

#include "common/status.h"
#include "tangle/tangle.h"

namespace biot::storage {

/// Serializes the full tangle (genesis first) to bytes.
Bytes serialize_tangle(const tangle::Tangle& tangle);

/// Rebuilds a tangle from serialize_tangle output. All structural checks
/// (signatures, PoW, parent links) run again during reconstruction.
Result<tangle::Tangle> deserialize_tangle(ByteView wire);

/// File convenience wrappers.
[[nodiscard]] Status save_tangle(const tangle::Tangle& tangle, const std::string& path);
Result<tangle::Tangle> load_tangle(const std::string& path);

/// Graphviz DOT rendering of the DAG (tips highlighted), for debugging and
/// the visualizations the IOTA ecosystem provides via thetangle.org.
std::string to_dot(const tangle::Tangle& tangle, std::size_t max_nodes = 200);

}  // namespace biot::storage
