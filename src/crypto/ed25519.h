// Ed25519 signatures (RFC 8032), from scratch on top of field25519.
// Every B-IoT entity (manager, gateway, IoT device) signs transactions and
// protocol messages with an Ed25519 key; the public key is the entity's
// blockchain identity (paper Section IV-A).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/field25519.h"
#include "obs/metrics.h"

namespace biot::crypto {

using Ed25519Seed = FixedBytes<32>;
using Ed25519PublicKey = FixedBytes<32>;
using Ed25519Signature = FixedBytes<64>;

/// A point on the Edwards curve in extended homogeneous coordinates.
struct EdPoint {
  Fe X, Y, Z, T;

  static EdPoint identity();
  static const EdPoint& base();  // generator B (y = 4/5)

  EdPoint add(const EdPoint& other) const;
  EdPoint dbl() const;
  EdPoint negate() const;
  /// Scalar multiplication, scalar given as 32 little-endian bytes. Constant
  /// time in the scalar (no branch or memory address depends on it): keygen
  /// and signing pass secrets here, verification uses its own Straus kernel.
  EdPoint scalar_mul(ByteView scalar32) const;

  FixedBytes<32> compress() const;
  static std::optional<EdPoint> decompress(ByteView bytes32);
};

/// Reduces a 64-byte little-endian value mod the group order L. Constant
/// time, like sc_muladd: both handle the secret scalar and nonce in signing.
FixedBytes<32> sc_reduce64(ByteView bytes64);
/// (a*b + c) mod L; all operands 32-byte little-endian.
FixedBytes<32> sc_muladd(ByteView a, ByteView b, ByteView c);
/// True iff s (32 bytes LE) is canonical, i.e. < L.
bool sc_is_canonical(ByteView s);

/// Expanded private key material derived from a 32-byte seed.
struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey public_key;

  static Ed25519KeyPair from_seed(const Ed25519Seed& seed);
};

/// Signs `message` with the key pair (deterministic per RFC 8032).
Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message);

/// Verifies under the COFACTORED rule: strict about canonical S and the R
/// encoding (y < p), then accepts iff [8]([S]B - [k]A - R) is the identity,
/// computed by the batch path's Straus kernel. RFC 8032
/// permits either the cofactored or the cofactorless group equation; the
/// cofactored one is the consensus-safe choice because it is the unique rule
/// a random-linear-combination batch can decide exactly — scalar and batch
/// ingress therefore always agree, even for public keys or R values carrying
/// a small-order component. Returns false on any failure.
bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig);

/// Signature-verification work counter: +1 per ed25519_verify call (accepts
/// and rejections alike), +1 per item settled by ed25519_verify_batch —
/// whether by the canonicality pre-filter, the combined equation, or the
/// per-item fallback. Batch and scalar ingress account identically, so tests
/// can pin "each admitted transaction is verified exactly once" regardless
/// of path.
obs::Counter& ed25519_verify_calls();

/// One (public key, message, signature) triple for batch verification. The
/// pointed-to key/signature must outlive the ed25519_verify_batch call.
struct VerifyItem {
  const Ed25519PublicKey* pk = nullptr;
  ByteView message;
  const Ed25519Signature* sig = nullptr;
};

/// Batch verification: returns per-item validity under the same cofactored
/// rule as ed25519_verify (equal to the per-item result except with the
/// ~2^-128 probability that a bad batch defeats the 128-bit random linear
/// combination). Sound batches (the common case) are settled with ONE
/// combined group equation, whose Straus kernel shares its doublings across
/// the batch. When the combined equation fails (at least one bad signature),
/// each item is checked as ed25519_verify would, to find the corrupt ones.
std::vector<bool> ed25519_verify_batch(const std::vector<VerifyItem>& items);

}  // namespace biot::crypto
