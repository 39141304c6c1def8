#include "crypto/ed25519.h"

#include <cstring>

#include "crypto/sha512.h"

namespace biot::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// ---- 512-bit helper arithmetic (8x64 little-endian words) ----------------

struct U512 {
  u64 w[8] = {0};
};

U512 load_le(ByteView b) {
  U512 x;
  for (std::size_t i = 0; i < b.size(); ++i)
    x.w[i / 8] |= u64{b[i]} << (8 * (i % 8));
  return x;
}

// Group order L = 2^252 + 27742317777372353535851937790883648493 (253 bits).
constexpr u64 kL[4] = {0x5812631a5cf5d3edull, 0x14def9dea2f79cd6ull, 0,
                       0x1000000000000000ull};
// Barrett constant floor(2^512 / L) (260 bits).
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bull, 0x2106215d086329a7ull,
                        0xffffffffffffffebull, 0xffffffffffffffffull, 0xf};

// out = a - b mod 2^256; returns the borrow (1 iff a < b).
u64 sub_256(const u64 a[4], const u64 b[4], u64 out[4]) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = (u128)a[i] - b[i] - borrow;
    out[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  return borrow;
}

// x mod L by Barrett reduction (HAC 14.42 with b = 2^64, k = 4). The
// quotient estimate q = floor(floor(x / 2^192) * mu / 2^320) is floor(x / L)
// or one less: the two truncations lose under 2^192 / L + (2^512 / L - mu)
// < 0.23 of x / L. So x - q*L lies in [0, 2L), fits in 256 bits, and one
// masked subtraction of L finishes. No branch depends on x, which holds the
// nonce and the secret scalar while signing.
FixedBytes<32> mod_l(const U512& x) {
  u64 q[10] = {0};  // floor(x / 2^192) * mu; the quotient is q[5..9]
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 t = (u128)x.w[3 + i] * kMu[j] + q[i + j] + carry;
      q[i + j] = (u64)t;
      carry = t >> 64;
    }
    q[i + 5] = (u64)carry;
  }
  u64 ql[4] = {0};  // (q * L) mod 2^256
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      const u128 t = (u128)q[5 + i] * kL[j] + ql[i + j] + carry;
      ql[i + j] = (u64)t;
      carry = t >> 64;
    }
  }
  u64 r[4], t[4];
  sub_256(x.w, ql, r);
  const u64 keep = 0 - sub_256(r, kL, t);  // all ones iff r < L
  for (int i = 0; i < 4; ++i) r[i] = (r[i] & keep) | (t[i] & ~keep);
  FixedBytes<32> out;
  for (int i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  return out;
}

// a*b + c for 32-byte little-endian operands; < 2^512, so it cannot overflow.
U512 muladd_512(ByteView a, ByteView b, ByteView c) {
  const U512 x = load_le(a), y = load_le(b);
  U512 r = load_le(c);
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = (u128)x.w[i] * y.w[j] + r.w[i + j] + carry;
      r.w[i + j] = (u64)t;
      carry = t >> 64;
    }
    r.w[i + 4] = (u64)carry;
  }
  return r;
}
}  // namespace

FixedBytes<32> sc_reduce64(ByteView bytes64) {
  if (bytes64.size() != 64) throw std::invalid_argument("sc_reduce64: need 64 bytes");
  return mod_l(load_le(bytes64));
}

FixedBytes<32> sc_muladd(ByteView a, ByteView b, ByteView c) {
  if (a.size() != 32 || b.size() != 32 || c.size() != 32)
    throw std::invalid_argument("sc_muladd: need 32-byte operands");
  return mod_l(muladd_512(a, b, c));
}

bool sc_is_canonical(ByteView s) {
  if (s.size() != 32) return false;
  // Compare little-endian s with L.
  for (int i = 31; i >= 0; --i) {
    const std::uint8_t li = static_cast<std::uint8_t>(kL[i / 8] >> (8 * (i % 8)));
    if (s[i] != li) return s[i] < li;
  }
  return false;  // s == L is not canonical
}

// ---- Point arithmetic -----------------------------------------------------

EdPoint EdPoint::identity() {
  return EdPoint{Fe::zero(), Fe::one(), Fe::one(), Fe::zero()};
}

const EdPoint& EdPoint::base() {
  static const EdPoint b = [] {
    // Compressed generator: y = 4/5, sign(x) = 0.
    const auto pt = EdPoint::decompress(
        from_hex("5866666666666666666666666666666666666666666666666666666666666666"));
    if (!pt) throw std::logic_error("ed25519: failed to decompress base point");
    return *pt;
  }();
  return b;
}

EdPoint EdPoint::add(const EdPoint& o) const {
  // add-2008-hwcd-3 for a = -1 twisted Edwards, k = 2d.
  static const Fe k2d = fe_edwards_d() + fe_edwards_d();
  const Fe A = (Y - X) * (o.Y - o.X);
  const Fe B = (Y + X) * (o.Y + o.X);
  const Fe C = T * k2d * o.T;
  const Fe D = (Z * o.Z).mul_small(2);
  const Fe E = B - A;
  const Fe F = D - C;
  const Fe G = D + C;
  const Fe H = B + A;
  return EdPoint{E * F, G * H, F * G, E * H};
}

EdPoint EdPoint::dbl() const {
  // dbl-2008-hwcd for a = -1.
  const Fe A = X.square();
  const Fe B = Y.square();
  const Fe C = Z.square().mul_small(2);
  const Fe D = A.negate();
  const Fe E = (X + Y).square() - A - B;
  const Fe G = D + B;
  const Fe F = G - C;
  const Fe H = D - B;
  return EdPoint{E * F, G * H, F * G, E * H};
}

EdPoint EdPoint::negate() const { return EdPoint{X.negate(), Y, Z, T.negate()}; }

// Fixed 4-bit window, constant time (see ed25519.h): 63 positions of 4
// doublings and an unconditional add of a masked 16-way table select.
EdPoint EdPoint::scalar_mul(ByteView scalar32) const {
  if (scalar32.size() != 32)
    throw std::invalid_argument("scalar_mul: need 32-byte scalar");
  EdPoint table[16];  // table[d] = d * (*this)
  table[0] = identity();
  table[1] = *this;
  for (int d = 2; d < 16; ++d) table[d] = table[d - 1].add(*this);
  const auto lookup = [&](int w) {
    const u64 digit = (scalar32[w >> 1] >> (4 * (w & 1))) & 0x0f;
    EdPoint out = table[0];
    for (u64 d = 1; d < 16; ++d) {
      const u64 mask = 0 - (((d ^ digit) - 1) >> 63);  // all ones iff d == digit
      const auto blend = [mask](Fe& a, const Fe& b) {
        for (int i = 0; i < 5; ++i) a.v[i] ^= (a.v[i] ^ b.v[i]) & mask;
      };
      blend(out.X, table[d].X);
      blend(out.Y, table[d].Y);
      blend(out.Z, table[d].Z);
      blend(out.T, table[d].T);
    }
    return out;
  };
  EdPoint r = lookup(63);
  for (int w = 62; w >= 0; --w) r = r.dbl().dbl().dbl().dbl().add(lookup(w));
  return r;
}

FixedBytes<32> EdPoint::compress() const {
  const Fe zinv = Z.invert();
  const Fe x = X * zinv;
  const Fe y = Y * zinv;
  auto out = y.to_bytes();
  if (x.is_negative()) out[31] |= 0x80;
  return out;
}

std::optional<EdPoint> EdPoint::decompress(ByteView bytes32) {
  if (bytes32.size() != 32) return std::nullopt;
  const bool sign = (bytes32[31] & 0x80) != 0;
  const Fe y = Fe::from_bytes(bytes32);

  // Solve -x^2 + y^2 = 1 + d x^2 y^2  =>  x^2 = (y^2 - 1) / (d y^2 + 1).
  const Fe y2 = y.square();
  const Fe u = y2 - Fe::one();
  const Fe v = fe_edwards_d() * y2 + Fe::one();
  Fe x;
  if (!fe_sqrt_ratio(x, u, v)) return std::nullopt;

  if (x.is_zero() && sign) return std::nullopt;  // -0 is not a valid encoding
  if (x.is_negative() != sign) x = x.negate();

  return EdPoint{x, y, Fe::one(), x * y};
}

// ---- Signatures ------------------------------------------------------------

namespace {
struct ExpandedKey {
  std::uint8_t scalar[32];  // clamped lower half of SHA-512(seed)
  std::uint8_t prefix[32];  // upper half, the deterministic-nonce key
};

ExpandedKey expand(const Ed25519Seed& seed) {
  const auto h = Sha512::hash(seed.view());
  ExpandedKey out;
  std::memcpy(out.scalar, h.data.data(), 32);
  std::memcpy(out.prefix, h.data.data() + 32, 32);
  out.scalar[0] &= 248;
  out.scalar[31] &= 127;
  out.scalar[31] |= 64;
  return out;
}
}  // namespace

Ed25519KeyPair Ed25519KeyPair::from_seed(const Ed25519Seed& seed) {
  const ExpandedKey ek = expand(seed);
  const EdPoint A = EdPoint::base().scalar_mul(ByteView{ek.scalar, 32});
  return Ed25519KeyPair{seed, A.compress()};
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& kp, ByteView message) {
  const ExpandedKey ek = expand(kp.seed);

  const auto r_hash = Sha512::hash_concat({ByteView{ek.prefix, 32}, message});
  const auto r = sc_reduce64(r_hash.view());
  const auto R = EdPoint::base().scalar_mul(r.view()).compress();

  const auto k_hash =
      Sha512::hash_concat({R.view(), kp.public_key.view(), message});
  const auto k = sc_reduce64(k_hash.view());
  const auto S = sc_muladd(k.view(), ByteView{ek.scalar, 32}, r.view());

  Ed25519Signature sig;
  std::memcpy(sig.data.data(), R.data.data(), 32);
  std::memcpy(sig.data.data() + 32, S.data.data(), 32);
  return sig;
}

obs::Counter& ed25519_verify_calls() {
  static obs::Counter counter;
  return counter;
}

namespace {
// True iff p is the neutral element, for any projective representation.
// X = 0 forces affine x = 0, so p is (0, 1) or the order-2 point (0, -1);
// Y == Z picks out (0, 1) without paying compress()'s field inversion.
bool is_identity(const EdPoint& p) { return p.X.is_zero() && p.Y == p.Z; }

// [8]p via three doublings — maps any curve point into the prime-order
// subgroup (the full group is Z_L x Z_8).
EdPoint mul_cofactor(const EdPoint& p) { return p.dbl().dbl().dbl(); }

// True iff the low 255 bits of a little-endian field encoding are < p. For a
// point that decompresses, this is exactly "compress() reproduces the
// bytes", without compress()'s field inversion.
bool fe_encoding_canonical(ByteView b) {
  if ((b[31] & 0x7f) != 0x7f) return true;
  for (int i = 30; i > 0; --i)
    if (b[i] != 0xff) return true;
  return b[0] < 0xed;  // p = 2^255 - 19 ends in byte 0xed
}

// A signature past every check that needs no group arithmetic.
struct Decoded {
  EdPoint neg_A, neg_R;
  FixedBytes<32> k;  // H(R || A || M) mod L
};

// The decode step both verification paths share: canonical S, decodable A,
// canonically encoded and decodable R, then the challenge k.
std::optional<Decoded> decode(const Ed25519PublicKey& pk, ByteView message,
                              const Ed25519Signature& sig) {
  const ByteView r_bytes{sig.data.data(), 32};
  if (!sc_is_canonical(ByteView{sig.data.data() + 32, 32})) return std::nullopt;
  const auto A = EdPoint::decompress(pk.view());
  if (!A || !fe_encoding_canonical(r_bytes)) return std::nullopt;
  const auto R = EdPoint::decompress(r_bytes);
  if (!R) return std::nullopt;
  const auto k_hash = Sha512::hash_concat({r_bytes, pk.view(), message});
  return Decoded{A->negate(), R->negate(), sc_reduce64(k_hash.view())};
}

// One term [scalar]P of a multi-scalar product (scalar: 32 LE bytes).
struct MulTerm {
  const std::uint8_t* scalar;
  const EdPoint* point;
};

// sum_i [s_i]P_i by Straus' shared double-and-add over 4-bit windows: one
// accumulator, 4 doublings per window position shared by every term, and per
// term one addition from its table (table[d - 1] = dP) per nonzero base-16
// digit. Branches and table indices follow the scalars, so this is variable
// time: public scalars only (verification), never a secret.
EdPoint straus(std::span<const MulTerm> terms) {
  std::vector<std::array<EdPoint, 15>> tables(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    tables[i][0] = *terms[i].point;
    for (int d = 1; d < 15; ++d)
      tables[i][d] = tables[i][d - 1].add(*terms[i].point);
  }
  EdPoint acc = EdPoint::identity();
  for (int w = 63; w >= 0; --w) {
    acc = acc.dbl().dbl().dbl().dbl();
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const unsigned digit = (terms[i].scalar[w >> 1] >> (4 * (w & 1))) & 0x0f;
      if (digit != 0) acc = acc.add(tables[i][digit - 1]);
    }
  }
  return acc;
}

// Cofactored acceptance: [8]([S]B - [k]A - R) == identity. The [8] folds any
// small-order component of A or R out of the check, which makes the rule
// batchable: a random-linear-combination batch over the prime-order subgroup
// decides exactly this predicate (up to ~2^-128) for every input. The
// cofactorless rule does not batch soundly: for A with an 8-torsion component
// the batch term z*[k]T vanishes whenever z*k = 0 mod 8, which an adversary
// controlling the batch transcript can grind for in ~8 tries.
bool accepts(const Decoded& d, const Ed25519Signature& sig) {
  const MulTerm terms[2] = {{sig.data.data() + 32, &EdPoint::base()},
                            {d.k.data.data(), &d.neg_A}};
  return is_identity(mul_cofactor(straus(terms).add(d.neg_R)));
}
}  // namespace

bool ed25519_verify(const Ed25519PublicKey& pk, ByteView message,
                    const Ed25519Signature& sig) {
  ++ed25519_verify_calls();
  const auto d = decode(pk, message, sig);
  return d && accepts(*d, sig);
}

std::vector<bool> ed25519_verify_batch(const std::vector<VerifyItem>& items) {
  // A decode rejection settles its item, so it accounts one verification:
  // the counter reads the same whether a workload arrives through the batch
  // or the scalar path.
  std::vector<bool> out(items.size(), false);
  std::vector<std::pair<std::size_t, Decoded>> terms;
  terms.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (auto d = decode(*items[i].pk, items[i].message, *items[i].sig))
      terms.emplace_back(i, *d);
    else
      ++ed25519_verify_calls();
  }

  // Deterministic 128-bit coefficients z_i from a transcript of the whole
  // batch (R ‖ S ‖ pk ‖ H(msg) per item), so signatures fixed in advance
  // cannot steer them. The final [8] puts every term [8]([S_i]B - R_i -
  // [k_i]A_i) in the prime-order subgroup, where a nonzero term survives a
  // random 128-bit combination with probability ~2^-128: a batch holding any
  // cofactored-invalid signature fails it, whatever the transcript.
  if (terms.size() > 1) {
    Bytes transcript;
    for (const auto& [index, d] : terms) {
      const auto& it = items[index];
      const auto msg_hash = Sha512::hash(it.message);
      for (const ByteView part : {it.sig->view(), it.pk->view(), msg_hash.view()})
        transcript.insert(transcript.end(), part.begin(), part.end());
    }
    const auto seed = Sha512::hash(ByteView{transcript});

    // Combined equation: sum_i z_i * ([S_i]B - R_i - [k_i]A_i) == identity,
    // i.e. [sum z_i S_i mod L]B + sum [z_i](-R_i) + sum [z_i k_i mod L](-A_i).
    const FixedBytes<32> zero{};
    FixedBytes<32> s_sum = zero;
    std::vector<std::array<FixedBytes<32>, 2>> zk(terms.size());  // z_j, z_j k_j
    std::vector<MulTerm> muls;
    for (std::size_t j = 0; j < terms.size(); ++j) {
      std::uint8_t idx_le[8];
      for (int b = 0; b < 8; ++b)
        idx_le[b] = static_cast<std::uint8_t>(j >> (8 * b));
      const auto zh = Sha512::hash_concat({seed.view(), ByteView{idx_le, 8}});
      auto& [z, z_k] = zk[j];
      std::memcpy(z.data.data(), zh.data.data(), 16);  // 128-bit coefficient
      const auto& [index, d] = terms[j];
      s_sum = sc_muladd(z.view(), ByteView{items[index].sig->data.data() + 32, 32},
                        s_sum.view());
      z_k = sc_muladd(z.view(), d.k.view(), zero.view());
      muls.push_back({z.data.data(), &d.neg_R});
      muls.push_back({z_k.data.data(), &d.neg_A});
    }
    muls.push_back({s_sum.data.data(), &EdPoint::base()});
    if (is_identity(mul_cofactor(straus(muls)))) {
      ed25519_verify_calls() += terms.size();
      for (const auto& [index, d] : terms) out[index] = true;
      return out;
    }
  }

  // A lone signature, or a batch holding at least one bad one: settle each
  // item on its own, which identifies the corrupt positions.
  for (const auto& [index, d] : terms) {
    ++ed25519_verify_calls();
    out[index] = accepts(d, *items[index].sig);
  }
  return out;
}

}  // namespace biot::crypto
