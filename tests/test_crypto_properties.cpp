// Deeper algebraic property sweeps over the from-scratch crypto: field and
// scalar arithmetic laws, group-structure identities, cipher involutions.
// These are the properties the RFC vectors alone cannot establish.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/aes_modes.h"
#include "crypto/csprng.h"
#include "crypto/ed25519.h"
#include "crypto/field25519.h"
#include "crypto/hmac.h"
#include "crypto/x25519.h"

namespace biot::crypto {
namespace {

Fe random_fe(Csprng& rng) {
  Bytes b = rng.bytes(32);
  b[31] &= 0x7f;
  return Fe::from_bytes(b);
}

FixedBytes<32> random_scalar(Csprng& rng) {
  // Reduce a 64-byte draw so the scalar is canonical (< L).
  return sc_reduce64(rng.bytes(64));
}

class FieldLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FieldLaws, RingAxiomsHold) {
  Csprng rng(GetParam());
  const Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);

  // Addition: commutative, associative, identity, inverse.
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + Fe::zero(), a);
  EXPECT_EQ(a + a.negate(), Fe::zero());

  // Multiplication: commutative, associative, identity.
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * Fe::one(), a);

  // Distributivity both ways.
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ((a + b) * c, a * c + b * c);

  // Square agrees with self-product; double negation is identity.
  EXPECT_EQ(a.square(), a * a);
  EXPECT_EQ(a.negate().negate(), a);
}

TEST_P(FieldLaws, InversionAndSqrtConsistency) {
  Csprng rng(GetParam() ^ 0xf00d);
  const Fe a = random_fe(rng);
  if (!a.is_zero()) {
    EXPECT_EQ(a * a.invert(), Fe::one());
    EXPECT_EQ(a.invert().invert(), a);
  }
  // Any square has a root recoverable through fe_sqrt_ratio(sq, 1).
  const Fe sq = a.square();
  Fe root;
  ASSERT_TRUE(fe_sqrt_ratio(root, sq, Fe::one()));
  EXPECT_TRUE(root == a || root == a.negate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldLaws,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class ScalarLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarLaws, MulAddAlgebra) {
  Csprng rng(GetParam());
  const auto a = random_scalar(rng);
  const auto b = random_scalar(rng);
  const auto c = random_scalar(rng);
  const Bytes zero(32, 0);
  Bytes one(32, 0);
  one[0] = 1;

  // a*b == b*a (via muladd with zero addend).
  EXPECT_EQ(sc_muladd(a.view(), b.view(), zero),
            sc_muladd(b.view(), a.view(), zero));
  // (a*b)*c == a*(b*c).
  const auto ab = sc_muladd(a.view(), b.view(), zero);
  const auto bc = sc_muladd(b.view(), c.view(), zero);
  EXPECT_EQ(sc_muladd(ab.view(), c.view(), zero),
            sc_muladd(a.view(), bc.view(), zero));
  // a*1 + 0 == a, and reduction idempotence.
  EXPECT_EQ(sc_muladd(a.view(), one, zero), a);
  Bytes widened = a.bytes();
  widened.resize(64, 0);
  EXPECT_EQ(sc_reduce64(widened), a);
  // a*b + c is canonical.
  EXPECT_TRUE(sc_is_canonical(sc_muladd(a.view(), b.view(), c.view()).view()));
}

TEST_P(ScalarLaws, GroupHomomorphism) {
  // [a+b]B == [a]B + [b]B — scalar multiplication respects addition.
  Csprng rng(GetParam() ^ 0xbeef);
  const auto a = random_scalar(rng);
  const auto b = random_scalar(rng);
  Bytes one(32, 0);
  one[0] = 1;
  const auto sum = sc_muladd(a.view(), one, b.view());  // a + b mod L

  const auto& B = EdPoint::base();
  const auto lhs = B.scalar_mul(sum.view()).compress();
  const auto rhs = B.scalar_mul(a.view()).add(B.scalar_mul(b.view())).compress();
  EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalarLaws, ::testing::Values(7, 11, 19, 42));

// Reference arithmetic mod L, one bit at a time: r = 2r + bit, then r - L
// when r >= L. Values are 33 little-endian bytes, enough for anything < 2L.
using Wide = std::array<std::uint8_t, 33>;

Wide wide_l() {
  Wide l{};
  const Bytes lb = from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::copy(lb.begin(), lb.end(), l.begin());
  return l;
}

// r = (r + y) mod L for r, y < L.
void ref_add_mod(Wide& r, const Wide& y) {
  unsigned carry = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    carry += r[i] + y[i];
    r[i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  const Wide l = wide_l();
  if (!std::lexicographical_compare(r.rbegin(), r.rend(), l.rbegin(), l.rend())) {
    int borrow = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const int d = r[i] - l[i] - borrow;
      r[i] = static_cast<std::uint8_t>(d);
      borrow = d < 0 ? 1 : 0;
    }
  }
}

// sum over the bits of `bits` (MSB first) of bit * unit * 2^position, mod L.
Wide ref_mul_mod(ByteView bits, const Wide& unit) {
  Wide r{};
  for (std::size_t bit = bits.size() * 8; bit-- > 0;) {
    const Wide twice = r;
    ref_add_mod(r, twice);
    if ((bits[bit / 8] >> (bit % 8)) & 1) ref_add_mod(r, unit);
  }
  return r;
}

Wide ref_reduce(ByteView x) {
  Wide one{};
  one[0] = 1;
  return ref_mul_mod(x, one);
}

FixedBytes<32> narrow(const Wide& w) {
  EXPECT_EQ(w[32], 0);
  FixedBytes<32> out;
  std::copy(w.begin(), w.begin() + 32, out.data.begin());
  return out;
}

Bytes le_bytes(const Wide& w, std::size_t n) {
  Bytes out(n, 0);
  std::copy(w.begin(), w.begin() + std::min(n, w.size()), out.begin());
  return out;
}

std::vector<Bytes> scalar_edges(std::size_t n) {
  Wide l = wide_l(), l_minus_1 = wide_l(), two_l = wide_l();
  l_minus_1[0] -= 1;  // L ends in 0xed, so no borrow
  unsigned carry = 0;
  for (std::size_t i = 0; i < two_l.size(); ++i) {
    carry += 2u * l[i];
    two_l[i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  return {Bytes(n, 0), le_bytes(l_minus_1, n), le_bytes(l, n),
          le_bytes(two_l, n), Bytes(n, 0xff)};
}

TEST(ScalarReduction, Reduce64MatchesShiftSubtractReference) {
  std::vector<Bytes> inputs = scalar_edges(64);  // 0, L-1, L, 2L, 2^512-1
  Csprng rng(512);
  for (int i = 0; i < 200; ++i) inputs.push_back(rng.bytes(64));
  for (const auto& x : inputs)
    EXPECT_EQ(sc_reduce64(x), narrow(ref_reduce(x))) << to_hex(x);
}

TEST(ScalarReduction, MulAddMatchesShiftSubtractReference) {
  std::vector<Bytes> values = scalar_edges(32);  // 0, L-1, L, 2L, 2^256-1
  Csprng rng(256);
  for (int i = 0; i < 6; ++i) values.push_back(rng.bytes(32));
  for (const auto& a : values)
    for (const auto& b : values)
      for (const auto& c : values) {
        Wide want = ref_mul_mod(a, ref_reduce(b));
        ref_add_mod(want, ref_reduce(c));
        EXPECT_EQ(sc_muladd(a, b, c), narrow(want))
            << to_hex(a) << " " << to_hex(b) << " " << to_hex(c);
      }
}

TEST(EdPointProps, CompressDecompressIsIdentityOnRandomPoints) {
  Csprng rng(99);
  for (int i = 0; i < 10; ++i) {
    const auto k = random_scalar(rng);
    const auto p = EdPoint::base().scalar_mul(k.view());
    const auto enc = p.compress();
    const auto back = EdPoint::decompress(enc.view());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->compress(), enc);
  }
}

TEST(EdPointProps, MixedScalarDoubleAddConsistency) {
  // [2k]B == dbl([k]B) == [k]B + [k]B for random k.
  Csprng rng(101);
  const auto k = random_scalar(rng);
  Bytes two(32, 0);
  two[0] = 2;
  const Bytes zero(32, 0);
  const auto k2 = sc_muladd(k.view(), two, zero);
  const auto kB = EdPoint::base().scalar_mul(k.view());
  EXPECT_EQ(EdPoint::base().scalar_mul(k2.view()).compress(),
            kB.dbl().compress());
  EXPECT_EQ(kB.add(kB).compress(), kB.dbl().compress());
}

TEST(X25519Props, ScalarMulIsGroupActionOnBasepoint) {
  // DH consistency for chains: x25519(a, x25519(b, G)) == x25519(b, x25519(a, G)).
  Csprng rng(103);
  for (int i = 0; i < 5; ++i) {
    const auto a = rng.fixed<32>();
    const auto b = rng.fixed<32>();
    FixedBytes<32> g{};
    g[0] = 9;
    EXPECT_EQ(x25519(a, x25519(b, g)), x25519(b, x25519(a, g)));
  }
}

TEST(AesProps, DecryptInvertsEncryptForAllKeySizes) {
  Csprng rng(105);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const Bytes key = rng.bytes(key_len);
    const Aes aes(key);
    for (int i = 0; i < 20; ++i) {
      const Bytes pt = rng.bytes(16);
      std::uint8_t ct[16], back[16];
      aes.encrypt_block(pt.data(), ct);
      aes.decrypt_block(ct, back);
      EXPECT_TRUE(ct_equal(ByteView{back, 16}, pt));
      // Non-degenerate: ciphertext differs from plaintext.
      EXPECT_FALSE(ct_equal(ByteView{ct, 16}, pt));
    }
  }
}

TEST(AesProps, DistinctKeysGiveDistinctStreams) {
  Csprng rng(106);
  const Bytes nonce = rng.bytes(16);
  const Bytes zeros(256, 0);
  std::set<Bytes> streams;
  for (int i = 0; i < 10; ++i) {
    const Aes aes(rng.bytes(32));
    streams.insert(aes_ctr_xor(aes, nonce, zeros));
  }
  EXPECT_EQ(streams.size(), 10u);
}

TEST(HkdfProps, OutputsAreIndependentAcrossInfo) {
  Csprng rng(107);
  const Bytes ikm = rng.bytes(32);
  const auto a = hkdf({}, ikm, to_bytes("context-a"), 32);
  const auto b = hkdf({}, ikm, to_bytes("context-b"), 32);
  EXPECT_NE(a, b);
  // Prefix property: a longer expansion starts with the shorter one.
  const auto long_out = hkdf({}, ikm, to_bytes("context-a"), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), long_out.begin()));
}

TEST(SignatureProps, SignaturesAreContextBound) {
  // Same message signed by N keys: all verify only under their own key.
  Csprng rng(108);
  const Bytes msg = to_bytes("shared message");
  std::vector<Ed25519KeyPair> keys;
  std::vector<Ed25519Signature> sigs;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(Ed25519KeyPair::from_seed(rng.fixed<32>()));
    sigs.push_back(ed25519_sign(keys.back(), msg));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      EXPECT_EQ(ed25519_verify(keys[i].public_key, msg, sigs[j]), i == j);
    }
  }
}

}  // namespace
}  // namespace biot::crypto
