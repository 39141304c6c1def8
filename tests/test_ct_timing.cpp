// dudect-style constant-time checks (Reparaz, Balasch and Verbauwhede, "Dude,
// is my code constant time?", DATE 2017). Each check times an operation on a
// fixed secret (the scalar 1) and on fresh random secrets, with the two
// classes interleaved in random order, drops every sample above the pooled
// 90th percentile (interrupts, migrations), and compares the class means
// with Welch's t-test. |t| < 10 is dudect's bar for "no leak detected".
//
// A test-local branchy double-and-add, which leaks its scalar's Hamming
// weight, must land far above that bar: it shows the measurement has the
// power to see a real leak on the machine running it. The binary is labelled
// `timing` and runs serially, so no other test competes for the CPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "crypto/csprng.h"
#include "crypto/ed25519.h"

namespace biot::crypto {
namespace {

using Secret = FixedBytes<32>;

template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Welch's t between the timings of `op` on the fixed secret and on random
// secrets. `op(secret)` runs once per sample; samples are pre-generated so
// the timed loop does nothing but call it.
template <class Op>
double fixed_vs_random_t(std::size_t samples, std::uint64_t seed, Op op) {
  Csprng rng(seed);
  Secret fixed{};
  fixed[0] = 1;
  std::vector<Secret> secrets(samples);
  std::vector<bool> is_random(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    is_random[i] = (rng.fixed<1>()[0] & 1) != 0;
    secrets[i] = is_random[i] ? rng.fixed<32>() : fixed;
  }

  using Clock = std::chrono::steady_clock;
  std::vector<double> ns(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    op(secrets[i]);
    ns[i] = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  }

  std::vector<double> sorted = ns;
  const auto p90 = sorted.begin() + static_cast<std::ptrdiff_t>(samples * 9 / 10);
  std::nth_element(sorted.begin(), p90, sorted.end());
  double n[2] = {0, 0}, sum[2] = {0, 0}, sum_sq[2] = {0, 0};
  for (std::size_t i = 0; i < samples; ++i) {
    if (ns[i] > *p90) continue;
    const int c = is_random[i] ? 1 : 0;
    n[c] += 1;
    sum[c] += ns[i];
    sum_sq[c] += ns[i] * ns[i];
  }
  double mean[2], var[2];
  for (int c = 0; c < 2; ++c) {
    mean[c] = sum[c] / n[c];
    var[c] = (sum_sq[c] - n[c] * mean[c] * mean[c]) / (n[c] - 1);
  }
  return (mean[0] - mean[1]) / std::sqrt(var[0] / n[0] + var[1] / n[1]);
}

constexpr double kLeakBar = 10.0;

TEST(ConstantTime, ScalarMulDoesNotLeakTheScalar) {
  const EdPoint& base = EdPoint::base();
  const double t = fixed_vs_random_t(
      10000, 1, [&](const Secret& s) { keep(base.scalar_mul(s.view())); });
  RecordProperty("t", std::to_string(t));
  EXPECT_LT(std::abs(t), kLeakBar) << "t = " << t;
}

TEST(ConstantTime, ScalarMulAddDoesNotLeakTheSecretOperand) {
  // Signing computes S = k*a + r mod L with the secret scalar a; one sample
  // is 32 calls, which lifts it well above the clock's resolution.
  Csprng rng(2);
  const auto k = rng.fixed<32>();
  const auto r = rng.fixed<32>();
  const double t = fixed_vs_random_t(10000, 3, [&](const Secret& a) {
    for (int rep = 0; rep < 32; ++rep) keep(sc_muladd(k.view(), a.view(), r.view()));
  });
  RecordProperty("t", std::to_string(t));
  EXPECT_LT(std::abs(t), kLeakBar) << "t = " << t;
}

// MSB-first double-and-add that adds only on set bits.
EdPoint leaky_scalar_mul(const EdPoint& p, const Secret& s) {
  EdPoint r = EdPoint::identity();
  for (int bit = 255; bit >= 0; --bit) {
    r = r.dbl();
    if ((s[bit >> 3] >> (bit & 7)) & 1) r = r.add(p);
  }
  return r;
}

TEST(ConstantTime, BranchyLadderIsCaught) {
  const EdPoint& base = EdPoint::base();
  const double t = fixed_vs_random_t(
      2000, 4, [&](const Secret& s) { keep(leaky_scalar_mul(base, s)); });
  RecordProperty("t", std::to_string(t));
  EXPECT_GT(std::abs(t), kLeakBar) << "t = " << t;
}

}  // namespace
}  // namespace biot::crypto
