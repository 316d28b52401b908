// Tests for the 1D FFT engine: all execution styles against the dense
// reference, analytic DFT properties, and parameterised size sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fft/reference.h"
#include "fft1d/fft1d.h"
#include "kernels/isa.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

cvec reference_fft(const cvec& x, Direction dir) {
  cvec y(x.size());
  reference_dft_1d(x.data(), y.data(), static_cast<idx_t>(x.size()), dir);
  return y;
}

class Fft1dSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(Fft1dSizes, BatchMatchesReference) {
  const idx_t n = GetParam();
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 100 + n);
  auto want = reference_fft(x, Direction::Forward);
  cvec got = x;
  plan.apply_batch(got.data(), 1);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n))) << "n=" << n;
}

TEST_P(Fft1dSizes, InverseMatchesReference) {
  const idx_t n = GetParam();
  Fft1d plan(n, Direction::Inverse);
  auto x = random_cvec(n, 200 + n);
  auto want = reference_fft(x, Direction::Inverse);
  cvec got = x;
  plan.apply_batch(got.data(), 1);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

TEST_P(Fft1dSizes, ForwardInverseRoundTrip) {
  const idx_t n = GetParam();
  Fft1d fwd(n, Direction::Forward), inv(n, Direction::Inverse);
  auto x = random_cvec(n, 300 + n);
  cvec y = x;
  fwd.apply_batch(y.data(), 1);
  inv.apply_batch(y.data(), 1);
  inv.scale_inverse(y.data(), n);
  EXPECT_LT(max_err(x, y), fft_tol(static_cast<double>(n)));
}

// Every size whose prime factors are <= 13 runs the Stockham schedule:
// powers of two with radices 16/8/4/2, 7-smooth sizes (3 ... 1000) with
// 8/7/6/5/4/3/2, and 22, 26, 143, 176 with 11/13 levels too. 17, 31, 34
// and 1009 have a prime factor above 13 and take the Bluestein chirp-z
// path; 1 is the no-op edge.
INSTANTIATE_TEST_SUITE_P(
    AllPaths, Fft1dSizes,
    ::testing::Values<idx_t>(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17,
                             18, 20, 22, 24, 26, 30, 31, 32, 34, 36, 48, 60,
                             64, 100, 120, 128, 143, 144, 176, 210, 240, 256,
                             360, 1000, 1009, 1024));

// No Stockham plan stages its result in scratch: the last level always
// writes the caller's tile, and only a q == 1 last level (odd level
// count) writes in place.
TEST_P(Fft1dSizes, LastLevelWritesTheTile) {
  const idx_t n = GetParam();
  const std::vector<bool> targets = Fft1d(n, Direction::Forward).stockham_targets();
  if (targets.empty()) return;  // n == 1 and Bluestein sizes: no levels
  EXPECT_TRUE(targets.back()) << "n=" << n;
  for (std::size_t i = 0; i + 1 < targets.size(); ++i) {
    EXPECT_EQ(i % 2 == 1, targets[i]) << "n=" << n << " level " << i;
  }
}

// Larger one-lane sizes: three-level plans (the last level runs in
// place) whose level 0 runs the unit-stride codelet over q = 128 and 256
// packets.
TEST(Fft1d, LargeOneLaneSizesMatchReference) {
  for (idx_t n : {idx_t{2048}, idx_t{4096}}) {
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      Fft1d plan(n, dir);
      auto x = random_cvec(n, static_cast<unsigned>(400 + n));
      cvec got = x;
      plan.apply_batch(got.data(), 1);
      EXPECT_LT(max_err(reference_fft(x, dir), got),
                fft_tol(static_cast<double>(n)))
          << "n=" << n;
    }
  }
}

TEST(Fft1d, RoundTrip32768) {
  const idx_t n = 32768;
  Fft1d fwd(n, Direction::Forward), inv(n, Direction::Inverse);
  auto x = random_cvec(n, 500);
  cvec y = x;
  fwd.apply_batch(y.data(), 1);
  inv.apply_batch(y.data(), 1);
  inv.scale_inverse(y.data(), n);
  EXPECT_LT(max_err(x, y), fft_tol(static_cast<double>(n)));
}

TEST(Fft1d, BatchTransformsEachPencilIndependently) {
  const idx_t n = 16, count = 5;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * count, 42);
  cvec got = x;
  plan.apply_batch(got.data(), count);
  for (idx_t t = 0; t < count; ++t) {
    cvec pencil(x.begin() + t * n, x.begin() + (t + 1) * n);
    auto want = reference_fft(pencil, Direction::Forward);
    cvec gp(got.begin() + t * n, got.begin() + (t + 1) * n);
    EXPECT_LT(max_err(want, gp), fft_tol(16.0)) << "pencil " << t;
  }
}

class Fft1dLanes : public ::testing::TestWithParam<std::tuple<idx_t, idx_t>> {};

TEST_P(Fft1dLanes, LanesTransformEachLanePencil) {
  const auto [n, lanes] = GetParam();
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * lanes, 77);
  cvec got = x;
  plan.apply_lanes(got.data(), lanes, 1);
  for (idx_t l = 0; l < lanes; ++l) {
    cvec pencil(static_cast<std::size_t>(n));
    for (idx_t j = 0; j < n; ++j) pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * lanes + l)];
    auto want = reference_fft(pencil, Direction::Forward);
    for (idx_t j = 0; j < n; ++j) {
      EXPECT_NEAR(0.0,
                  std::abs(want[static_cast<std::size_t>(j)] -
                           got[static_cast<std::size_t>(j * lanes + l)]),
                  fft_tol(static_cast<double>(n)))
          << "n=" << n << " lane " << l << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LaneShapes, Fft1dLanes,
    ::testing::Combine(::testing::Values<idx_t>(2, 4, 8, 32, 128),
                       ::testing::Values<idx_t>(1, 2, 4, 8)));

// Smooth sizes run the same batched Stockham tile across all lanes at once.
INSTANTIATE_TEST_SUITE_P(
    SmoothLaneShapes, Fft1dLanes,
    ::testing::Combine(::testing::Values<idx_t>(12, 60, 360),
                       ::testing::Values<idx_t>(4, 8)));

// Every mixed-radix size through the batched lanes path, one cacheline
// packet of lanes, both directions.
class MixedRadixSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(MixedRadixSizes, MatchesReference) {
  const idx_t n = GetParam(), lanes = kMu;
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    Fft1d plan(n, dir);
    auto x = random_cvec(n * lanes, 6500 + n);
    cvec got = x;
    plan.apply_lanes(got.data(), lanes, 1);
    for (idx_t l = 0; l < lanes; ++l) {
      cvec pencil(static_cast<std::size_t>(n)), out(pencil.size());
      for (idx_t j = 0; j < n; ++j) {
        pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * lanes + l)];
        out[static_cast<std::size_t>(j)] = got[static_cast<std::size_t>(j * lanes + l)];
      }
      EXPECT_LT(max_err(reference_fft(pencil, dir), out),
                fft_tol(static_cast<double>(n)))
          << "n=" << n << " lane " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmoothSizes, MixedRadixSizes,
                         ::testing::Values<idx_t>(12, 18, 20, 24, 30, 36, 48,
                                                  60, 100, 120, 144, 210, 240,
                                                  360, 1000));

TEST(Fft1d, StridedInplaceMatchesBatch) {
  const idx_t n = 64, stride = 5;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * stride, 7);
  cvec strided = x;
  plan.apply_strided_inplace(strided.data(), stride);
  cvec pencil(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * stride)];
  plan.apply_batch(pencil.data(), 1);
  for (idx_t j = 0; j < n; ++j) {
    EXPECT_NEAR(0.0,
                std::abs(pencil[static_cast<std::size_t>(j)] -
                         strided[static_cast<std::size_t>(j * stride)]),
                fft_tol(64.0));
    // Elements between strides must be untouched.
    for (idx_t o = 1; o < stride; ++o) {
      EXPECT_EQ(x[static_cast<std::size_t>(j * stride + o)],
                strided[static_cast<std::size_t>(j * stride + o)]);
    }
  }
}

TEST(Fft1d, StridedLanesMatchesGather) {
  const idx_t n = 32, lanes = 4, row_stride = 20;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * row_stride, 8);
  cvec got = x;
  plan.apply_lanes_strided(got.data(), lanes, row_stride);
  for (idx_t l = 0; l < lanes; ++l) {
    cvec pencil(static_cast<std::size_t>(n));
    for (idx_t j = 0; j < n; ++j) pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * row_stride + l)];
    plan.apply_batch(pencil.data(), 1);
    for (idx_t j = 0; j < n; ++j) {
      EXPECT_NEAR(0.0,
                  std::abs(pencil[static_cast<std::size_t>(j)] -
                           got[static_cast<std::size_t>(j * row_stride + l)]),
                  fft_tol(32.0));
    }
  }
}

TEST(Fft1d, ScalarPathMatchesVectorPath) {
  for (idx_t n : {idx_t{256}, idx_t{360}, idx_t{4096}, idx_t{32768}}) {
    auto x = random_cvec(n, 9);
    Fft1d plan(n, Direction::Forward);
    cvec vec_result = x;
    plan.apply_batch(vec_result.data(), 1);
    kernels::set_isa_override(kernels::Isa::Scalar);
    cvec scal_result = x;
    plan.apply_batch(scal_result.data(), 1);
    kernels::set_isa_override(kernels::Isa::Auto);
    EXPECT_LT(max_err(vec_result, scal_result), 1e-13) << "n=" << n;
  }
}

// Linearity: F(a x + b y) = a F(x) + b F(y).
TEST(Fft1d, Linearity) {
  const idx_t n = 128;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 10);
  auto y = random_cvec(n, 11);
  const cplx a(0.3, -1.2), b(2.0, 0.5);
  cvec mix(static_cast<std::size_t>(n));
  for (idx_t i = 0; i < n; ++i) mix[static_cast<std::size_t>(i)] = a * x[static_cast<std::size_t>(i)] + b * y[static_cast<std::size_t>(i)];
  plan.apply_batch(mix.data(), 1);
  cvec fx = x, fy = y;
  plan.apply_batch(fx.data(), 1);
  plan.apply_batch(fy.data(), 1);
  for (idx_t i = 0; i < n; ++i) {
    const cplx want = a * fx[static_cast<std::size_t>(i)] + b * fy[static_cast<std::size_t>(i)];
    EXPECT_NEAR(0.0, std::abs(want - mix[static_cast<std::size_t>(i)]), fft_tol(128.0));
  }
}

// Parseval: sum |x|^2 = (1/n) sum |X|^2.
TEST(Fft1d, Parseval) {
  const idx_t n = 512;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 12);
  double in_energy = 0.0;
  for (const auto& v : x) in_energy += std::norm(v);
  plan.apply_batch(x.data(), 1);
  double out_energy = 0.0;
  for (const auto& v : x) out_energy += std::norm(v);
  EXPECT_NEAR(in_energy, out_energy / static_cast<double>(n),
              1e-10 * in_energy);
}

// Shift theorem: x[(j+s) mod n] <-> X[k] * w^{-ks}.
TEST(Fft1d, ShiftTheorem) {
  const idx_t n = 64, s = 5;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 13);
  cvec shifted(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) shifted[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>((j + s) % n)];
  cvec fx = x;
  plan.apply_batch(fx.data(), 1);
  plan.apply_batch(shifted.data(), 1);
  for (idx_t k = 0; k < n; ++k) {
    // Y[k] = X[k] * e^{+2 pi i k s / n} for a left shift by s.
    const cplx w = root_of_unity(n, (k * s) % n, Direction::Inverse);
    EXPECT_NEAR(0.0,
                std::abs(shifted[static_cast<std::size_t>(k)] -
                         fx[static_cast<std::size_t>(k)] * w),
                fft_tol(64.0))
        << k;
  }
}

TEST(Fft1d, RejectsInvalidSizes) {
  EXPECT_THROW(Fft1d(0, Direction::Forward), Error);
  Fft1d plan(12, Direction::Forward);  // non-pow2
  cvec x(12);
  EXPECT_THROW(plan.apply_strided_inplace(x.data(), 1), Error);
}

}  // namespace
}  // namespace bwfft
