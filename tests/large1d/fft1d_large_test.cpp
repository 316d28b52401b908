// Tests for Fft1dLarge, the tuned four-step engine for out-of-LLC 1D
// transforms (docs/INTERNALS.md §15), and its four-step SPL
// specification. Large sizes are checked against the flat Stockham pass
// (itself dense-oracle-verified in fft1d_test); small sizes run with a
// tiny block so both passes still tile and pipeline, and are checked
// against the dense oracle or the spl::dft1d_four_step specification the
// engine implements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "common/error.h"
#include "common/rng.h"
#include "fft/reference.h"
#include "fft1d/fft1d.h"
#include "fft1d/large.h"
#include "obs/obs.h"
#include "spl/algorithms.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

/// Oracle for sizes where the dense O(n^2) reference is unusable: one
/// flat Fft1d pass (Stockham, or Bluestein for primes) over the array.
cvec stockham_oracle(const cvec& x, Direction dir = Direction::Forward) {
  cvec want = x;
  Fft1d flat(static_cast<idx_t>(x.size()), dir);
  flat.apply_batch(want.data(), 1);
  return want;
}

FftOptions large_opts(int threads) {
  FftOptions o;
  o.threads = threads;
  return o;
}

/// Options whose row-pass block holds exactly one group of 16 rows: the
/// shape the default block policy yields from 2^22 to 2^26, pinned here
/// so it does not depend on the host's LLC.
FftOptions one_row_group_opts(idx_t n, int threads) {
  FftOptions o = large_opts(threads);
  o.block_elems = 16 * Fft1dLarge::choose_factors(n, 0).second;
  return o;
}

/// Options with a 512-element (8 KiB) block: small sizes still tile into
/// several pipeline steps.
FftOptions small_block_opts(int threads) {
  FftOptions o = large_opts(threads);
  o.block_elems = 512;
  return o;
}

TEST(FourStepSpl, EqualsDenseDft) {
  for (auto [a, b] : {std::pair<idx_t, idx_t>{4, 4}, {4, 8}, {8, 4}, {3, 5}}) {
    auto got = spl::dft1d_four_step(a, b);
    EXPECT_LT(spl::max_abs_diff(*got, *spl::dft(a * b)), 1e-10)
        << a << "x" << b;
  }
}

class Fft1dLargeSmallSizes
    : public ::testing::TestWithParam<std::tuple<idx_t, int>> {};

TEST_P(Fft1dLargeSmallSizes, MatchesReference) {
  const auto [n, threads] = GetParam();
  auto x = random_cvec(n, 8500 + n);
  cvec want(x.size());
  reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
  Fft1dLarge plan(n, Direction::Forward, small_block_opts(threads));
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
      << "n=" << n << " threads=" << threads << " n1=" << plan.factor_n1();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Fft1dLargeSmallSizes,
    ::testing::Combine(::testing::Values<idx_t>(16, 64, 256, 512, 4096),
                       ::testing::Values(1, 2, 4)));

TEST(Fft1dLarge, LargerThanBufferSize) {
  // n far exceeds the configured block: both passes must tile and
  // pipeline (the paper's future-work case: the 1D FFT does not fit the
  // shared buffer).
  const idx_t n = 1 << 16;
  FftOptions o = small_block_opts(4);
  o.block_elems = 2048;  // 32 KiB halves << 1 MiB problem
  auto x = random_cvec(n, 8600);
  Fft1dLarge plan(n, Direction::Forward, o);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(stockham_oracle(x), got),
            fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, InverseRoundTrip) {
  const idx_t n = 1024;
  auto x = random_cvec(n, 8700);
  FftOptions io = small_block_opts(2);
  io.normalize_inverse = true;
  Fft1dLarge fwd(n, Direction::Forward, small_block_opts(2));
  Fft1dLarge inv(n, Direction::Inverse, io);
  cvec a = x, b(x.size()), c(x.size());
  fwd.execute(a.data(), b.data());
  inv.execute(b.data(), c.data());
  EXPECT_LT(max_err(x, c), fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, SplitIsNearSquare) {
  Fft1dLarge p1(1 << 10, Direction::Forward, small_block_opts(1));
  EXPECT_EQ(32, p1.factor_n1());
  EXPECT_EQ(32, p1.factor_n2());
  Fft1dLarge p2(1 << 11, Direction::Forward, small_block_opts(1));
  EXPECT_EQ(32, p2.factor_n1());
  EXPECT_EQ(64, p2.factor_n2());
}

TEST(Fft1dLarge, SmallAndNonPow2SizesPlan) {
  // Composite sizes split (factors need not be powers of two), so
  // 12 = 3*4 and 8 = 2*4 both plan and match the dense oracle.
  for (idx_t n : {idx_t{8}, idx_t{12}, idx_t{3 * 64}}) {
    auto x = random_cvec(n, 8800 + n);
    cvec want(x.size());
    reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
    Fft1dLarge plan(n, Direction::Forward, small_block_opts(1));
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "n=" << n;
  }
}

TEST(Fft1dLarge, RejectsMisfitFactor) {
  FftOptions o = small_block_opts(1);
  o.factor_n1 = 5;  // does not divide 64
  EXPECT_THROW(Fft1dLarge(64, Direction::Forward, o), Error);
}

TEST(Fft1dLarge, HonoursRequestedFactor) {
  const idx_t n = 1 << 12;
  FftOptions o = small_block_opts(2);
  o.factor_n1 = 16;  // non-square split by request
  Fft1dLarge plan(n, Direction::Forward, o);
  EXPECT_EQ(16, plan.factor_n1());
  EXPECT_EQ(n / 16, plan.factor_n2());
  auto x = random_cvec(n, 8900);
  cvec want(x.size());
  reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

class Fft1dLargeSizes : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dLargeSizes, ForwardMatchesStockham) {
  const idx_t n = idx_t{1} << GetParam();
  auto x = random_cvec(n, 9500 + GetParam());
  const cvec want = stockham_oracle(x);
  Fft1dLarge plan(n, Direction::Forward, large_opts(1));
  EXPECT_GT(plan.factor_n1(), 1) << "expected a real split at n=" << n;
  EXPECT_EQ(n, plan.factor_n1() * plan.factor_n2());
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
      << "n=2^" << GetParam() << " n1=" << plan.factor_n1();
}

// 2^18 (LLC-resident) through 2^24 (the out-of-LLC regime the engine
// exists for). 2^24 is 268 MiB per array — still fine on CI runners.
INSTANTIATE_TEST_SUITE_P(Sweep, Fft1dLargeSizes,
                         ::testing::Values(18, 20, 22, 24));

TEST(Fft1dLarge, InverseRoundTripNormalized) {
  // The 1/n scale rides the row-pass compute task, so with several
  // compute threads each one scales only its own share of the rows.
  for (auto [log_n, threads] : {std::pair<int, int>{20, 1}, {22, 4}}) {
    const idx_t n = idx_t{1} << log_n;
    auto x = random_cvec(n, 9510 + log_n);
    FftOptions io = large_opts(threads);
    io.normalize_inverse = true;
    Fft1dLarge fwd(n, Direction::Forward, large_opts(threads));
    Fft1dLarge inv(n, Direction::Inverse, io);
    cvec a = x, b(x.size()), c(x.size());
    fwd.execute(a.data(), b.data());
    inv.execute(b.data(), c.data());
    EXPECT_LT(max_err(x, c), fft_tol(static_cast<double>(n)))
        << "n=2^" << log_n << " threads=" << threads;
  }
}

TEST(Fft1dLarge, NonSquareRequestedFactorMatches) {
  // A deliberately skewed split (n1 = 64, n2 = 4096): the tuner's factor
  // axis must be free to pick shapes far from sqrt(n).
  const idx_t n = idx_t{1} << 18;
  FftOptions o = large_opts(1);
  o.factor_n1 = 64;
  Fft1dLarge plan(n, Direction::Forward, o);
  EXPECT_EQ(64, plan.factor_n1());
  EXPECT_EQ(n / 64, plan.factor_n2());
  auto x = random_cvec(n, 9520);
  const cvec want = stockham_oracle(x);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, OddRadixFactorizationMatches) {
  // n = 3 * 2^16: neither factor axis is forced to a power of two — the
  // default split and a requested odd n1 both have to work.
  const idx_t n = 3 * (idx_t{1} << 16);
  auto x = random_cvec(n, 9530);
  const cvec want = stockham_oracle(x);
  for (idx_t req : {idx_t{0}, idx_t{3 * 64}}) {
    FftOptions o = large_opts(1);
    o.factor_n1 = req;
    Fft1dLarge plan(n, Direction::Forward, o);
    EXPECT_EQ(n, plan.factor_n1() * plan.factor_n2());
    if (req > 0) {
      EXPECT_EQ(req, plan.factor_n1());
    }
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "requested n1=" << req;
  }
}

TEST(Fft1dLarge, MultiThreadedPipelineMatches) {
  // The TSan target: both tiled passes pipeline load/compute/store
  // across a pinned team. Any missing hand-off fence shows up here. The
  // one-group blocks make the data threads split each row-pass block by
  // columns (load and store alike), and the 3 + 1 split gives the
  // compute threads unequal shares of its 16 rows.
  const idx_t n = idx_t{1} << 20;
  auto x = random_cvec(n, 9540);
  const cvec want = stockham_oracle(x);
  FftOptions three_compute = one_row_group_opts(n, 4);
  three_compute.compute_threads = 3;
  const std::pair<const char*, FftOptions> configs[] = {
      {"threads=2", large_opts(2)},
      {"threads=4", large_opts(4)},
      {"threads=4 one-group blocks", one_row_group_opts(n, 4)},
      {"threads=4 compute=3 one-group blocks", three_compute},
  };
  for (const auto& [label, opts] : configs) {
    Fft1dLarge plan(n, Direction::Forward, opts);
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n))) << label;
  }
}

TEST(Fft1dLarge, RowPassGivesEveryComputeThreadWork) {
#if !defined(BWFFT_OBS)
  GTEST_SKIP() << "observability disabled";
#else
  // A row-pass block holding a single row group must still be shared by
  // every compute thread: per thread, the 'C' slice time inside the
  // large1d-rows stage slices stays within 4x of the busiest thread's.
  // Checked for the even split and for the tuner's 3 + 1 split. Each
  // thread's time is summed over kExecutes runs, so one preempted slice
  // on a loaded host cannot decide the ratio on its own.
  constexpr int kExecutes = 3;
  const idx_t n = idx_t{1} << 22;
  auto x = random_cvec(n, 9570);
  for (int compute : {-1, 3}) {
    FftOptions o = one_row_group_opts(n, 4);
    o.compute_threads = compute;
    Fft1dLarge plan(n, Direction::Forward, o);
    cvec in = x, got(x.size());
    obs::start_trace();
    for (int e = 0; e < kExecutes; ++e) plan.execute(in.data(), got.data());
    obs::stop_trace();
    const std::vector<obs::Slice> slices = obs::drain_trace();

    std::vector<obs::Slice> rows;
    std::copy_if(slices.begin(), slices.end(), std::back_inserter(rows),
                 [](const obs::Slice& s) {
                   return s.phase == 'G' &&
                          std::strcmp(s.name, "large1d-rows") == 0;
                 });
    ASSERT_EQ(static_cast<std::size_t>(kExecutes), rows.size());
    std::map<int, std::uint64_t> busy_ns;  // obs tid -> summed 'C' time
    for (const obs::Slice& s : slices) {
      const bool in_rows = std::any_of(
          rows.begin(), rows.end(), [&s](const obs::Slice& g) {
            return s.t0_ns >= g.t0_ns && s.t1_ns <= g.t1_ns;
          });
      if (s.phase == 'C' && in_rows) busy_ns[s.tid] += s.t1_ns - s.t0_ns;
    }
    const std::size_t want_threads = compute < 0 ? 2 : 3;
    ASSERT_EQ(want_threads, busy_ns.size()) << "compute=" << compute;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& [tid, ns] : busy_ns) {
      lo = std::min(lo, ns);
      hi = std::max(hi, ns);
    }
    EXPECT_GE(4 * lo, hi) << "compute=" << compute << ": least-busy compute "
                          << "thread " << lo << " ns vs busiest " << hi
                          << " ns";
  }
#endif
}

TEST(Fft1dLarge, TinySizesMatchFourStepSpec) {
  // The engine IS the spl::dft1d_four_step rewrite; at dense-checkable
  // sizes its output must match the specification matrix applied
  // directly, for the exact same (n1, n2) split.
  for (auto [a, b] :
       {std::pair<idx_t, idx_t>{4, 8}, {8, 8}, {3, 16}, {16, 4}}) {
    const idx_t n = a * b;
    FftOptions o = large_opts(1);
    o.factor_n1 = a;
    Fft1dLarge plan(n, Direction::Forward, o);
    auto x = random_cvec(n, 9550 + n);
    cvec want(x.size());
    spl::dft1d_four_step(a, b)->apply(x.data(), want.data());
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << a << "x" << b;
  }
}

TEST(Fft1dLarge, PrimeSizesDegenerateToFlat) {
  const idx_t n = 65537;  // Fermat prime: no divisor in [2, n/2]
  Fft1dLarge plan(n, Direction::Forward, large_opts(1));
  EXPECT_EQ(1, plan.factor_n1());
  auto x = random_cvec(n, 9560);
  const cvec want = stockham_oracle(x);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, ChooseFactorsPolicy) {
  // The default split is skewed, not near-square: short core-private
  // column FFTs, rows capped so a row stays cache-resident.
  const auto [n1, n2] = Fft1dLarge::choose_factors(idx_t{1} << 22, 0);
  EXPECT_EQ((idx_t{1} << 22), n1 * n2);
  EXPECT_GE(n2, n1);  // rows at least as long as the column count
  // Requests are honoured exactly, misfits rejected.
  EXPECT_EQ(std::make_pair(idx_t{16}, idx_t{256}),
            Fft1dLarge::choose_factors(4096, 16));
  EXPECT_THROW(Fft1dLarge::choose_factors(64, 5), Error);
}

}  // namespace
}  // namespace bwfft
