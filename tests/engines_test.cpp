// Integration tests: every multidimensional engine against the dense
// reference oracle, across shapes, directions and thread configurations.
#include <gtest/gtest.h>

#include <string>

#include "analysis/static_verify.h"
#include "common/rng.h"
#include "fft/dual_socket.h"
#include "fft/fft.h"
#include "fft/reference.h"
#include "fft/stage_chain.h"
#include "fft1d/large.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

FftOptions small_opts(EngineKind engine, int threads = 2) {
  FftOptions o;
  o.engine = engine;
  o.threads = threads;
  o.block_elems = 512;  // small buffer => several pipeline iterations
  return o;
}

struct EngineCase {
  EngineKind engine;
  int threads;
};

std::string engine_case_name(
    const ::testing::TestParamInfo<EngineCase>& info) {
  std::string s = engine_name(info.param.engine);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s + "_t" + std::to_string(info.param.threads);
}

class Engines3d : public ::testing::TestWithParam<EngineCase> {};

TEST_P(Engines3d, MatchesReferenceForward) {
  const auto p = GetParam();
  const idx_t k = 8, n = 4, m = 16;
  auto x = random_cvec(k * n * m, 1000);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);

  Fft3d plan(k, n, m, Direction::Forward, small_opts(p.engine, p.threads));
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)));
}

TEST_P(Engines3d, MatchesReferenceInverse) {
  const auto p = GetParam();
  const idx_t k = 4, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 1001);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Inverse);

  Fft3d plan(k, n, m, Direction::Inverse, small_opts(p.engine, p.threads));
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)));
}

TEST_P(Engines3d, RoundTripRestoresInput) {
  const auto p = GetParam();
  const idx_t k = 4, n = 4, m = 8;
  auto x = random_cvec(k * n * m, 1002);
  auto opts = small_opts(p.engine, p.threads);
  Fft3d fwd(k, n, m, Direction::Forward, opts);
  opts.normalize_inverse = true;
  Fft3d inv(k, n, m, Direction::Inverse, opts);
  cvec a = x, b(x.size()), c(x.size());
  fwd.execute(a.data(), b.data());
  inv.execute(b.data(), c.data());
  EXPECT_LT(max_err(x, c), fft_tol(static_cast<double>(k * n * m)));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, Engines3d,
    ::testing::Values(EngineCase{EngineKind::Pencil, 1},
                      EngineCase{EngineKind::Pencil, 3},
                      EngineCase{EngineKind::StageParallel, 1},
                      EngineCase{EngineKind::StageParallel, 4},
                      EngineCase{EngineKind::SlabPencil, 1},
                      EngineCase{EngineKind::SlabPencil, 4},
                      EngineCase{EngineKind::DoubleBuffer, 1},
                      EngineCase{EngineKind::DoubleBuffer, 2},
                      EngineCase{EngineKind::DoubleBuffer, 4},
                      EngineCase{EngineKind::DoubleBuffer, 6}),
    engine_case_name);

class Engines2d : public ::testing::TestWithParam<EngineCase> {};

TEST_P(Engines2d, MatchesReferenceForward) {
  const auto p = GetParam();
  const idx_t n = 16, m = 32;
  auto x = random_cvec(n * m, 2000);
  cvec want(x.size());
  reference_dft_2d(x.data(), want.data(), n, m, Direction::Forward);

  Fft2d plan(n, m, Direction::Forward, small_opts(p.engine, p.threads));
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n * m)));
}

TEST_P(Engines2d, InputPreservationNotRequired) {
  // Engines may clobber `in`; the API contract only fixes `out`.
  const auto p = GetParam();
  const idx_t n = 8, m = 16;
  auto x = random_cvec(n * m, 2001);
  cvec want(x.size());
  reference_dft_2d(x.data(), want.data(), n, m, Direction::Forward);
  Fft2d plan(n, m, Direction::Forward, small_opts(p.engine, p.threads));
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n * m)));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, Engines2d,
    ::testing::Values(EngineCase{EngineKind::Pencil, 1},
                      EngineCase{EngineKind::Pencil, 2},
                      EngineCase{EngineKind::StageParallel, 3},
                      EngineCase{EngineKind::DoubleBuffer, 1},
                      EngineCase{EngineKind::DoubleBuffer, 2},
                      EngineCase{EngineKind::DoubleBuffer, 4}),
    engine_case_name);

// Shape sweep for the core engine: asymmetric cubes in every orientation.
class DoubleBufferShapes
    : public ::testing::TestWithParam<std::tuple<idx_t, idx_t, idx_t>> {};

TEST_P(DoubleBufferShapes, MatchesReference) {
  const auto [k, n, m] = GetParam();
  auto x = random_cvec(k * n * m, 3000 + k + n + m);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  Fft3d plan(k, n, m, Direction::Forward,
             small_opts(EngineKind::DoubleBuffer, 4));
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)))
      << k << "x" << n << "x" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DoubleBufferShapes,
    ::testing::ValuesIn(std::vector<std::tuple<idx_t, idx_t, idx_t>>{
        {4, 4, 4},
        {2, 8, 16},
        {16, 8, 2},
        {8, 2, 32},
        {32, 4, 8},
        {2, 2, 4},
        {16, 16, 16}}));

// Analytic case: a 3D impulse transforms to the all-ones cube.
TEST(Engines3dAnalytic, ImpulseGivesConstant) {
  const idx_t k = 4, n = 4, m = 8;
  cvec x(static_cast<std::size_t>(k * n * m), cplx(0, 0));
  x[0] = cplx(1, 0);
  Fft3d plan(k, n, m, Direction::Forward,
             small_opts(EngineKind::DoubleBuffer, 2));
  cvec got(x.size());
  plan.execute(x.data(), got.data());
  for (const auto& v : got) {
    EXPECT_NEAR(1.0, v.real(), 1e-10);
    EXPECT_NEAR(0.0, v.imag(), 1e-10);
  }
}

// Plane-wave input concentrates on a single output bin.
TEST(Engines3dAnalytic, PlaneWaveGivesDelta) {
  const idx_t k = 4, n = 8, m = 8;
  const idx_t fz = 1, fy = 3, fx = 5;
  cvec x(static_cast<std::size_t>(k * n * m));
  for (idx_t z = 0; z < k; ++z) {
    for (idx_t y = 0; y < n; ++y) {
      for (idx_t xx = 0; xx < m; ++xx) {
        const double ph = 2.0 * 3.14159265358979323846 *
                          (static_cast<double>(fz * z) / k +
                           static_cast<double>(fy * y) / n +
                           static_cast<double>(fx * xx) / m);
        x[static_cast<std::size_t>(z * n * m + y * m + xx)] =
            cplx(std::cos(ph), std::sin(ph));
      }
    }
  }
  Fft3d plan(k, n, m, Direction::Forward,
             small_opts(EngineKind::DoubleBuffer, 2));
  cvec got(x.size());
  plan.execute(x.data(), got.data());
  const idx_t hot = fz * n * m + fy * m + fx;
  for (idx_t i = 0; i < k * n * m; ++i) {
    const double mag = std::abs(got[static_cast<std::size_t>(i)]);
    if (i == hot) {
      EXPECT_NEAR(static_cast<double>(k * n * m), mag, 1e-8);
    } else {
      EXPECT_NEAR(0.0, mag, 1e-8) << i;
    }
  }
}

TEST(EngineErrors, RejectsBadConfigs) {
  EXPECT_THROW(Fft3d(0, 4, 4, Direction::Forward, {}), Error);
  FftOptions o;
  o.engine = EngineKind::SlabPencil;
  EXPECT_THROW(Fft2d(4, 4, Direction::Forward, o), Error);  // 3D only
  o.engine = EngineKind::Pencil;
  EXPECT_THROW(Fft2d(6, 4, Direction::Forward, o), Error);  // non-pow2
}

/// The ErrorCode a callable throws as bwfft::Error; kOk when it returns.
template <class F>
ErrorCode thrown_code(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

TEST(EngineErrors, RoleCountsResolveFromOptions) {
  FftOptions o;
  o.threads = 6;
  EXPECT_EQ(6, resolve_role_counts(o).threads);
  EXPECT_EQ(3, resolve_role_counts(o).compute);  // the even split
  EXPECT_EQ(3, resolve_role_counts(o, 2).threads);
  EXPECT_EQ(1, resolve_role_counts(o, 2).compute);
  o.compute_threads = 5;
  EXPECT_EQ(5, resolve_role_counts(o).compute);
  o.threads = 0;
  EXPECT_EQ(o.topo.total_threads(), resolve_role_counts(o).threads);
  o.threads = 1;
  o.compute_threads = -1;
  EXPECT_EQ(1, resolve_role_counts(o).compute);  // one thread computes
}

TEST(EngineErrors, OutOfRangeComputeThreadsIsBadPlan) {
  // Every engine that plans a role split rejects p_c > p with the typed
  // kBadPlan error; the static verifier declines to model it.
  FftOptions o;
  o.threads = 4;
  o.compute_threads = 5;
  EXPECT_EQ(ErrorCode::kBadPlan, thrown_code([&] {
              StageChainEngine({8, 8, 8}, Direction::Forward, o);
            }));
  EXPECT_EQ(ErrorCode::kBadPlan, thrown_code([&] {
              DualSocketFft3d(8, 8, 8, Direction::Forward, o, 2);
            }));
  EXPECT_EQ(ErrorCode::kBadPlan, thrown_code([&] {
              Fft1dLarge(idx_t{1} << 12, Direction::Forward, o);
            }));
  analysis::PlanModel model;
  std::string why;
  EXPECT_FALSE(analysis::build_plan_model({8, 8, 8}, o, &model, &why));
  EXPECT_EQ("compute_threads outside [0, threads]", why);
  // Stage-parallel has no role split: it ignores compute_threads.
  FftOptions sp = o;
  sp.engine = EngineKind::StageParallel;
  EXPECT_EQ(ErrorCode::kOk, thrown_code([&] {
              StageChainEngine({8, 8, 8}, Direction::Forward, sp);
            }));
  EXPECT_TRUE(analysis::build_plan_model({8, 8, 8}, sp, &model, &why)) << why;
  o.compute_threads = 4;  // p_d = 0 is legal: the degraded schedule
  EXPECT_EQ(ErrorCode::kOk, thrown_code([&] {
              StageChainEngine({8, 8, 8}, Direction::Forward, o);
            }));
}

}  // namespace
}  // namespace bwfft
