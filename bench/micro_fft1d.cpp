// google-benchmark microbenchmarks for the 1D kernel layer: the batch and
// lane kernels the double-buffered stages are built from (power-of-two
// and smooth sizes), the strided in-place path the naive baseline uses,
// and the Bluestein path for sizes with a prime factor above 13.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "fft1d/fft1d.h"
#include "kernels/isa.h"

namespace {

using namespace bwfft;

void BM_BatchContig(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t count = std::max<idx_t>((1 << 16) / n, 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * count);
  for (auto _ : state) {
    plan.apply_batch(data.data(), count);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n * count);
}
BENCHMARK(BM_BatchContig)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(32768);

// The same one-lane batch on the scalar table: the gap to BM_BatchContig
// is what the unit-stride level-0 codelet's SIMD width buys.
void BM_BatchContigScalarForced(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t count = std::max<idx_t>((1 << 16) / n, 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * count);
  kernels::set_isa_override(kernels::Isa::Scalar);
  for (auto _ : state) {
    plan.apply_batch(data.data(), count);
    benchmark::DoNotOptimize(data.data());
  }
  kernels::set_isa_override(kernels::Isa::Auto);
  state.SetItemsProcessed(state.iterations() * n * count);
}
BENCHMARK(BM_BatchContigScalarForced)->Arg(4096);

void BM_LanesCacheline(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t lanes = kMu;
  const idx_t count = std::max<idx_t>((1 << 16) / (n * lanes), 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * lanes * count);
  for (auto _ : state) {
    plan.apply_lanes(data.data(), lanes, count);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n * lanes * count);
}
BENCHMARK(BM_LanesCacheline)->Arg(64)->Arg(256)->Arg(1024);

void BM_LanesScalarForced(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t lanes = kMu;
  const idx_t count = std::max<idx_t>((1 << 16) / (n * lanes), 1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * lanes * count);
  kernels::set_isa_override(kernels::Isa::Scalar);
  for (auto _ : state) {
    plan.apply_lanes(data.data(), lanes, count);
    benchmark::DoNotOptimize(data.data());
  }
  kernels::set_isa_override(kernels::Isa::Auto);
  state.SetItemsProcessed(state.iterations() * n * lanes * count);
}
BENCHMARK(BM_LanesScalarForced)->Arg(256);

void BM_StridedInplace(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t stride = state.range(1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * stride);
  for (auto _ : state) {
    plan.apply_strided_inplace(data.data(), stride);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StridedInplace)
    ->Args({256, 1})
    ->Args({256, 16})
    ->Args({256, 256})
    ->Args({1024, 1024});

// Smooth (13-smooth, non-power-of-two) sizes: the same Stockham schedule
// with a mixed radix chain, one pencil and one cacheline of lanes.
void BM_SmoothLanes(benchmark::State& state) {
  const idx_t n = state.range(0);
  const idx_t lanes = state.range(1);
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n * lanes);
  for (auto _ : state) {
    plan.apply_lanes(data.data(), lanes, 1);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n * lanes);
}
BENCHMARK(BM_SmoothLanes)
    ->ArgsProduct({{120, 1000, 3600}, {1, kMu}});

void BM_Bluestein(benchmark::State& state) {
  const idx_t n = state.range(0);  // has a prime factor above 13
  Fft1d plan(n, Direction::Forward);
  cvec data = random_cvec(n);
  for (auto _ : state) {
    plan.apply_batch(data.data(), 1);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Bluestein)->Arg(1003)->Arg(1009);  // 17*59, prime

}  // namespace
