// Per-layer probes: each times public calls into one layer of the library
// from this file, so the numbers need no instrumentation inside the
// program. Every probe reports the median of a few repetitions.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>

#include "bench.h"
#include "common/cpu.h"
#include "common/topology.h"
#include "fft/options.h"
#include "kernels/batch.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "layout/transpose.h"
#include "pipeline/pipeline.h"
#include "stream/stream.h"
#include "tune/tuner.h"
#include "tune/wisdom.h"

namespace perfbench {
namespace {

constexpr idx_t kN = idx_t{1} << 24;  // elements per scratch array
constexpr double kBytes = static_cast<double>(kN) * sizeof(cplx);

template <typename F>
double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    f();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

// One pipeline stage that only moves data: load copies a block of src
// into the cache-resident half, compute does nothing, store streams the
// half to dst with non-temporal stores. Its rate is the soft-DMA ceiling
// of the double-buffer engine without any FFT work.
bwfft::PipelineStage copy_stage(const cplx* src, cplx* dst, idx_t block) {
  bwfft::PipelineStage st;
  st.iterations = (kN + block - 1) / block;
  auto part = [block](idx_t iter, int rank, int parts) {
    const idx_t len = std::min(block, kN - iter * block);
    return bwfft::ThreadTeam::chunk(len, parts, rank);
  };
  st.load = [=](idx_t iter, cplx* buf, int rank, int parts) {
    const auto [lo, hi] = part(iter, rank, parts);
    std::memcpy(buf + lo, src + iter * block + lo,
                static_cast<std::size_t>(hi - lo) * sizeof(cplx));
  };
  st.compute = [](idx_t, cplx*, int, int) {};
  st.store = [=](idx_t iter, const cplx* buf, int rank, int parts) {
    const auto [lo, hi] = part(iter, rank, parts);
    bwfft::copy_stream(dst + iter * block + lo, buf + lo, hi - lo, true);
  };
  return st;
}

double batch_gflops(idx_t n) {
  constexpr idx_t kLanes = 256;  // n x 256 tile: 32-64 KiB, in L2
  bwfft::cvec in(static_cast<std::size_t>(n * kLanes), cplx(0.5, -0.25));
  bwfft::cvec out(in.size());
  const bwfft::kernels::BatchFn fn = bwfft::kernels::batch_lookup(n);
  constexpr int kCalls = 20000;
  const double s = median_seconds(5, [&] {
    for (int c = 0; c < kCalls; ++c) {
      fn(in.data(), kLanes, out.data(), kLanes, kLanes, nullptr,
         Direction::Forward);
    }
  });
  const double flops = 5.0 * static_cast<double>(n) *
                       std::log2(static_cast<double>(n)) * kLanes * kCalls;
  return flops / s / 1e9;
}

double diag_scale_gbs() {
  constexpr idx_t kRows = 64, kWidth = 256;  // 256 KiB tile, in L2
  bwfft::cvec tile(static_cast<std::size_t>(kRows * kWidth), cplx(1.0, 0.0));
  bwfft::cvec w(kWidth), step(kWidth);
  for (idx_t l = 0; l < kWidth; ++l) {
    step[static_cast<std::size_t>(l)] =
        std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(l) / 65536.0);
  }
  constexpr int kCalls = 2000;
  const double s = median_seconds(5, [&] {
    for (int c = 0; c < kCalls; ++c) {
      std::fill(w.begin(), w.end(), cplx(1.0, 0.0));
      bwfft::kernels::diag_scale_rows(tile.data(), kRows, kWidth, w.data(),
                                      step.data());
    }
  });
  return 2.0 * static_cast<double>(kRows * kWidth) * sizeof(cplx) * kCalls /
         s / 1e9;
}

}  // namespace

void StreamMeter::sample() {
  const bwfft::StreamResult s = bwfft::run_stream(
      4 * bwfft::llc_bytes() / sizeof(double), bwfft::online_cpus(), 2);
  triad_.push_back(s.triad_gbs);
  copy_.push_back(s.copy_gbs);
}

std::string StreamMeter::label() const {
  const double mib = static_cast<double>(bwfft::llc_bytes()) / (1 << 20);
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "stream: %.1f MiB per array (LLC %.1f MiB), triad samples",
                4 * mib, mib);
  std::string out = buf;
  for (double t : triad_) {
    std::snprintf(buf, sizeof buf, " %.2f", t);
    out += buf;
  }
  out += " GB/s";
  return out;
}

void probe_layers(Metrics& out) {
  bwfft::AlignedBuffer<cplx> buf_a(static_cast<std::size_t>(kN)),
      buf_b(static_cast<std::size_t>(kN));
  cplx* a = buf_a.data();
  cplx* b = buf_b.data();
  std::fill(buf_a.begin(), buf_a.end(), cplx(1.0, -1.0));
  std::fill(buf_b.begin(), buf_b.end(), cplx(0.0, 0.0));
  const int p = bwfft::online_cpus();
  const bwfft::MachineTopology topo = bwfft::host_topology();

  {
    bwfft::ThreadTeam team(p);
    bwfft::DoubleBufferPipeline pipe(team, bwfft::make_even_role_plan(p, topo),
                                     bwfft::default_block_elems(topo));
    const bwfft::PipelineStage copy =
        copy_stage(a, b, pipe.block_elems());
    const double s = median_seconds(3, [&] { pipe.execute(copy); });
    set_metric(out, "pipeline.copy_gbs", 2.0 * kBytes / s / 1e9);

    bwfft::PipelineStage empty;
    empty.iterations = 4000;
    empty.load = [](idx_t, cplx*, int, int) {};
    empty.compute = [](idx_t, cplx*, int, int) {};
    empty.store = [](idx_t, const cplx*, int, int) {};
    const double se = median_seconds(5, [&] { pipe.execute(empty); });
    set_metric(out, "pipeline.step_us", se / static_cast<double>(empty.iterations + 2) * 1e6);

    constexpr int kRuns = 4000;
    const double sr = median_seconds(5, [&] {
      for (int i = 0; i < kRuns; ++i) team.run([](int) {});
    });
    set_metric(out, "parallel.team_run_us", sr / kRuns * 1e6);
  }

  const double rot = median_seconds(3, [&] {
    bwfft::rotate_cube_packets(a, b, 256, 256, 256 / bwfft::kMu, bwfft::kMu,
                               true);
  });
  set_metric(out, "layout.rotate_nt_gbs", 2.0 * kBytes / rot / 1e9);
  const double tr =
      median_seconds(3, [&] { bwfft::transpose_tiled(a, b, 4096, 4096); });
  set_metric(out, "layout.transpose_gbs", 2.0 * kBytes / tr / 1e9);
  const double cp = median_seconds(3, [&] {
    bwfft::copy_stream(b, a, kN, true);
    bwfft::stream_fence();
  });
  set_metric(out, "layout.copy_nt_gbs", 2.0 * kBytes / cp / 1e9);

  set_metric(out, "kernels.batch8_gflops", batch_gflops(8));
  set_metric(out, "kernels.batch16_gflops", batch_gflops(16));
  set_metric(out, "kernels.diag_scale_gbs", diag_scale_gbs());
  const double nt = median_seconds(3, [&] {
    bwfft::kernels::nt_copy(b, a, kN);
    bwfft::stream_fence();
  });
  set_metric(out, "kernels.nt_copy_gbs", 2.0 * kBytes / nt / 1e9);
}

double probe_resolve_ms(const std::vector<idx_t>& dims,
                        bwfft::FftOptions req) {
  req.engine = bwfft::EngineKind::Auto;
  req.tune_level = bwfft::TuneLevel::Estimate;
  return 1e3 * median_seconds(5, [&] {
           bwfft::tune::global_wisdom_clear();
           (void)bwfft::tune::resolve_auto(dims, Direction::Forward, req);
         });
}

}  // namespace perfbench
