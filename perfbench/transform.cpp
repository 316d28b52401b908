#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/error.h"
#include "fft/fft.h"
#include "fft1d/large.h"
#include "obs/obs.h"
#include "tune/tuner.h"
#include "tune/wisdom.h"

namespace perfbench {

bwfft::FftOptions resolved_options(const std::vector<idx_t>& dims,
                                   const bwfft::FftOptions& opts) {
  if (opts.engine != bwfft::EngineKind::Auto) return opts;
  return bwfft::tune::resolve_auto(dims, Direction::Forward, opts);
}

Plan make_plan(const std::vector<idx_t>& dims, const bwfft::FftOptions& opts) {
  Plan p;
  if (dims.size() == 3) {
    auto f = std::make_shared<bwfft::Fft3d>(dims[0], dims[1], dims[2],
                                            Direction::Forward, opts);
    p.engine = f->engine_name();
    p.execute = [f = f.get()](cplx* in, cplx* out) { f->execute(in, out); };
    p.owner = std::move(f);
  } else if (dims.size() == 2) {
    auto f = std::make_shared<bwfft::Fft2d>(dims[0], dims[1],
                                            Direction::Forward, opts);
    p.engine = f->engine_name();
    p.execute = [f = f.get()](cplx* in, cplx* out) { f->execute(in, out); };
    p.owner = std::move(f);
  } else {
    auto f = std::make_shared<bwfft::Fft1dLarge>(
        dims[0], Direction::Forward, resolved_options(dims, opts));
    p.engine = "large1d " + std::to_string(f->factor_n1()) + "x" +
               std::to_string(f->factor_n2());
    p.execute = [f = f.get()](cplx* in, cplx* out) { f->execute(in, out); };
    p.owner = std::move(f);
  }
  return p;
}

TransformCase::TransformCase(std::vector<idx_t> dims, bwfft::FftOptions opts,
                             std::uint64_t seed, bwfft::ThreadTeam& helper)
    : dims_(dims),
      opts_(opts),
      oracle_(std::move(dims), Direction::Forward, seed),
      helper_(helper) {}

void TransformCase::check() {
  const double err = oracle_.rel_error(out_.data(), helper_);
  ++attempted;
  max_error = std::max(max_error, err);
  if (!(err <= oracle_.tolerance())) {
    ++failed;
    std::fprintf(stderr, "check failed: rel error %.3e > tolerance %.3e\n",
                 err, oracle_.tolerance());
  }
}

double TransformCase::setup() {
  plan_ = Plan{};
  pristine_ = {};
  in_ = {};
  out_ = {};
  if (opts_.engine == bwfft::EngineKind::Auto) {
    bwfft::tune::global_wisdom_clear();
  }
  const auto n = static_cast<std::size_t>(size());
  const double t0 = now_s();
  pristine_ = bwfft::AlignedBuffer<cplx>(n);
  in_ = bwfft::AlignedBuffer<cplx>(n);
  out_ = bwfft::AlignedBuffer<cplx>(n);
  oracle_.fill(pristine_.data(), helper_);
  team_copy(helper_, in_.data(), pristine_.data(), size());
  plan_ = make_plan(dims_, opts_);
  plan_.execute(in_.data(), out_.data());
  const double dt = now_s() - t0;
  check();
  return dt;
}

double TransformCase::run(bool trace) { return run_plan(plan_, trace); }

double TransformCase::run_other(Plan& other) { return run_plan(other, false); }

double TransformCase::run_plan(Plan& plan, bool trace) {
  team_copy(helper_, in_.data(), pristine_.data(), size());
  if (trace) bwfft::obs::start_trace();
  const double t0 = now_s();
  plan.execute(in_.data(), out_.data());
  const double dt = now_s() - t0;
  if (trace) bwfft::obs::stop_trace();
  check();
  return dt;
}

bool TransformCase::self_test() {
  // Perturb one element by ten times the tolerance, relative to the
  // spectrum's norm: the check must fail, then pass again once undone.
  const double tol = oracle_.tolerance();
  const double base = oracle_.rel_error(out_.data(), helper_);
  const idx_t at = size() / 3 + 1;
  const cplx delta(10.0 * tol * oracle_.ref_norm(), 0.0);
  out_[static_cast<std::size_t>(at)] += delta;
  const double perturbed = oracle_.rel_error(out_.data(), helper_);
  out_[static_cast<std::size_t>(at)] -= delta;
  const double restored = oracle_.rel_error(out_.data(), helper_);
  return base <= tol && perturbed > tol && restored <= tol;
}

void probe_transform(TransformCase& tc, int stages, Metrics& m) {
  using bwfft::obs::Counter;
  constexpr int kPairs = 5;
  const double n = static_cast<double>(tc.size());
  const double stage_bytes = 2.0 * n * sizeof(cplx);

  std::vector<double> plain, traced;
  std::vector<std::vector<double>> stage_s(static_cast<std::size_t>(stages));
  bwfft::obs::CounterSnapshot busy{};
  for (int i = 0; i < kPairs; ++i) {
    plain.push_back(tc.run(false));
    const bwfft::obs::CounterSnapshot before = bwfft::obs::counters();
    traced.push_back(tc.run(true));
    const bwfft::obs::CounterSnapshot after = bwfft::obs::counters();
    for (int c = 0; c < bwfft::obs::kCounterCount; ++c) {
      busy.value[c] += after.value[c] - before.value[c];
    }
    // Only the stage times are used; no bandwidth, no roofline rating.
    const auto roof = bwfft::obs::roofline_from_trace(
        bwfft::obs::drain_trace(), stage_bytes, 0.0);
    for (std::size_t k = 0; k < roof.size() && k < stage_s.size(); ++k) {
      stage_s[k].push_back(roof[k].seconds);
    }
  }
  double gbs_min = 0.0;
  for (std::size_t k = 0; k < stage_s.size(); ++k) {
    const double s = median(stage_s[k]);
    set_metric(m, "fft.stage" + std::to_string(k) + "_ms", s * 1e3);
    if (s > 0.0) {
      const double gbs = stage_bytes / s / 1e9;
      gbs_min = gbs_min == 0.0 ? gbs : std::min(gbs_min, gbs);
    }
  }
  set_metric(m, "fft.stage_gbs_min", gbs_min);
  auto per_transform_ms = [&](Counter c) {
    return static_cast<double>(busy[c]) / kPairs / 1e6;
  };
  set_metric(m, "pipeline.load_busy_ms", per_transform_ms(Counter::LoadBusyNs));
  set_metric(m, "pipeline.compute_busy_ms",
             per_transform_ms(Counter::ComputeBusyNs));
  set_metric(m, "pipeline.store_busy_ms",
             per_transform_ms(Counter::StoreBusyNs));
  set_metric(m, "pipeline.barrier_wait_ms",
             per_transform_ms(Counter::BarrierWaitNs));
  const double plain_s = median(plain);
  set_metric(m, "obs.trace_overhead_frac", median(traced) / plain_s - 1.0);

  {
    bwfft::FftOptions one = resolved_options(tc.dims(), tc.options());
    one.threads = 1;
    one.compute_threads = -1;  // a tuned split may not fit one thread
    Plan single = make_plan(tc.dims(), one);
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) t.push_back(tc.run_other(single));
    set_metric(m, "fft.speedup_vs_1t", median(t) / plain_s);
  }

  // Auto against the default engine on the same shape, interleaved.
  const bool is_auto = tc.options().engine == bwfft::EngineKind::Auto;
  bwfft::FftOptions alt;
  if (!is_auto) {
    alt = tc.options();
    alt.engine = bwfft::EngineKind::Auto;
    alt.tune_level = bwfft::TuneLevel::Estimate;
  }
  Plan other = make_plan(tc.dims(), alt);
  std::vector<double> mine, theirs;
  for (int i = 0; i < 4; ++i) {
    mine.push_back(tc.run(false));
    theirs.push_back(tc.run_other(other));
  }
  const double regret = is_auto ? median(mine) / median(theirs)
                                : median(theirs) / median(mine);
  set_metric(m, "tune.regret", regret);
}

Metrics empty_layer_metrics() {
  const std::pair<const char*, const char*> names[] = {
      {"stream.triad_gbs", "GB/s"},
      {"stream.copy_gbs", "GB/s"},
      {"fft.stage0_ms", "ms"},
      {"fft.stage1_ms", "ms"},
      {"fft.stage2_ms", "ms"},
      {"fft.stage_gbs_min", "GB/s"},
      {"fft.error_rel", "ratio"},
      {"fft.speedup_vs_1t", "x"},
      {"pipeline.load_busy_ms", "ms"},
      {"pipeline.compute_busy_ms", "ms"},
      {"pipeline.store_busy_ms", "ms"},
      {"pipeline.barrier_wait_ms", "ms"},
      {"pipeline.copy_gbs", "GB/s"},
      {"pipeline.step_us", "us"},
      {"layout.rotate_nt_gbs", "GB/s"},
      {"layout.transpose_gbs", "GB/s"},
      {"layout.copy_nt_gbs", "GB/s"},
      {"kernels.batch8_gflops", "GFLOP/s"},
      {"kernels.batch16_gflops", "GFLOP/s"},
      {"kernels.diag_scale_gbs", "GB/s"},
      {"kernels.nt_copy_gbs", "GB/s"},
      {"parallel.team_run_us", "us"},
      {"tune.resolve_ms", "ms"},
      {"tune.regret", "ratio"},
      {"tune.plan_cache_hit_frac", "fraction"},
      {"exec.req_ms_p50", "ms"},
      {"exec.req_ms_p99", "ms"},
      {"exec.queue_wait_ms_p50", "ms"},
      {"exec.queue_wait_ms_p99", "ms"},
      {"exec.batch_occupancy", "requests"},
      {"exec.rejected", "count"},
      {"exec.shed", "count"},
      {"exec.timed_out", "count"},
      {"exec.gen_late_ms_p99", "ms"},
      {"exec.backlog_skipped", "count"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  Metrics m;
  for (const auto& [name, unit] : names) m.push_back({name, 0.0, unit});
  return m;
}

void set_metric(Metrics& m, const std::string& name, double value) {
  for (Metric& x : m) {
    if (x.name == name) {
      x.value = value;
      return;
    }
  }
  BWFFT_CHECK(false, "unknown metric " + name);
}

}  // namespace perfbench
