// Shared pieces of the repository benchmark (see README.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "fft/options.h"
#include "parallel/team.h"

namespace perfbench {

using bwfft::cplx;
using bwfft::Direction;
using bwfft::idx_t;

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One named number of the result line, in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What one run of one workload reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> labels;  // printed before the metrics
};

/// Known-answer oracle: the input is a sum of a few complex exponentials
/// whose frequencies and amplitudes come from the seed, so the exact
/// transform is zero except for one bin per tone (N * amplitude there).
/// Works at any size without a reference transform.
class ToneOracle {
 public:
  ToneOracle(std::vector<idx_t> dims, Direction dir, std::uint64_t seed,
             int tones = 4);

  idx_t size() const { return n_; }
  /// Relative L2 error that still passes: a few eps times log2 N.
  double tolerance() const;
  /// L2 norm of the exact spectrum.
  double ref_norm() const;

  /// Write the input signal into x[0, size()).
  void fill(cplx* x, bwfft::ThreadTeam& team) const;
  /// Relative L2 error of y against the exact spectrum. y is left as
  /// it was, up to rounding in the tone bins.
  double rel_error(cplx* y, bwfft::ThreadTeam& team) const;

  /// Incremental form of rel_error for callers that must interleave the
  /// check with other work: begin() subtracts the exact spectrum from y,
  /// sum() accumulates |y|^2 over [lo, hi) and finish() restores y and
  /// turns the accumulated sum into the relative error.
  void begin(cplx* y) const;
  static double sum(const cplx* y, idx_t lo, idx_t hi);
  double finish(cplx* y, double err2) const;

 private:
  struct Tone {
    std::vector<idx_t> freq;  // per dimension
    cplx amp;
    idx_t bin = 0;  // row-major flat index of the tone's output bin
  };
  std::vector<idx_t> dims_;
  idx_t n_ = 1;
  int phase_sign_ = 1;
  std::vector<Tone> tones_;
  double ref2_ = 0.0;
  // Per dimension, exp(phase_sign * 2 pi i m / N_d) = hi[m / kSplit] *
  // lo[m % kSplit]: two short tables reach any m < N_d exactly.
  static constexpr idx_t kSplit = 4096;
  std::vector<std::vector<cplx>> hi_, lo_;
  cplx root(std::size_t d, idx_t m) const;
};

/// Copy count elements with the team (plain stores: the engines read the
/// input next, as a caller handing over a freshly produced array would).
void team_copy(bwfft::ThreadTeam& team, cplx* dst, const cplx* src,
               idx_t count);

// ---------------------------------------------------------------------------
// Transforms through the public facades (transform.cpp).

/// A planned forward transform: Fft3d, Fft2d or, for one dimension,
/// Fft1dLarge, chosen by the number of dims.
struct Plan {
  std::shared_ptr<void> owner;
  std::function<void(cplx*, cplx*)> execute;
  std::string engine;
};
Plan make_plan(const std::vector<idx_t>& dims, const bwfft::FftOptions& opts);

/// Options the plan of `opts` runs with: Auto resolved by the tuner
/// (from wisdom when the plan was just built), anything else unchanged.
bwfft::FftOptions resolved_options(const std::vector<idx_t>& dims,
                                   const bwfft::FftOptions& opts);

/// One transform shape driven as a closed loop by one caller, with its
/// input from a ToneOracle and every output checked.
class TransformCase {
 public:
  TransformCase(std::vector<idx_t> dims, bwfft::FftOptions opts,
                std::uint64_t seed, bwfft::ThreadTeam& helper);

  /// Set-up as a user pays it: allocate the arrays, generate the input,
  /// build the plan (tuner included for Auto, with wisdom cleared) and run
  /// the first, cold execute. Returns its seconds; the check of the cold
  /// output is not timed. Replaces the previous set-up.
  double setup();
  /// Restore the clobbered input (untimed), time one execute, optionally
  /// with the obs trace armed, then check the output (untimed).
  double run(bool trace = false);
  /// True when the check flags a one-element perturbation of a correct
  /// output and passes once it is undone.
  bool self_test();

  /// Time one execute of `other` on this case's input and check it.
  double run_other(Plan& other);

  idx_t size() const { return oracle_.size(); }
  double tolerance() const { return oracle_.tolerance(); }
  const std::vector<idx_t>& dims() const { return dims_; }
  const bwfft::FftOptions& options() const { return opts_; }
  const Plan& plan() const { return plan_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_error = 0.0;

 private:
  double run_plan(Plan& plan, bool trace);
  void check();

  std::vector<idx_t> dims_;
  bwfft::FftOptions opts_;
  ToneOracle oracle_;
  bwfft::ThreadTeam& helper_;
  bwfft::AlignedBuffer<cplx> pristine_, in_, out_;
  Plan plan_;
};

// ---------------------------------------------------------------------------
// Per-layer probes (layers.cpp). Each times public calls of one layer from
// this benchmark's own code and returns the median of a few repetitions.

/// The DRAM denominator: STREAM with every array four times the LLC, on
/// all CPUs, sampled a few times during a run (one best-of-2 run_stream
/// per sample). The rates are medians over the samples, so a burst of
/// load from elsewhere during one sample does not set them.
class StreamMeter {
 public:
  void sample();
  double triad_gbs() const { return median(triad_); }
  double copy_gbs() const { return median(copy_); }
  /// Array size, LLC size and the samples, for the run's labels.
  std::string label() const;

 private:
  std::vector<double> triad_, copy_;
};

/// Layer probes that do not depend on the workload, on two scratch arrays
/// of 2^24 elements (256 MiB each, well outside the LLC).
void probe_layers(Metrics& out);

/// tune::resolve_auto at Estimate on dims with the machine model of
/// `req`, wisdom cleared each time.
double probe_resolve_ms(const std::vector<idx_t>& dims, bwfft::FftOptions req);

// ---------------------------------------------------------------------------
// The serving probe of the traced run (serve.cpp).

/// Drive one exec::BatchExecutor with an open loop of small in-LLC
/// requests at a fixed rate, check every output, and fill the exec.*
/// and tune.plan_cache_hit_frac metrics of r.
void probe_serving(std::uint64_t seed, Result& r);

/// The per-layer metrics of a traced run, in print order, all zero. A
/// metric the workload has no value for (fft.stage2_ms of a two-stage
/// plan) keeps the zero.
Metrics empty_layer_metrics();
void set_metric(Metrics& m, const std::string& name, double value);

/// Fill the fft.*, pipeline busy, tune.regret and obs.trace_overhead_frac
/// metrics from traced and untraced executes of `tc` (set up already).
void probe_transform(TransformCase& tc, int stages, Metrics& m);

}  // namespace perfbench
