// bwfft_perfbench — the repository benchmark (see README.md).
//
//   bwfft_perfbench --workload <name|all> --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 1 when any output check
// failed and 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "benchutil/metrics.h"
#include "common/cpu.h"
#include "common/topology.h"
#include "kernels/isa.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Timed executes per run at least: p90 then has ten samples beyond it.
constexpr std::size_t kMinTimed = 100;
// A run stops timing after this long even when it has fewer samples
// than its tail percentile needs, to stay inside the 180 s run limit.
constexpr double kMaxTimedSeconds = 120.0;
// The bandwidth the tuner's cost model is given, fixed so that its pick
// does not follow the load on the host: the tuner's own calibration, and
// even this benchmark's STREAM samples (24 to 62 GB/s on one 4-core host
// in one day), straddle the rate at which its 4096^2 pick flips between
// double-buffer and stage-parallel (about 32 GB/s). 44 GB/s is that
// host's 4x-LLC triad when nothing else loads it.
constexpr double kTunerBandwidthGbs = 44.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct TransformSpec {
  const char* name;
  std::vector<idx_t> dims;
  int stages;  // read+write passes over the data in the io bound
  bool auto_engine;
};

const std::vector<TransformSpec>& transform_specs() {
  static const std::vector<TransformSpec> specs = {
      {"cube256", {256, 256, 256}, 3, false},
      {"plane4096_auto", {4096, 4096}, 2, true},
      {"line16m", {idx_t{1} << 24}, 2, false},
  };
  return specs;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(" \t:", line.find(':'));
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

void print_host() {
  const bwfft::MachineTopology topo = bwfft::host_topology();
  std::printf(
      "host: cpu \"%s\", nproc %d, smt %d, llc %.1f MiB, isa %s, compiler "
      "%s, build %s, BWFFT_OBS %s\n",
      cpu_model().c_str(), bwfft::online_cpus(), topo.smt_per_core,
      static_cast<double>(bwfft::llc_bytes()) / (1 << 20),
      bwfft::kernels::isa_name(bwfft::kernels::active_isa()),
      PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE,
#if defined(BWFFT_OBS)
      "ON"
#else
      "OFF"
#endif
  );
}

void run_transform(const TransformSpec& spec, const Args& a,
                   StreamMeter& stream, Result& r) {
  bwfft::ThreadTeam helper(bwfft::online_cpus());
  bwfft::FftOptions opts;
  opts.topo.stream_bw_gbs = kTunerBandwidthGbs;
  if (spec.auto_engine) {
    opts.engine = bwfft::EngineKind::Auto;
    opts.tune_level = bwfft::TuneLevel::Estimate;
  }
  TransformCase tc(spec.dims, opts, a.seed, helper);
  std::vector<double> setup;
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) setup.push_back(tc.setup());
  const bool self_ok = tc.self_test();
  r.labels.push_back(std::string("self-test ") + (self_ok ? "pass" : "FAIL"));
  r.labels.push_back("engine " + tc.plan().engine);

  if (a.trace) {
    r.metrics = empty_layer_metrics();
    probe_transform(tc, spec.stages, r.metrics);
    set_metric(r.metrics, "tune.resolve_ms", probe_resolve_ms(spec.dims, opts));
    set_metric(r.metrics, "fft.error_rel", tc.max_error);
    stream.sample();
  } else {
    // STREAM is sampled again halfway and at the end, so the denominator
    // sees the same state of the host as the transforms.
    std::vector<double> t;
    const double start = now_s();
    bool halfway = false;
    for (;;) {
      const double spent = now_s() - start;
      if ((spent >= a.seconds && t.size() >= kMinTimed) ||
          spent >= kMaxTimedSeconds) {
        break;
      }
      if (!halfway && spent >= a.seconds / 2) {
        stream.sample();
        halfway = true;
      }
      t.push_back(tc.run());
    }
    stream.sample();
    const double p50 = median(t);
    const double io = bwfft::io_bound_seconds(
        static_cast<double>(tc.size()), spec.stages, stream.triad_gbs());
    r.metrics = {
        {"setup_s", median(setup), "s"},
        {"transform_ms_p50", p50 * 1e3, "ms"},
        {"transform_ms_p90", quantile(t, 0.9) * 1e3, "ms"},
        {"pct_of_peak", 100.0 * io / p50, "%"},
    };
    r.labels.push_back(std::to_string(t.size()) + " timed transforms");
    char buf[96];
    std::snprintf(buf, sizeof buf, "max rel error %.3e (tolerance %.3e)",
                  tc.max_error, tc.tolerance());
    r.labels.push_back(buf);
  }
  r.correct = self_ok && tc.failed == 0;
  r.attempted = tc.attempted;
  r.failed = tc.failed;
}

Result run_workload(const std::string& name, const Args& a) {
  Result r;
  StreamMeter stream;
  stream.sample();
  for (const TransformSpec& spec : transform_specs()) {
    if (name == spec.name) run_transform(spec, a, stream, r);
  }
  r.labels.insert(r.labels.begin(), stream.label());
  if (a.trace) {
    set_metric(r.metrics, "stream.triad_gbs", stream.triad_gbs());
    set_metric(r.metrics, "stream.copy_gbs", stream.copy_gbs());
    probe_layers(r.metrics);
    probe_serving(a.seed, r);
  } else {
    r.metrics.push_back(
        {"ok_frac",
         static_cast<double>(r.attempted - r.failed) /
             static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
         "fraction"});
  }
  std::printf("workload %s (seed %llu, trace %d)\n", name.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  for (const std::string& l : r.labels) std::printf("  %s\n", l.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "true" : "false");
  std::fflush(stdout);
  return r;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  if (a.workload == "all") return true;
  for (const TransformSpec& s : transform_specs()) {
    if (a.workload == s.name) return true;
  }
  return false;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <cube256|plane4096_auto|line16m|all> "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  print_host();
  std::vector<std::string> names;
  if (a.workload == "all") {
    for (const TransformSpec& s : transform_specs()) names.push_back(s.name);
  } else {
    names.push_back(a.workload);
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const std::string& name : names) {
    const Result r = run_workload(name, a);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) {
      const std::string key = names.size() > 1 ? name + "." + m.name : m.name;
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + key + "\": {\"value\": ") +
                 json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
