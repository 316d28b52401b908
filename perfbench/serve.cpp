// The serving probe of a traced run. One generator thread (the caller)
// submits a fixed mix of small, in-LLC transforms to one
// exec::BatchExecutor at a fixed rate, as an open loop: it never waits for
// a reply before the next request is due. Each request is timed from the
// moment it was due, and every output is checked while the generator
// waits. It measures the exec layer; README.md says why it is not an
// end-to-end workload.
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <random>
#include <thread>

#include "bench.h"
#include "common/cpu.h"
#include "exec/batch_executor.h"

namespace perfbench {
namespace {

namespace exec = bwfft::exec;

struct Shape {
  std::vector<idx_t> dims;
  Direction dir;
  double weight;  // share of requests
};

// The request mix: default (double-buffer) plans, all in the LLC.
const std::vector<Shape>& request_mix() {
  static const std::vector<Shape> mix = {
      {{32, 32, 32}, Direction::Forward, 3},
      {{32, 32, 32}, Direction::Inverse, 2},
      {{128, 128}, Direction::Forward, 3},
      {{256, 256}, Direction::Inverse, 1},
  };
  return mix;
}

constexpr double kRate = 600.0;  // requests per second, about half capacity
constexpr std::size_t kRequests = 3000;
// In-flight requests beyond this are a growing backlog: the generator
// stops submitting and counts the rest as skipped. Below the executor's
// queue capacity, so the probe never provokes kQueueFull itself.
constexpr int kMaxBacklog = 96;
constexpr idx_t kChunk = 16384;  // elements checked per generator step
// An idle generator blocks at most this long at a time, and wakes this
// long before the next request is due to submit it on time.
constexpr double kIdleWait = 200e-6;
constexpr double kDueMargin = 60e-6;

std::string shape_name(const Shape& s) {
  std::string out;
  for (idx_t d : s.dims) {
    if (!out.empty()) out += 'x';
    out += std::to_string(d);
  }
  return out + (s.dir == Direction::Forward ? " fwd" : " inv");
}

struct ShapeBuffers {
  ShapeBuffers(const Shape& s, std::uint64_t seed)
      : oracle(s.dims, s.dir, seed) {}
  ToneOracle oracle;
  bwfft::AlignedBuffer<cplx> pristine;
  std::vector<bwfft::AlignedBuffer<cplx>> in, out;
  std::vector<int> free;  // slots not in flight
};

class Generator {
 public:
  Generator(std::uint64_t seed, bwfft::ThreadTeam& helper) : pick_(seed) {
    std::vector<double> w;
    for (const Shape& s : request_mix()) {
      w.push_back(s.weight);
      ShapeBuffers& b = shapes_.emplace_back(s, seed + shapes_.size() + 1);
      const idx_t n = b.oracle.size();
      const auto un = static_cast<std::size_t>(n);
      b.pristine = bwfft::AlignedBuffer<cplx>(un);
      b.oracle.fill(b.pristine.data(), helper);
      for (int k = 0; k < kMaxBacklog; ++k) {
        b.in.emplace_back(un);
        b.out.emplace_back(un);
        team_copy(helper, b.in.back().data(), b.pristine.data(), n);
        b.free.push_back(k);
      }
    }
    dist_ = std::discrete_distribution<int>(w.begin(), w.end());
  }

  /// One request of every shape, each waited for: builds the plans.
  void warm(exec::BatchExecutor& ex);
  /// The open loop: kRequests requests at kRate per second.
  void run(exec::BatchExecutor& ex);

  std::vector<double> latency_ms;  // due -> completion seen; inf if failed
  std::vector<double> late_ms;     // due -> submitted
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t skipped = 0;  // due but not sent: the backlog was too long
  std::uint64_t wrong_outputs = 0;
  double max_error = 0.0;
  std::map<std::string, std::string> engines;  // shape -> engine seen

 private:
  struct InFlight {
    std::future<bwfft::ExecReport> fut;
    int shape;
    int slot;
    double due;
  };
  // What a completed request still needs: its output checked and its
  // input restored, done in chunks between submissions.
  struct Done {
    int shape;
    int slot;
    bool ok;
    std::size_t sample;  // index of its latency sample
    bool checked = false;
    idx_t pos = 0;
    double err2 = 0.0;
  };
  void submit(exec::BatchExecutor& ex, int shape, double due);
  void complete(std::size_t i);
  bool finish_step(Done& d);

  std::vector<ShapeBuffers> shapes_;
  std::mt19937_64 pick_;
  std::discrete_distribution<int> dist_;
  std::vector<InFlight> flight_;  // oldest first
  std::deque<Done> work_;
};

void Generator::submit(exec::BatchExecutor& ex, int shape, double due) {
  ShapeBuffers& b = shapes_[static_cast<std::size_t>(shape)];
  const int slot = b.free.back();
  b.free.pop_back();
  const Shape& s = request_mix()[static_cast<std::size_t>(shape)];
  exec::Request req;
  req.dims = s.dims;
  req.dir = s.dir;
  req.in = b.in[static_cast<std::size_t>(slot)].data();
  req.out = b.out[static_cast<std::size_t>(slot)].data();
  flight_.push_back({ex.submit(std::move(req)), shape, slot, due});
  ++attempted;
}

// Record flight_[i], which is ready, and queue its check.
void Generator::complete(std::size_t i) {
  InFlight& f = flight_[i];
  const double done = now_s();
  const bwfft::ExecReport rep = f.fut.get();
  const Shape& s = request_mix()[static_cast<std::size_t>(f.shape)];
  ShapeBuffers& b = shapes_[static_cast<std::size_t>(f.shape)];
  const bool ok = rep.status.ok();
  if (ok) {
    engines[shape_name(s)] = rep.engine;
    b.oracle.begin(b.out[static_cast<std::size_t>(f.slot)].data());
    latency_ms.push_back((done - f.due) * 1e3);
  } else {
    ++failed;
    latency_ms.push_back(INFINITY);
    std::fprintf(stderr, "serve request failed: %s\n",
                 rep.status.message().c_str());
  }
  work_.push_back({f.shape, f.slot, ok, latency_ms.size() - 1});
  flight_.erase(flight_.begin() + static_cast<std::ptrdiff_t>(i));
}

// One bounded piece of a completed request's work. True once its slot is
// free again.
bool Generator::finish_step(Done& d) {
  ShapeBuffers& b = shapes_[static_cast<std::size_t>(d.shape)];
  const idx_t n = b.oracle.size();
  cplx* out = b.out[static_cast<std::size_t>(d.slot)].data();
  if (!d.checked) {
    if (d.ok) {
      const idx_t hi = std::min(n, d.pos + kChunk);
      d.err2 += ToneOracle::sum(out, d.pos, hi);
      d.pos = hi;
      if (d.pos < n) return false;
      const double err = b.oracle.finish(out, d.err2);
      max_error = std::max(max_error, err);
      if (!(err <= b.oracle.tolerance())) {
        ++failed;
        ++wrong_outputs;
        latency_ms[d.sample] = INFINITY;
        std::fprintf(stderr, "serve check failed: %s rel error %.3e\n",
                     shape_name(request_mix()[static_cast<std::size_t>(
                                    d.shape)])
                         .c_str(),
                     err);
      }
    }
    d.checked = true;
    d.pos = 0;
  }
  const idx_t hi = std::min(n, d.pos + 4 * kChunk);
  std::memcpy(b.in[static_cast<std::size_t>(d.slot)].data() + d.pos,
              b.pristine.data() + d.pos,
              static_cast<std::size_t>(hi - d.pos) * sizeof(cplx));
  d.pos = hi;
  if (d.pos < n) return false;
  b.free.push_back(d.slot);
  return true;
}

void Generator::warm(exec::BatchExecutor& ex) {
  for (std::size_t s = 0; s < shapes_.size(); ++s) {
    submit(ex, static_cast<int>(s), now_s());
    flight_.front().fut.wait();
    complete(0);
    while (!finish_step(work_.front())) {
    }
    work_.pop_front();
  }
}

void Generator::run(exec::BatchExecutor& ex) {
  const double start = now_s() + 1e-3;
  std::size_t next = 0;
  while (next < kRequests || !flight_.empty() || !work_.empty()) {
    const double due = start + static_cast<double>(next) / kRate;
    const double now = now_s();
    if (next < kRequests && now >= due) {
      const int shape = dist_(pick_);
      if (static_cast<int>(flight_.size()) >= kMaxBacklog ||
          shapes_[static_cast<std::size_t>(shape)].free.empty()) {
        // A growing backlog: stop offering load; the requests still due
        // are counted as skipped, not sent.
        skipped = kRequests - next;
        next = kRequests;
        continue;
      }
      submit(ex, shape, due);
      late_ms.push_back((now - due) * 1e3);
      ++next;
      continue;
    }
    bool progressed = false;
    for (std::size_t i = 0; i < flight_.size();) {
      if (flight_[i].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(i);
        progressed = true;
      } else {
        ++i;
      }
    }
    if (!work_.empty()) {
      if (finish_step(work_.front())) work_.pop_front();
      progressed = true;
    }
    if (progressed) continue;
    // Idle: block on the oldest request (it usually completes first, and
    // the wait returns the moment it does) until shortly before the next
    // request is due, so the generator leaves its core to the executor.
    double wake = now_s() + kIdleWait;
    if (next < kRequests) wake = std::min(wake, due - kDueMargin);
    if (wake <= now_s()) {
      std::this_thread::yield();
      continue;
    }
    const auto until = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(wake)));
    if (!flight_.empty()) {
      flight_.front().fut.wait_until(until);
    } else {
      std::this_thread::sleep_until(until);
    }
  }
}

double hist_quantile_ms(const exec::LatencyHistogram& after,
                        const exec::LatencyHistogram& before, double q) {
  exec::LatencyHistogram d;
  for (std::size_t i = 0; i < d.bucket.size(); ++i) {
    d.bucket[i] = after.bucket[i] - before.bucket[i];
    d.count += d.bucket[i];
  }
  return static_cast<double>(d.quantile_ns(q)) / 1e6;
}

}  // namespace

void probe_serving(std::uint64_t seed, Result& r) {
  bwfft::ThreadTeam helper(bwfft::online_cpus());
  Generator gen(seed, helper);
  exec::ServeOptions so;
  // The team and the generator together use every CPU.
  so.threads = std::max(1, bwfft::online_cpus() - 1);
  // Without SMT the role plan pins each compute/data pair to one core
  // (parallel/roles.cpp), so two team threads would share a CPU and
  // stall each other at every barrier.
  so.pin_threads = bwfft::host_topology().smt_per_core >= 2;
  {
    exec::BatchExecutor ex(so);
    gen.warm(ex);
    gen.latency_ms.clear();  // the warm-up requests built the plans
    const exec::ExecStats before = ex.stats();
    gen.run(ex);
    const exec::ExecStats after = ex.stats();

    Metrics& m = r.metrics;
    std::vector<double> lat = gen.latency_ms;
    for (double& x : lat) x = std::min(x, 1e9);  // JSON has no infinity
    set_metric(m, "exec.req_ms_p50", median(lat));
    set_metric(m, "exec.req_ms_p99", quantile(lat, 0.99));
    set_metric(m, "exec.queue_wait_ms_p50",
               hist_quantile_ms(after.queue_wait, before.queue_wait, 0.5));
    set_metric(m, "exec.queue_wait_ms_p99",
               hist_quantile_ms(after.queue_wait, before.queue_wait, 0.99));
    const auto batches = after.batches - before.batches;
    set_metric(m, "exec.batch_occupancy",
               batches ? static_cast<double>(after.batched_requests -
                                             before.batched_requests) /
                             static_cast<double>(batches)
                       : 0.0);
    set_metric(m, "exec.rejected",
               static_cast<double>(after.rejected_full - before.rejected_full +
                                   after.quota_rejected -
                                   before.quota_rejected));
    set_metric(m, "exec.shed", static_cast<double>(after.shed - before.shed));
    set_metric(m, "exec.timed_out",
               static_cast<double>(after.timed_out - before.timed_out));
    set_metric(m, "exec.gen_late_ms_p99", quantile(gen.late_ms, 0.99));
    set_metric(m, "exec.backlog_skipped", static_cast<double>(gen.skipped));
    const bwfft::tune::PlanCache::Stats cs = ex.cache().stats();
    set_metric(m, "tune.plan_cache_hit_frac",
               static_cast<double>(cs.hits) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, cs.hits + cs.misses)));
  }
  r.attempted += gen.attempted;
  r.failed += gen.failed;
  r.correct = r.correct && gen.wrong_outputs == 0;
  std::string engines;
  for (const auto& [shape, engine] : gen.engines) {
    engines += (engines.empty() ? "" : ", ") + shape + " " + engine;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "serving probe: %zu requests at %.0f/s, max rel error %.3e",
                gen.latency_ms.size(), kRate, gen.max_error);
  r.labels.push_back(buf);
  r.labels.push_back("serving engines: " + engines);
}

}  // namespace perfbench
