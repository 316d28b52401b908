// BatchExecutor — the persistent serving layer. Covers correctness of
// served transforms (vs the reference DFT), concurrent producers (the
// test CI runs under TSan), same-shape coalescing, queue-full
// backpressure, deadline expiry, graceful shutdown, and continued
// service through an injected worker-lost fault.
#include "exec/batch_executor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "fft/reference.h"
#include "parallel/team_pool.h"
#include "../test_util.h"

namespace bwfft::exec {
namespace {

using namespace std::chrono_literals;
using test::fft_tol;
using test::max_err;

/// One request's buffers plus the reference answer, kept alive until the
/// future resolves (the executor borrows in/out, it does not own them).
struct Case {
  std::vector<idx_t> dims;
  Direction dir = Direction::Forward;
  cvec in, out, want;

  Case(std::vector<idx_t> d, Direction dr, unsigned seed) : dims(std::move(d)), dir(dr) {
    idx_t total = 1;
    for (idx_t n : dims) total *= n;
    in = random_cvec(total, seed);
    out.assign(in.size(), cplx{-7.0, -7.0});  // sentinel: untouched on reject
    want.resize(in.size());
    if (dims.size() == 1) {
      reference_dft_1d(in.data(), want.data(), dims[0], dir);
    } else if (dims.size() == 2) {
      reference_dft_2d(in.data(), want.data(), dims[0], dims[1], dir);
    } else {
      reference_dft_3d(in.data(), want.data(), dims[0], dims[1], dims[2], dir);
    }
  }

  Request request(Clock::time_point deadline = {}) {
    Request r;
    r.dims = dims;
    r.dir = dir;
    r.in = in.data();
    r.out = out.data();
    r.deadline = deadline;
    return r;
  }

  void expect_correct() const {
    EXPECT_LT(max_err(want, out), fft_tol(static_cast<double>(want.size())));
  }
  void expect_untouched() const {
    for (const cplx& c : out) {
      ASSERT_EQ(cplx(-7.0, -7.0), c) << "rejected request ran anyway";
    }
  }
};

TEST(BatchExecutor, ServesSingle2dRequest) {
  BatchExecutor ex;
  Case c({8, 16}, Direction::Forward, 7001);
  ExecReport rep = ex.submit(c.request()).get();
  ASSERT_TRUE(rep.status.ok()) << rep.status.str();
  c.expect_correct();
  const ExecStats s = ex.stats();
  EXPECT_EQ(1u, s.submitted);
  EXPECT_EQ(1u, s.completed);
  EXPECT_EQ(0u, s.failed);
  EXPECT_EQ(1u, s.end_to_end.count);
  EXPECT_EQ(1u, s.queue_wait.count);
}

TEST(BatchExecutor, ServesSingle1dRequest) {
  // 1D shapes route through the large-1D adapters (docs/INTERNALS.md
  // §15) like any other rank — same queue, same plan cache.
  BatchExecutor ex;
  Case c({idx_t{1} << 12}, Direction::Forward, 7010);
  ExecReport rep = ex.submit(c.request()).get();
  ASSERT_TRUE(rep.status.ok()) << rep.status.str();
  c.expect_correct();
}

TEST(BatchExecutor, ServesSingle3dRequestBothDirections) {
  BatchExecutor ex;
  Case fwd({4, 8, 8}, Direction::Forward, 7002);
  Case inv({4, 8, 8}, Direction::Inverse, 7003);
  auto f1 = ex.submit(fwd.request());
  auto f2 = ex.submit(inv.request());
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  fwd.expect_correct();
  inv.expect_correct();
}

TEST(BatchExecutor, ExecuteManyMixedShapes) {
  BatchExecutor ex;
  std::vector<Case> cases;
  cases.emplace_back(std::vector<idx_t>{8, 8}, Direction::Forward, 7010);
  cases.emplace_back(std::vector<idx_t>{4, 4, 4}, Direction::Forward, 7011);
  cases.emplace_back(std::vector<idx_t>{8, 8}, Direction::Inverse, 7012);
  cases.emplace_back(std::vector<idx_t>{16, 8}, Direction::Forward, 7013);
  cases.emplace_back(std::vector<idx_t>{4, 4, 4}, Direction::Forward, 7014);

  std::vector<Request> reqs;
  for (Case& c : cases) reqs.push_back(c.request());
  std::vector<ExecReport> reports;
  const Status st = ex.execute_many(std::move(reqs), &reports);
  ASSERT_TRUE(st.ok()) << st.str();
  ASSERT_EQ(cases.size(), reports.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_TRUE(reports[i].status.ok()) << i << ": " << reports[i].status.str();
    cases[i].expect_correct();
  }
  EXPECT_EQ(cases.size(), ex.stats().completed);
}

// The TSan headline test: N producer threads hammer one executor with
// mixed 2D/3D shapes and verify every result against the reference DFT.
TEST(BatchExecutor, ConcurrentProducersMixedShapes) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  BatchExecutor ex;

  std::vector<std::thread> producers;
  std::vector<int> failures(kProducers, 0);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::vector<std::vector<idx_t>> shapes = {
          {8, 8}, {4, 4, 4}, {16, 8}, {2, 4, 8}};
      for (int i = 0; i < kPerProducer; ++i) {
        Case c(shapes[static_cast<std::size_t>(i) % shapes.size()],
               i % 2 ? Direction::Inverse : Direction::Forward,
               static_cast<unsigned>(7100 + p * 100 + i));
        ExecReport rep = ex.submit(c.request()).get();
        const double err = test::max_err(c.want, c.out);
        if (!rep.status.ok() ||
            err >= fft_tol(static_cast<double>(c.want.size()))) {
          ++failures[static_cast<std::size_t>(p)];
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(0, failures[static_cast<std::size_t>(p)]) << "producer " << p;
  }
  const ExecStats s = ex.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(kProducers * kPerProducer), s.submitted);
  EXPECT_EQ(static_cast<std::uint64_t>(kProducers * kPerProducer), s.completed);
  EXPECT_EQ(0u, s.failed);
}

TEST(BatchExecutor, CoalescesSameShapeRequestsIntoOneBatch) {
  ServeOptions o;
  o.start_paused = true;  // queue everything before the dispatcher runs
  BatchExecutor ex(o);
  std::vector<Case> cases;
  std::vector<std::future<ExecReport>> futures;
  for (int i = 0; i < 6; ++i) {
    cases.emplace_back(std::vector<idx_t>{8, 8}, Direction::Forward,
                       static_cast<unsigned>(7200 + i));
  }
  for (Case& c : cases) futures.push_back(ex.submit(c.request()));
  ex.resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  for (const Case& c : cases) c.expect_correct();

  const ExecStats s = ex.stats();
  EXPECT_EQ(1u, s.batches) << "six queued same-shape requests must coalesce";
  EXPECT_EQ(6u, s.batched_requests);
  EXPECT_EQ(6u, s.max_batch_occupancy);
  EXPECT_DOUBLE_EQ(6.0, s.batch_occupancy());
  EXPECT_GE(s.peak_queue_depth, 6u);
}

TEST(BatchExecutor, MaxBatchBoundsOneDispatchSweep) {
  ServeOptions o;
  o.start_paused = true;
  o.max_batch = 2;
  BatchExecutor ex(o);
  std::vector<Case> cases;
  std::vector<std::future<ExecReport>> futures;
  for (int i = 0; i < 6; ++i) {
    cases.emplace_back(std::vector<idx_t>{8, 8}, Direction::Forward,
                       static_cast<unsigned>(7250 + i));
  }
  for (Case& c : cases) futures.push_back(ex.submit(c.request()));
  ex.resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  const ExecStats s = ex.stats();
  EXPECT_GE(s.batches, 3u);  // 6 requests, <= 2 per sweep
  EXPECT_LE(s.max_batch_occupancy, 2u);
}

TEST(BatchExecutor, FullQueueRejectsWithQueueFull) {
  ServeOptions o;
  o.start_paused = true;
  o.queue_capacity = 2;
  BatchExecutor ex(o);
  Case a({8, 8}, Direction::Forward, 7301);
  Case b({8, 8}, Direction::Forward, 7302);
  Case rejected({8, 8}, Direction::Forward, 7303);
  auto fa = ex.submit(a.request());
  auto fb = ex.submit(b.request());
  auto fr = ex.submit(rejected.request());
  // The rejection is immediate (no deadline => no waiting for space).
  ASSERT_EQ(std::future_status::ready, fr.wait_for(0s));
  ExecReport rep = fr.get();
  EXPECT_EQ(ErrorCode::kQueueFull, rep.status.code()) << rep.status.str();
  rejected.expect_untouched();
  {
    const ExecStats s = ex.stats();
    EXPECT_EQ(2u, s.submitted);
    EXPECT_EQ(1u, s.rejected_full);
  }
  // Backpressure is about the queue, not the service: the accepted
  // requests complete once the dispatcher resumes.
  ex.resume();
  EXPECT_TRUE(fa.get().status.ok());
  EXPECT_TRUE(fb.get().status.ok());
  a.expect_correct();
  b.expect_correct();
}

TEST(BatchExecutor, DeadlineBoundsTheWaitForQueueSpace) {
  ServeOptions o;
  o.start_paused = true;
  o.queue_capacity = 1;
  BatchExecutor ex(o);
  Case a({8, 8}, Direction::Forward, 7310);
  Case late({8, 8}, Direction::Forward, 7311);
  auto fa = ex.submit(a.request());
  const auto t0 = Clock::now();
  ExecReport rep = ex.submit(late.request(t0 + 40ms)).get();
  EXPECT_GE(Clock::now() - t0, 40ms) << "deadline submit must wait for space";
  EXPECT_EQ(ErrorCode::kQueueFull, rep.status.code()) << rep.status.str();
  late.expect_untouched();
  ex.resume();
  EXPECT_TRUE(fa.get().status.ok());
}

TEST(BatchExecutor, DeadlineAlreadyExpiredRejectsOnSubmit) {
  BatchExecutor ex;
  Case c({8, 8}, Direction::Forward, 7320);
  auto fut = ex.submit(c.request(Clock::now() - 1ms));
  ASSERT_EQ(std::future_status::ready, fut.wait_for(0s));
  ExecReport rep = fut.get();
  EXPECT_EQ(ErrorCode::kTimeout, rep.status.code()) << rep.status.str();
  c.expect_untouched();
  EXPECT_EQ(1u, ex.stats().timed_out);
  EXPECT_EQ(0u, ex.stats().submitted);
}

TEST(BatchExecutor, DeadlineExpiryWhileQueuedCompletesWithTimeout) {
  ServeOptions o;
  o.start_paused = true;
  BatchExecutor ex(o);
  Case c({8, 8}, Direction::Forward, 7330);
  auto fut = ex.submit(c.request(Clock::now() + 30ms));
  std::this_thread::sleep_for(80ms);  // deadline passes while queued
  ex.resume();
  ExecReport rep = fut.get();
  EXPECT_EQ(ErrorCode::kTimeout, rep.status.code()) << rep.status.str();
  c.expect_untouched();
  const ExecStats s = ex.stats();
  EXPECT_EQ(1u, s.timed_out);
  EXPECT_EQ(0u, s.completed);
  EXPECT_EQ(0u, s.failed) << "a timeout is not an execution failure";
}

TEST(BatchExecutor, ShutdownDrainsQueuedRequestsThenRejectsNewOnes) {
  ServeOptions o;
  o.start_paused = true;
  auto ex = std::make_unique<BatchExecutor>(o);
  Case a({8, 8}, Direction::Forward, 7340);
  Case b({4, 4, 4}, Direction::Forward, 7341);
  auto fa = ex->submit(a.request());
  auto fb = ex->submit(b.request());
  // shutdown() on a paused executor still drains the backlog before the
  // dispatcher exits — queued callers are never abandoned.
  ex->shutdown();
  EXPECT_TRUE(fa.get().status.ok());
  EXPECT_TRUE(fb.get().status.ok());
  a.expect_correct();
  b.expect_correct();

  Case late({8, 8}, Direction::Forward, 7342);
  ExecReport rep = ex->submit(late.request()).get();
  EXPECT_EQ(ErrorCode::kQueueFull, rep.status.code());
  EXPECT_NE(std::string::npos, rep.status.message().find("shut down"));
  late.expect_untouched();
  ex->shutdown();  // idempotent
  ex.reset();      // destructor after explicit shutdown
}

TEST(BatchExecutor, BadShapeFailsThatRequestNotTheService) {
  BatchExecutor ex;
  // 2 entries required per dim >= 1; a zero dim is a kBadPlan at
  // construction, which must come back through the future, not throw in
  // the dispatcher.
  cvec buf(4);
  Request bad;
  bad.dims = {0, 4};
  bad.in = buf.data();
  bad.out = buf.data();
  ExecReport rep = ex.submit(std::move(bad)).get();
  EXPECT_FALSE(rep.status.ok());
  EXPECT_EQ(1u, ex.stats().failed);
  // The service keeps serving.
  Case c({8, 8}, Direction::Forward, 7350);
  EXPECT_TRUE(ex.submit(c.request()).get().status.ok());
  c.expect_correct();
}

// The ISSUE's resilience requirement: a fault-injected worker-lost run
// must degrade that plan and keep the service alive.
TEST(BatchExecutor, WorkerLostFaultDegradesPlanButServiceContinues) {
  fault::clear();
  fault::reset_stats();
  BatchExecutor ex;  // persistent team spawns before the fault is armed

  // Drop the pooled teams so the next plan build must spawn fresh ones —
  // and arm a persistent spawn failure. The recovering builder inside
  // CachedPlan degrades the plan down to the reference engine.
  parallel::TeamPool::global().clear();
  std::string err;
  ASSERT_TRUE(fault::set_plan_from_spec("spawn.thread:*", &err)) << err;

  Case degraded({16, 4}, Direction::Forward, 7360);
  ExecReport rep = ex.submit(degraded.request()).get();
  EXPECT_TRUE(rep.status.ok()) << rep.status.str();
  degraded.expect_correct();
  EXPECT_GE(fault::fired_count(fault::kSiteSpawnThread), 1u);
  EXPECT_STREQ("reference", rep.engine.c_str());

  // Same shape after the fault clears: the sticky degraded plan still
  // serves from the cache.
  fault::clear();
  Case again({16, 4}, Direction::Forward, 7361);
  EXPECT_TRUE(ex.submit(again.request()).get().status.ok());
  again.expect_correct();

  // A new shape plans with healthy spawns again: full service restored.
  Case fresh({4, 16}, Direction::Forward, 7362);
  EXPECT_TRUE(ex.submit(fresh.request()).get().status.ok());
  fresh.expect_correct();

  const ExecStats s = ex.stats();
  EXPECT_EQ(3u, s.completed);
  EXPECT_EQ(0u, s.failed);
  fault::reset_stats();
}

// Satellite (c) of ISSUE-9: a paused executor accumulates a
// mixed-priority backlog; on resume it must drain in the documented
// LaneQueue order — interactive first, one batch item woven in after
// every `batch_starvation_limit` interactive pops. max_batch = 1 makes
// the completion order equal the pop order (no coalescing reorder), and
// a sky-high CoDel target keeps shedding out of the picture.
TEST(BatchExecutor, PausedMixedBacklogDrainsInDocumentedLaneOrder) {
  ServeOptions o;
  o.start_paused = true;
  o.max_batch = 1;
  o.admission.batch_starvation_limit = 2;
  o.admission.codel_target = std::chrono::seconds(10);
  BatchExecutor ex(o);

  std::vector<Case> cases;
  for (int i = 0; i < 8; ++i) {
    cases.emplace_back(std::vector<idx_t>{8, 8}, Direction::Forward,
                       static_cast<unsigned>(7400 + i));
  }
  std::vector<std::future<ExecReport>> futures;
  // Batch submits land first; interactive still drains ahead of them.
  for (int i = 0; i < 3; ++i) {
    Request r = cases[static_cast<std::size_t>(i)].request();
    r.lane = Lane::kBatch;
    futures.push_back(ex.submit(std::move(r)));
  }
  for (int i = 3; i < 8; ++i) {
    futures.push_back(ex.submit(cases[static_cast<std::size_t>(i)].request()));
  }
  ex.resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  for (const Case& c : cases) c.expect_correct();

  const ExecStats s = ex.stats();
  EXPECT_EQ(5u, s.submitted_by_lane[0]);
  EXPECT_EQ(3u, s.submitted_by_lane[1]);
  EXPECT_EQ(5u, s.completed_by_lane[0]);
  EXPECT_EQ(3u, s.completed_by_lane[1]);
  ASSERT_EQ(8u, s.completion_order.size());
  std::string order;
  for (int lane : s.completion_order) {
    order += lane == static_cast<int>(Lane::kInteractive) ? 'I' : 'B';
  }
  EXPECT_EQ("IIBIIBIB", order) << "anti-starvation weave (limit=2)";
}

TEST(LatencyHistogram, QuantilesBracketAddedSamples) {
  LatencyHistogram h;
  EXPECT_EQ(0u, h.quantile_ns(0.5));
  h.add(1);            // bucket 0: [1, 2)
  h.add(1u << 20);     // bucket 20
  EXPECT_EQ(2u, h.count);
  EXPECT_EQ(1u, h.quantile_ns(0.5));
  EXPECT_EQ((1u << 21) - 1, h.quantile_ns(1.0));
  for (int i = 0; i < 98; ++i) h.add(1u << 10);
  // p50 now falls in the 2^10 bucket; p99+ still sees the outlier.
  EXPECT_EQ((1u << 11) - 1, h.quantile_ns(0.5));
  EXPECT_EQ((1u << 21) - 1, h.quantile_ns(0.999));
}

}  // namespace
}  // namespace bwfft::exec
