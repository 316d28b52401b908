// The schedule generator against the schedule checker, and the static
// plan model against the executing engine. make_table2_trace() emits the
// one trace a correct Table II run records and audit_schedule() must
// accept it for every role split, including the degraded sequential
// schedule, while rejecting every corruption of it. The plan model must
// derive the per-stage iteration counts the engine actually runs.
#include <vector>

#include <gtest/gtest.h>

#include "analysis/hazard_checker.h"
#include "analysis/static_verify.h"
#include "common/rng.h"
#include "common/topology.h"
#include "fft/stage_chain.h"
#include "parallel/roles.h"

namespace bwfft {
namespace {

using analysis::Trace;

RolePlan roles_for(int total, int compute) {
  return make_role_plan(total, compute, host_topology());
}

void expect_clean(const Trace& trace, idx_t iters, const RolePlan& roles) {
  const auto rep = analysis::audit_schedule(trace, iters, roles);
  EXPECT_TRUE(rep.clean()) << rep.str();
}

void expect_dirty(const Trace& trace, idx_t iters, const RolePlan& roles) {
  EXPECT_FALSE(analysis::audit_schedule(trace, iters, roles).clean());
}

TEST(CrossCheck, CanonicalTracesAgreeClean) {
  for (int threads : {2, 4, 8}) {
    for (int compute : {threads / 2, threads - 1, threads}) {
      if (compute < 1) continue;
      const RolePlan roles = roles_for(threads, compute);
      for (idx_t iters : {idx_t{1}, idx_t{2}, idx_t{6}}) {
        const Trace trace = analysis::make_table2_trace(iters, roles);
        expect_clean(trace, iters, roles);
      }
    }
  }
}

TEST(CrossCheck, DegradedSequentialScheduleAgrees) {
  // compute == total leaves no data threads: the degraded sequential
  // schedule, which the checker must also accept.
  const RolePlan roles = roles_for(4, 4);
  ASSERT_EQ(roles.data, 0);
  for (idx_t iters : {idx_t{1}, idx_t{3}}) {
    expect_clean(analysis::make_table2_trace(iters, roles), iters, roles);
  }
}

TEST(CrossCheck, SingleThreadTeamAgrees) {
  const RolePlan roles = roles_for(1, 1);
  expect_clean(analysis::make_table2_trace(4, roles), 4, roles);
}

// Every corruption of a valid trace must be rejected.
class CrossCheckCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    roles_ = roles_for(4, 2);
    ASSERT_GT(roles_.data, 0);
    trace_ = analysis::make_table2_trace(iters_, roles_);
    ASSERT_FALSE(trace_.empty());
  }

  idx_t iters_ = 4;
  RolePlan roles_;
  Trace trace_;
};

TEST_F(CrossCheckCorruption, WrongHalf) {
  trace_.front().half ^= 1;
  expect_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, DuplicateEvent) {
  trace_.push_back(trace_.front());
  expect_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, MissingEvent) {
  trace_.pop_back();
  expect_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, WrongStep) {
  trace_.front().step += 1;
  expect_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, StoreBeforeLoadSwap) {
  // Swap a data thread's store(i-2) with its load(i) inside one step:
  // the S4 retire-before-refill order is violated while every slot stays
  // filled.
  using Kind = DoubleBufferPipeline::TraceEvent::Kind;
  bool swapped = false;
  for (std::size_t i = 0; i + 1 < trace_.size() && !swapped; ++i) {
    auto& a = trace_[i];
    auto& b = trace_[i + 1];
    if (a.kind == Kind::Store && b.kind == Kind::Load && a.tid == b.tid &&
        a.step == b.step) {
      std::swap(a, b);
      swapped = true;
    }
  }
  ASSERT_TRUE(swapped) << "no store/load pair found to swap";
  expect_dirty(trace_, iters_, roles_);
}

// The static model and the executing engine read one plan: over a grid of
// shapes, schedules, role splits and block sizes, the per-stage iteration
// counts build_plan_model derives equal the ones the engine ran.
TEST(CrossCheck, PlanModelIterationsMatchEngineStats) {
  const std::vector<std::vector<idx_t>> shapes = {
      {64, 64}, {48, 80}, {16, 16, 16}, {8, 16, 32}};
  for (const auto& dims : shapes) {
    idx_t total = 1;
    for (idx_t d : dims) total *= d;
    for (EngineKind e : {EngineKind::DoubleBuffer, EngineKind::StageParallel}) {
      for (int p : {1, 2, 4}) {
        for (int pc : {-1, 0, p}) {
          for (idx_t block : {idx_t{0}, idx_t{256}}) {
            FftOptions o;
            o.engine = e;
            o.threads = p;
            o.compute_threads = pc;
            o.block_elems = block;
            analysis::PlanModel model;
            std::string why;
            ASSERT_TRUE(analysis::build_plan_model(dims, o, &model, &why))
                << why;
            StageChainEngine eng(dims, Direction::Forward, o);
            cvec in = random_cvec(total, 12), out(in.size());
            eng.execute(in.data(), out.data());
            const auto& st = eng.last_stats();
            ASSERT_EQ(model.stages.size(), st.size());
            for (std::size_t s = 0; s < st.size(); ++s) {
              EXPECT_EQ(model.stages[s].iterations, st[s].iterations)
                  << model.label() << " block=" << block << " stage " << s;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bwfft
