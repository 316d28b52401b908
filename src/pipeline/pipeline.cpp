#include "pipeline/pipeline.h"

#include <chrono>
#include <thread>

#include "common/error.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"

namespace bwfft {

DoubleBufferPipeline::DoubleBufferPipeline(ThreadTeam& team, RolePlan roles,
                                           idx_t block_elems)
    : team_(team),
      roles_(std::move(roles)),
      block_elems_(block_elems),
      // The shared double buffer is the hottest multi-MB allocation in
      // the system (every block passes through it twice); prefer huge
      // pages for it, degrading to plain aligned memory when they are
      // unavailable (fault site "alloc.huge").
      buffer_(static_cast<std::size_t>(2 * block_elems),
              AllocPlacement::HugePage) {
  BWFFT_CHECK(block_elems > 0, "pipeline block must be non-empty");
  BWFFT_CHECK(roles_.total == team.size(),
              "role plan size must match team size");
}

void DoubleBufferPipeline::wait_at_barrier([[maybe_unused]] idx_t step) {
#if defined(BWFFT_FAULT)
  // Straggler injector with epoch selection: "pipeline.stall/<step>=<ms>"
  // delays one thread at the chosen pipeline step (the @skip field picks
  // which of the arrivals at that step stalls). The team's stall watchdog
  // then diagnoses the loss as kStall instead of hanging.
  if (fault::active()) {
    std::int64_t delay_ms = 0;
    if (fault::should_fire_value(fault::kSitePipelineStall,
                                 static_cast<long long>(step), &delay_ms)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(delay_ms > 0 ? delay_ms : 1000));
    }
  }
#endif
  // One slice + BarrierWaitNs per thread per step: the wait time IS the
  // pipeline's load-imbalance signal (a starved role shows up here).
  BWFFT_OBS_TASK(obs_wait, "barrier", 'B', step, BarrierWaitNs);
  team_.barrier().arrive_and_wait();
}

void DoubleBufferPipeline::record(idx_t step, TraceEvent::Kind kind,
                                  idx_t iter, int h, int tid) {
  if (!trace_) return;
  std::lock_guard<std::mutex> lk(trace_mu_);
  trace_->push_back({step, kind, iter, h, tid});
}

void DoubleBufferPipeline::execute(const PipelineStage& stage) {
  run(stage, /*overlap=*/roles_.data > 0);
}

void DoubleBufferPipeline::execute_unpipelined(const PipelineStage& stage) {
  run(stage, /*overlap=*/false);
}

void DoubleBufferPipeline::run(const PipelineStage& stage, bool overlap) {
  BWFFT_CHECK(stage.iterations >= 1, "stage needs >= 1 iteration");
  const idx_t iters = stage.iterations;
  const bool util = collect_util_;
  if (util) util_ = RoleUtilization{};
  Timer wall;

  // Per-thread busy-time accumulation, merged under the trace mutex when
  // the thread finishes its run body.
  auto merge_util = [&](double load_s, double compute_s, double store_s) {
    if (!util) return;
    std::lock_guard<std::mutex> lk(trace_mu_);
    util_.load_seconds += load_s;
    util_.compute_seconds += compute_s;
    util_.store_seconds += store_s;
  };

  if (!overlap) {
    // Sequential load/compute/store per iteration with the whole team on
    // each task. With no data threads in the role plan every thread
    // computes, so rank tid of p is also its compute-group rank.
    team_.run([&](int tid) {
      const int parts = roles_.total;
      double t_load = 0, t_comp = 0, t_store = 0;
      for (idx_t i = 0; i < iters; ++i) {
        cplx* buf = half(static_cast<int>(i % 2));
        Timer t;
        {
          BWFFT_OBS_TASK(obs_task, "load", 'L', i, LoadBusyNs);
          stage.load(i, buf, tid, parts);
        }
        t_load += t.seconds();
        record(i, TraceEvent::Kind::Load, i, static_cast<int>(i % 2), tid);
        wait_at_barrier(i);
        t.reset();
        {
          BWFFT_OBS_TASK(obs_task, "compute", 'C', i, ComputeBusyNs);
          stage.compute(i, buf, tid, parts);
        }
        t_comp += t.seconds();
        record(i, TraceEvent::Kind::Compute, i, static_cast<int>(i % 2), tid);
        wait_at_barrier(i);
        t.reset();
        {
          BWFFT_OBS_TASK(obs_task, "store", 'S', i, StoreBusyNs);
          stage.store(i, buf, tid, parts);
        }
        t_store += t.seconds();
        record(i, TraceEvent::Kind::Store, i, static_cast<int>(i % 2), tid);
        // The store may be non-temporal; drain the write-combining
        // buffers before the barrier publishes the output (the overlap
        // path fences every data step — this keeps the sequential path
        // under the same fence-pairing rule the static verifier proves).
        stream_fence();
        wait_at_barrier(i);
      }
      merge_util(t_load, t_comp, t_store);
    });
    if (util) util_.wall_seconds = wall.seconds();
    return;
  }

  // Table II schedule. Steps 0 .. iters+1; at step i the data threads
  // retire block i-2 and fetch block i on half (i mod 2) while the compute
  // threads transform block i-1 on the other half.
  team_.run([&](int tid) {
    const bool is_compute = roles_.is_compute(tid);
    const int rank = roles_.group_rank(tid);
    const int parts = is_compute ? roles_.compute : roles_.data;
    double t_load = 0, t_comp = 0, t_store = 0;
    for (idx_t step = 0; step < iters + 2; ++step) {
      if (!is_compute) {
        const int h = static_cast<int>(step % 2);
        if (step >= 2) {
          Timer t;
          {
            BWFFT_OBS_TASK(obs_task, "store", 'S', step - 2, StoreBusyNs);
            stage.store(step - 2, half(h), rank, parts);
          }
          t_store += t.seconds();
          record(step, TraceEvent::Kind::Store, step - 2, h, tid);
        }
        if (step < iters) {
          Timer t;
          {
            BWFFT_OBS_TASK(obs_task, "load", 'L', step, LoadBusyNs);
            stage.load(step, half(h), rank, parts);
          }
          t_load += t.seconds();
          record(step, TraceEvent::Kind::Load, step, h, tid);
        }
        // Make the streaming stores of this step globally visible before
        // the barrier hands the half back to the compute threads.
        stream_fence();
      } else {
        if (step >= 1 && step <= iters) {
          const int h = static_cast<int>((step + 1) % 2);
          Timer t;
          {
            BWFFT_OBS_TASK(obs_task, "compute", 'C', step - 1, ComputeBusyNs);
            stage.compute(step - 1, half(h), rank, parts);
          }
          t_comp += t.seconds();
          record(step, TraceEvent::Kind::Compute, step - 1, h, tid);
        }
      }
      wait_at_barrier(step);
    }
    merge_util(t_load, t_comp, t_store);
  });
  if (util) util_.wall_seconds = wall.seconds();
}

idx_t default_block_elems(const MachineTopology& topo) {
  // Both halves together occupy LLC/2 (§IV-A): per-half block = LLC/4.
  return std::max<idx_t>(topo.shared_buffer_elems() / 2, 1);
}

}  // namespace bwfft
