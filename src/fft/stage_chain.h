// Stage-chain engine: the 2D/3D rotated-stage decomposition (§III-A) run
// under one of two schedules, picked by FftOptions::engine through
// plan_stages().
//
// Double-buffer (StageSchedule::TableII) — the paper's contribution (§III,
// §IV). Each stage is tiled into blocks that fit one half of a
// cache-resident shared buffer (b = LLC/2 policy, §IV-A). Half the threads
// are soft-DMA data threads: per Table II they stream block i from main
// memory into one buffer half (R_{b,i}) and scatter the previously
// computed block back through the blocked rotation with non-temporal
// stores (W_{b,i}), while the compute threads run the batch 1D FFT kernel
// in place on the other half. Data makes exactly one round-trip through
// DRAM per stage at streaming-friendly granularity; all strided traffic is
// hidden behind compute.
//
// Stage-parallel (StageSchedule::Lockstep) — the transpose-based
// row–column comparator ("MKL/FFTW-like"). Each stage reads every row
// once, transforms it with the unit-stride batch kernel, and immediately
// scatters its cacheline packets through the blocked rotation to the
// destination array (temporal stores). Good kernels, good per-stage access
// patterns — but every stage is a full round trip through main memory with
// no overlap of data movement and computation, which is the structural
// property (§I, Fig 1) that caps MKL/FFTW below 50% of achievable peak.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "fft/engine.h"
#include "fft/stage.h"
#include "fft1d/fft1d.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"

namespace bwfft {

class StageChainEngine final : public MdEngine {
 public:
  StageChainEngine(std::vector<idx_t> dims, Direction dir,
                   const FftOptions& opts);
  void execute(cplx* in, cplx* out) override;
  const char* name() const override;

  /// Run with the Table II overlap disabled (load/compute/store in
  /// lockstep) — the pipelining-ablation benchmark uses this. A Lockstep
  /// plan has no overlap to disable and runs as execute().
  void execute_unpipelined(cplx* in, cplx* out);

  /// The resolved plan this engine executes.
  const StagePlan& plan() const { return plan_; }

  /// Wall time and iteration count of each stage in the last execute call
  /// (2 entries for 2D plans, 3 for 3D). Useful for stage-balance
  /// analysis: the paper's Fig 9 discussion of small iteration counts is
  /// directly visible here.
  struct StageStats {
    double seconds = 0.0;
    idx_t iterations = 0;
    idx_t block_rows = 0;
    /// Per-role busy time (Table II plans with set_collect_utilization).
    DoubleBufferPipeline::RoleUtilization util;
  };
  const std::vector<StageStats>& last_stats() const { return stats_; }

  /// Collect per-role busy times into last_stats() (small overhead).
  /// Lockstep plans have no roles and ignore it.
  void set_collect_utilization(bool on) {
    if (pipeline_) pipeline_->set_collect_utilization(on);
  }

 private:
  void run_stage(std::size_t s, cplx* src, cplx* dst, bool pipelined);
  void run_all(cplx* in, cplx* out, bool pipelined);

  Direction dir_;
  FftOptions opts_;
  StagePlan plan_;
  std::vector<std::shared_ptr<Fft1d>> ffts_;  // per stage
  std::shared_ptr<ThreadTeam> team_;  // pooled or private (FftOptions::team_pool)
  std::unique_ptr<DoubleBufferPipeline> pipeline_;  // Table II plans only
  AlignedBuffer<cplx> work_;  // 2D intermediate (huge-page preferred)
  idx_t total_ = 1;
  std::vector<StageStats> stats_;
};

}  // namespace bwfft
