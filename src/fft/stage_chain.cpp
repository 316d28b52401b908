#include "fft/stage_chain.h"

#include <cstring>

#include "analysis/hazard_checker.h"
#include "common/error.h"
#include "common/timer.h"
#include "layout/rotate.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {
[[maybe_unused]] constexpr const char* kStageNames[3] = {"stage-0", "stage-1",
                                                         "stage-2"};
}  // namespace

StageChainEngine::StageChainEngine(std::vector<idx_t> dims, Direction dir,
                                   const FftOptions& opts)
    : dir_(dir), opts_(opts) {
  BWFFT_CHECK(dims.size() == 2 || dims.size() == 3,
              "stage-chain engines support 2D and 3D");
  plan_ = plan_stages(dims, opts_);
  BWFFT_CHECK(plan_.ok(), plan_.why);
  for (idx_t d : dims) total_ *= d;
  if (dims.size() == 2) {
    work_ = AlignedBuffer<cplx>(static_cast<std::size_t>(total_),
                                AllocPlacement::HugePage);
  }
  for (const auto& g : plan_.chain) {
    ffts_.push_back(std::make_shared<Fft1d>(g.fft_len, dir_, opts_.isa));
  }
  if (plan_.schedule == StageSchedule::Lockstep) {
    team_ = parallel::make_team(plan_.threads, {}, opts_.team_pool);
    return;
  }
  const RolePlan roles =
      make_role_plan(plan_.threads, plan_.compute, opts_.topo);
  team_ = parallel::make_team(
      plan_.threads, opts_.pin_threads ? roles.cpu : std::vector<int>{},
      opts_.team_pool);
  pipeline_ =
      std::make_unique<DoubleBufferPipeline>(*team_, roles, plan_.block_elems);
}

const char* StageChainEngine::name() const {
  return plan_.schedule == StageSchedule::Lockstep ? "stage-parallel"
                                                   : "double-buffer";
}

void StageChainEngine::run_stage(std::size_t s, cplx* src, cplx* dst,
                                 bool pipelined) {
  const StageGeometry& g = plan_.chain[s];
  const Fft1d& fft = *ffts_[s];
  const idx_t row_elems = g.row_elems();
  Timer timer;
  BWFFT_OBS_SCOPE(obs_stage, kStageNames[s % 3], 'G', g.rows());

  if (plan_.schedule == StageSchedule::Lockstep) {
    BWFFT_OBS_COUNT(BytesLoaded, g.rows() * row_elems * sizeof(cplx));
    BWFFT_OBS_COUNT(BytesStored, g.rows() * row_elems * sizeof(cplx));
    parallel_for_chunks(*team_, g.rows(), [&](int, idx_t b, idx_t e) {
      for (idx_t r = b; r < e; ++r) {
        cplx* row = src + r * row_elems;
        fft.apply_lanes(row, g.lanes, 1);
        // Temporal scatter: the classic algorithm does not know the
        // packets will not be reused, so it pays the cache pollution.
        rotate_store_rows(row, dst, r, 1, g.a, g.b, g.cp(), g.mu,
                          /*nontemporal=*/false);
      }
    });
    stats_.push_back({timer.seconds(), 1, g.rows(), {}});
    return;
  }

  const idx_t block_rows = plan_.block_rows[s];
  const bool nt = plan_.nontemporal;
  PipelineStage stage;
  stage.iterations = plan_.iterations(s);
  // R_{b,i}: stream block i's rows into the buffer half. The stores are
  // temporal on purpose — the compute threads read them next iteration.
  stage.load = [=](idx_t i, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) {
      std::memcpy(buf + r0 * row_elems,
                  src + (i * block_rows + r0) * row_elems,
                  static_cast<std::size_t>((r1 - r0) * row_elems) *
                      sizeof(cplx));
      BWFFT_OBS_COUNT(BytesLoaded, (r1 - r0) * row_elems * sizeof(cplx));
    }
  };
  // Compute kernel: I_{rows} (x) DFT_L (x) I_lanes, in place on the half.
  stage.compute = [=, &fft](idx_t, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) fft.apply_lanes(buf + r0 * row_elems, g.lanes, r1 - r0);
  };
  // W_{b,i}: scatter the block through the blocked rotation with
  // non-temporal stores (the data is dead until the next stage).
  stage.store = [=](idx_t i, const cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) {
      rotate_store_rows(buf + r0 * row_elems, dst, i * block_rows + r0,
                        r1 - r0, g.a, g.b, g.cp(), g.mu, nt);
      BWFFT_OBS_COUNT(BytesStored, (r1 - r0) * row_elems * sizeof(cplx));
    }
  };

  if (pipelined) {
    analysis::execute_self_checked(*pipeline_, stage);
  } else {
    pipeline_->execute_unpipelined(stage);
  }
  stats_.push_back({timer.seconds(), stage.iterations, block_rows,
                    pipeline_->last_utilization()});
}

void StageChainEngine::run_all(cplx* in, cplx* out, bool pipelined) {
  BWFFT_CHECK(in != out, "engines are out of place");
  stats_.clear();
  if (plan_.chain.size() == 2) {
    run_stage(0, in, work_.data(), pipelined);
    run_stage(1, work_.data(), out, pipelined);
  } else {
    run_stage(0, in, out, pipelined);
    run_stage(1, out, in, pipelined);
    run_stage(2, in, out, pipelined);
  }
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    scale_inverse(*team_, out, total_, total_);
  }
}

void StageChainEngine::execute(cplx* in, cplx* out) {
  run_all(in, out, /*pipelined=*/true);
}

void StageChainEngine::execute_unpipelined(cplx* in, cplx* out) {
  run_all(in, out, /*pipelined=*/false);
}

}  // namespace bwfft
