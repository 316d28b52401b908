#include "fft/double_buffer.h"

#include <cstring>

#include "analysis/hazard_checker.h"
#include "common/error.h"
#include "common/timer.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {
[[maybe_unused]] constexpr const char* kStageNames[3] = {"stage-0", "stage-1",
                                                         "stage-2"};
}  // namespace

DoubleBufferEngine::DoubleBufferEngine(std::vector<idx_t> dims, Direction dir,
                                       const FftOptions& opts)
    : dims_(std::move(dims)), dir_(dir), opts_(opts) {
  BWFFT_CHECK(dims_.size() == 2 || dims_.size() == 3,
              "double-buffer engine supports 2D and 3D");
  for (idx_t d : dims_) total_ *= d;
  if (dims_.size() == 2) {
    const idx_t mu = resolve_packet_size(opts_.packet_elems, dims_[1]);
    auto s = make_2d_stages(dims_[0], dims_[1], mu);
    stages_.assign(s.begin(), s.end());
    work_ = AlignedBuffer<cplx>(static_cast<std::size_t>(total_),
                                AllocPlacement::HugePage);
  } else {
    const idx_t mu = resolve_packet_size(opts_.packet_elems, dims_[2]);
    auto s = make_3d_stages(dims_[0], dims_[1], dims_[2], mu);
    stages_.assign(s.begin(), s.end());
  }
  for (const auto& g : stages_) {
    ffts_.push_back(std::make_shared<Fft1d>(g.fft_len, dir_, opts_.isa));
  }

  const auto [p, pc] = resolve_role_counts(opts_);
  roles_ = make_role_plan(p, pc, opts_.topo);
  team_ = parallel::make_team(
      p, opts_.pin_threads ? roles_.cpu : std::vector<int>{},
      opts_.team_pool);

  // Block size: the LLC policy, but always at least one row of the widest
  // stage so every stage tiles into whole rows.
  idx_t block = opts_.block_elems > 0 ? opts_.block_elems
                                      : default_block_elems(opts_.topo);
  for (const auto& g : stages_) block = std::max(block, g.row_elems());
  pipeline_ = std::make_unique<DoubleBufferPipeline>(*team_, roles_, block);
}

void DoubleBufferEngine::run_stage(const StageGeometry& g, const Fft1d& fft,
                                   const cplx* src, cplx* dst,
                                   bool pipelined) {
  const idx_t row_elems = g.row_elems();
  const idx_t block_rows =
      rows_per_block(g.rows(), pipeline_->block_elems() / row_elems);
  const bool nt = opts_.nontemporal;

  PipelineStage stage;
  stage.iterations = g.rows() / block_rows;
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

  Timer timer;
  BWFFT_OBS_SCOPE(obs_stage, kStageNames[stats_.size() % 3], 'G', g.rows());
  if (pipelined) {
    if (analysis::self_check_enabled()) {
      // Self-audit (checked builds, or BWFFT_SELF_CHECK=1): record the
      // schedule and validate the Table II invariants after the stage.
      analysis::Trace trace;
      pipeline_->set_trace(&trace);
      try {
        pipeline_->execute(stage);
      } catch (...) {
        pipeline_->set_trace(nullptr);
        throw;
      }
      pipeline_->set_trace(nullptr);
      const auto rep = analysis::audit_schedule(trace, stage.iterations, roles_);
      BWFFT_CHECK(rep.clean(), "pipeline schedule hazard:\n" + rep.str());
    } else {
      pipeline_->execute(stage);
    }
  } else {
    pipeline_->execute_unpipelined(stage);
  }
  stats_.push_back({timer.seconds(), stage.iterations, block_rows,
                    pipeline_->last_utilization()});
}

void DoubleBufferEngine::run_all(cplx* in, cplx* out, bool pipelined) {
  BWFFT_CHECK(in != out, "engines are out of place");
  stats_.clear();
  if (dims_.size() == 2) {
    run_stage(stages_[0], *ffts_[0], in, work_.data(), pipelined);
    run_stage(stages_[1], *ffts_[1], work_.data(), out, pipelined);
  } else {
    run_stage(stages_[0], *ffts_[0], in, out, pipelined);
    run_stage(stages_[1], *ffts_[1], out, in, pipelined);
    run_stage(stages_[2], *ffts_[2], in, out, pipelined);
  }
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(total_);
    parallel_for_chunks(*team_, total_, [&](int, idx_t b, idx_t e) {
      for (idx_t i = b; i < e; ++i) out[i] *= s;
    });
  }
}

void DoubleBufferEngine::execute(cplx* in, cplx* out) {
  run_all(in, out, /*pipelined=*/true);
}

void DoubleBufferEngine::execute_unpipelined(cplx* in, cplx* out) {
  run_all(in, out, /*pipelined=*/false);
}

}  // namespace bwfft
