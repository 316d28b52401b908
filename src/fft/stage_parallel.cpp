#include "fft/stage_parallel.h"

#include "common/error.h"
#include "layout/rotate.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {
[[maybe_unused]] constexpr const char* kStageNames[3] = {"stage-0", "stage-1",
                                                         "stage-2"};
}  // namespace

StageParallelEngine::StageParallelEngine(std::vector<idx_t> dims,
                                         Direction dir,
                                         const FftOptions& opts)
    : dims_(std::move(dims)), dir_(dir), opts_(opts) {
  BWFFT_CHECK(dims_.size() == 2 || dims_.size() == 3,
              "stage-parallel engine supports 2D and 3D");
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
  const int p = resolve_role_counts(opts_).threads;
  team_ = parallel::make_team(p, {}, opts_.team_pool);
}

void StageParallelEngine::run_stage([[maybe_unused]] int stage_idx,
                                    const StageGeometry& g, const Fft1d& fft,
                                    cplx* src, cplx* dst) {
  const idx_t row_elems = g.row_elems();
  BWFFT_OBS_SCOPE(obs_stage, kStageNames[stage_idx % 3], 'G', g.rows());
  BWFFT_OBS_COUNT(BytesLoaded, g.rows() * row_elems * sizeof(cplx));
  BWFFT_OBS_COUNT(BytesStored, g.rows() * row_elems * sizeof(cplx));
  parallel_for_chunks(*team_, g.rows(), [&](int, idx_t b, idx_t e) {
    for (idx_t r = b; r < e; ++r) {
      cplx* row = src + r * row_elems;
      fft.apply_lanes(row, g.lanes, 1);
      // Temporal scatter: the classic algorithm does not know the packets
      // will not be reused, so it pays the cache pollution.
      rotate_store_rows(row, dst, r, 1, g.a, g.b, g.cp(), g.mu,
                        /*nontemporal=*/false);
    }
  });
}

void StageParallelEngine::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "engines are out of place");
  if (dims_.size() == 2) {
    run_stage(0, stages_[0], *ffts_[0], in, work_.data());
    run_stage(1, stages_[1], *ffts_[1], work_.data(), out);
  } else {
    run_stage(0, stages_[0], *ffts_[0], in, out);
    run_stage(1, stages_[1], *ffts_[1], out, in);
    run_stage(2, stages_[2], *ffts_[2], in, out);
  }
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(total_);
    parallel_for_chunks(*team_, total_, [&](int, idx_t b, idx_t e) {
      for (idx_t i = b; i < e; ++i) out[i] *= s;
    });
  }
}

}  // namespace bwfft
