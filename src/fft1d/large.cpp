#include "fft1d/large.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "fft/stage.h"
#include "kernels/batch.h"
#include "kernels/twiddle.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {

/// Refresh the twiddle recurrence with an exactly computed root every this
/// many steps, bounding the multiplicative drift to ~128 eps (well under
/// the transform's own O(sqrt(log n)) rounding growth).
constexpr idx_t kTwiddleRefresh = 128;

/// Group-width caps: the column pass keeps its twiddle recurrence state
/// (w, step) in stack arrays and the row pass gathers output runs into a
/// stack array, so both widths are bounded at compile time. 32 columns
/// (512 B rows — a whole n1 x 32 tile stays L2-resident up to n1 = 4096)
/// and 128 rows (2 KiB output runs) make every strided access in either
/// pass a TLB-friendly multi-line run instead of a single cacheline.
constexpr idx_t kColGroupCap = 32;
constexpr idx_t kRowGroupCap = 128;

/// Strided column-pass reads walk n1 addresses a full row apart — a
/// pattern no hardware prefetcher follows — so the gather issues its own
/// prefetches this many rows ahead.
constexpr idx_t kPrefetchRows = 8;

/// Width of one pass's groups: the caller's packet_elems when it fits
/// (kBadPlan otherwise — the tuner never enumerates a misfit), else the
/// largest divisor of `dim` within the block budget, pushed toward `cap`
/// so the strided side of the pass moves long contiguous runs.
idx_t pick_width(idx_t dim, idx_t block_budget, idx_t cap, idx_t requested) {
  if (requested > 0) {
    BWFFT_CHECK(requested <= cap && dim % requested == 0,
                "packet_elems must divide both four-step factors");
    return requested;
  }
  const idx_t hi = std::min(cap, dim);
  const idx_t lo = std::min<idx_t>(4, hi);
  return rows_per_block(dim, std::clamp(block_budget, lo, hi));
}

}  // namespace

namespace {

/// Column-tile budget: the default n1 keeps one n1 x kColGroupCap column
/// tile within ~256 KiB, so the column-pass lanes transform runs on
/// core-private cache instead of the shared LLC.
constexpr idx_t kColTileTargetElems = 16384;

/// Row-length ceiling: n2 is kept small enough that one row (plus its
/// Stockham ping-pong scratch) stays cache-resident during the row pass.
constexpr idx_t kMaxRowFitElems = 65536;

}  // namespace

std::pair<idx_t, idx_t> Fft1dLarge::choose_factors(idx_t n,
                                                   idx_t requested_n1) {
  BWFFT_CHECK(n >= 1, "transform size must be positive");
  if (requested_n1 > 0) {
    BWFFT_CHECK(n % requested_n1 == 0,
                "factor_n1 must divide the transform size");
    return {requested_n1, n / requested_n1};
  }
  // Skewed default: the largest divisor of n that keeps the column tile
  // core-private (n1 <= ~kColTileTargetElems / W) while capping the row
  // length (n2 <= kMaxRowFitElems once n is big enough to force it).
  // Measured against near-square splits this is 15-30% faster across
  // 2^22..2^26: short column FFTs run in L2 and the long n2 rows stay
  // contiguous. Below n ~ 2^18 the sqrt bound takes over and the split
  // degrades gracefully to near-square (n1 <= n2). Primes (and n < 4)
  // have no divisor in [2, n/2] and degenerate to the flat path.
  idx_t root = 1;
  while ((root + 1) * (root + 1) <= n) ++root;
  const idx_t target =
      std::min(std::max<idx_t>(kColTileTargetElems / kColGroupCap,
                               n / kMaxRowFitElems),
               root);
  for (idx_t d = std::min(target, n / 2); d >= 2; --d) {
    if (n % d == 0) return {d, n / d};
  }
  return {1, n};
}

Fft1dLarge::Fft1dLarge(idx_t n, Direction dir, const FftOptions& opts)
    : n_(n), dir_(dir), opts_(opts) {
  std::tie(n1_, n2_) = choose_factors(n_, opts_.factor_n1);
  if (n1_ <= 1) {
    // No usable split: one flat pass. Still a valid plan — the facade
    // must not reject sizes the tuner or exec layer routes here.
    n1_ = 1;
    n2_ = n_;
    cols_per_group_ = rows_per_group_ = 1;
    flat_ = std::make_shared<Fft1d>(n_, dir_, opts_.isa);
    return;
  }
  const idx_t block_req = opts_.block_elems > 0
                              ? opts_.block_elems
                              : default_block_elems(opts_.topo);
  cols_per_group_ =
      pick_width(n2_, block_req / n1_, kColGroupCap, opts_.packet_elems);
  rows_per_group_ =
      pick_width(n1_, block_req / n2_, kRowGroupCap, opts_.packet_elems);

  fft_n1_ = std::make_shared<Fft1d>(n1_, dir_, opts_.isa);
  fft_n2_ = std::make_shared<Fft1d>(n2_, dir_, opts_.isa);

  const auto [p, pc] = resolve_role_counts(opts_);
  roles_ = make_role_plan(p, pc, opts_.topo);
  team_ = parallel::make_team(
      p, opts_.pin_threads ? roles_.cpu : std::vector<int>{},
      opts_.team_pool);

  // Column-pass blocks are whole column groups (n1 * cols_per_group_
  // elems); row-pass blocks whole row groups (rows_per_group_ * n2).
  idx_t block = block_req;
  block = std::max(block, n1_ * cols_per_group_);
  block = std::max(block, rows_per_group_ * n2_);
  pipeline_ = std::make_unique<DoubleBufferPipeline>(*team_, roles_, block);

  col_roots_ = root_table(n_, n2_, dir_);
}

void Fft1dLarge::column_pass(cplx* data) {
  // (DFT_{n1} (x) I_{n2}) then D_{n2}^{n1 n2}, tiled over groups of W
  // contiguous columns. Tiles are row-major n1 x W, so the strided side
  // of the loads and stores moves W-element (up to 512 B) contiguous
  // runs and the lanes kernel sweeps W-wide SIMD rows.
  const idx_t W = cols_per_group_;
  const idx_t groups_total = n2_ / W;
  const idx_t group_elems = n1_ * W;
  const idx_t groups_per_block =
      rows_per_block(groups_total, pipeline_->block_elems() / group_elems);
  const bool nt = opts_.nontemporal;

  BWFFT_OBS_SCOPE(obs_stage, "large1d-cols", 'G', groups_total);
  PipelineStage stage;
  stage.iterations = groups_total / groups_per_block;
  stage.load = [=, this](idx_t i, cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    for (idx_t g = g0; g < g1; ++g) {
      const idx_t col0 = (i * groups_per_block + g) * W;
      cplx* tile = buf + g * group_elems;
      for (idx_t r = 0; r < n1_; ++r) {
        if (r + kPrefetchRows < n1_) {
          const char* next = reinterpret_cast<const char*>(
              data + (r + kPrefetchRows) * n2_ + col0);
          for (idx_t b = 0; b < W * static_cast<idx_t>(sizeof(cplx));
               b += 64) {
            __builtin_prefetch(next + b, 0, 0);
          }
        }
        std::memcpy(tile + r * W, data + r * n2_ + col0,
                    static_cast<std::size_t>(W) * sizeof(cplx));
      }
    }
    if (g1 > g0) {
      BWFFT_OBS_COUNT(BytesLoaded, (g1 - g0) * group_elems * sizeof(cplx));
    }
  };
  stage.compute = [=, this](idx_t i, cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    if (g1 <= g0) return;
    fft_n1_->apply_lanes(buf + g0 * group_elems, W, g1 - g0);
    // Twiddle scale D: element (r, q) *= w_N^{r q}. All W columns step
    // their geometric recurrence together through the SIMD diagonal
    // kernel; each kTwiddleRefresh-row chunk re-anchors the recurrence
    // to exactly computed roots to bound drift.
    cplx w[kColGroupCap], step[kColGroupCap];
    for (idx_t g = g0; g < g1; ++g) {
      cplx* tile = buf + g * group_elems;
      const idx_t col0 = (i * groups_per_block + g) * W;
      for (idx_t l = 0; l < W; ++l) {
        step[l] = col_roots_[static_cast<std::size_t>(col0 + l)];
      }
      for (idx_t r0 = 0; r0 < n1_; r0 += kTwiddleRefresh) {
        for (idx_t l = 0; l < W; ++l) {
          w[l] = root_of_unity(n_, (r0 * (col0 + l)) % n_, dir_);
        }
        kernels::diag_scale_rows(tile + r0 * W,
                                 std::min(kTwiddleRefresh, n1_ - r0), W, w,
                                 step, opts_.isa);
      }
    }
  };
  stage.store = [=, this](idx_t i, const cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    for (idx_t g = g0; g < g1; ++g) {
      const idx_t col0 = (i * groups_per_block + g) * W;
      const cplx* tile = buf + g * group_elems;
      for (idx_t r = 0; r < n1_; ++r) {
        store_packet(data + r * n2_ + col0, tile + r * W, W, nt);
      }
    }
    if (g1 > g0) {
      BWFFT_OBS_COUNT(BytesStored, (g1 - g0) * group_elems * sizeof(cplx));
    }
  };
  pipeline_->execute(stage);
}

void Fft1dLarge::row_pass(const cplx* src, cplx* dst) {
  // (I_{n1} (x) DFT_{n2}) then the final L_{n2}^{n1 n2}: contiguous rows
  // in, transposing scatter out. Blocks are whole R-row groups, so the
  // output side writes R-element (up to 2 KiB) contiguous runs — the
  // gather feeding each run walks R cached rows of the tile in lockstep.
  //
  // Every thread of a role takes an equal share of every block, however
  // many groups it holds (usually one): compute threads split its rows,
  // data threads its columns [q0, q1). Load and store split alike, so a
  // data thread only refills the span it has just retired
  // (pipeline/pipeline.h).
  const idx_t R = rows_per_group_;
  const idx_t row_groups = n1_ / R;
  const idx_t groups_per_block =
      rows_per_block(row_groups, pipeline_->block_elems() / (R * n2_));
  const idx_t block_rows = groups_per_block * R;
  const bool nt = opts_.nontemporal;
  // Inverse normalisation rides the compute task while the rows are
  // cached instead of costing another full sweep over `dst`.
  const bool normalize =
      dir_ == Direction::Inverse && opts_.normalize_inverse;
  const double scale = 1.0 / static_cast<double>(n_);

  BWFFT_OBS_SCOPE(obs_stage, "large1d-rows", 'G', row_groups);
  PipelineStage stage;
  stage.iterations = row_groups / groups_per_block;
  stage.load = [=, this](idx_t i, cplx* buf, int rank, int parts) {
    auto [q0, q1] = ThreadTeam::chunk(n2_, parts, rank);
    if (q1 <= q0) return;
    const cplx* block = src + i * block_rows * n2_;
    for (idx_t r = 0; r < block_rows; ++r) {
      std::memcpy(buf + r * n2_ + q0, block + r * n2_ + q0,
                  static_cast<std::size_t>(q1 - q0) * sizeof(cplx));
    }
    BWFFT_OBS_COUNT(BytesLoaded, block_rows * (q1 - q0) * sizeof(cplx));
  };
  stage.compute = [=, this](idx_t, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 <= r0) return;
    cplx* rows = buf + r0 * n2_;
    fft_n2_->apply_batch(rows, r1 - r0);
    if (normalize) {
      for (idx_t k = 0; k < (r1 - r0) * n2_; ++k) rows[k] *= scale;
    }
  };
  stage.store = [=, this](idx_t i, const cplx* buf, int rank, int parts) {
    auto [q0, q1] = ThreadTeam::chunk(n2_, parts, rank);
    if (q1 <= q0) return;
    cplx run[kRowGroupCap];
    for (idx_t g = 0; g < groups_per_block; ++g) {
      const idx_t row0 = (i * groups_per_block + g) * R;
      const cplx* tile = buf + g * R * n2_;
      // The output run for column q is the q-th element of each of the R
      // rows. Consecutive q revisit the same R cachelines, so the gather
      // stays L1-resident between the contiguous NT stores.
      for (idx_t q = q0; q < q1; ++q) {
        for (idx_t l = 0; l < R; ++l) run[l] = tile[l * n2_ + q];
        store_packet(dst + q * n1_ + row0, run, R, nt);
      }
    }
    BWFFT_OBS_COUNT(BytesStored, block_rows * (q1 - q0) * sizeof(cplx));
  };
  pipeline_->execute(stage);
}

void Fft1dLarge::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "four-step large 1D is out of place");
  if (flat_) {
    flat_->apply_oop(in, out);
    if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
      flat_->scale_inverse(out, n_);
    }
    return;
  }
  column_pass(in);
  row_pass(in, out);
}

}  // namespace bwfft
