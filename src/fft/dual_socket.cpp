#include "fft/dual_socket.h"

#include <cstring>

#include "analysis/hazard_checker.h"
#include "common/error.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {
[[maybe_unused]] constexpr const char* kStageNames[3] = {"stage-0", "stage-1",
                                                         "stage-2"};
}  // namespace

DualSocketFft3d::DualSocketFft3d(idx_t k, idx_t n, idx_t m, Direction dir,
                                 const FftOptions& opts, int sockets)
    : k_(k), n_(n), m_(m), dir_(dir), opts_(opts), sk_(sockets) {
  BWFFT_CHECK(sk_ >= 1, "need at least one socket");
  BWFFT_CHECK(k_ % sk_ == 0, "socket count must divide k");
  BWFFT_CHECK(n_ % sk_ == 0, "socket count must divide n");
  ksl_ = k_ / sk_;
  nsl_ = n_ / sk_;

  // Every socket runs the Table II pipeline over its share of the chain;
  // the cross-socket part of W^2/W^3 lives in the store index functions
  // of run_stage.
  opts_.engine = EngineKind::DoubleBuffer;
  plan_ = plan_stages({k_, n_, m_}, opts_, sk_);
  BWFFT_CHECK(plan_.ok(), plan_.why);
  for (const auto& g : plan_.chain) {
    ffts_.push_back(std::make_shared<Fft1d>(g.fft_len, dir_, opts_.isa));
  }

  const RolePlan roles =
      make_role_plan(plan_.threads, plan_.compute, opts_.topo);
  // Never pooled: its threads block in the socket teams' run(), which
  // must not be the same team.
  launcher_ = parallel::make_team(sk_, {}, /*pooled=*/false);
  // Buffer policy: each socket has its own LLC, so each gets the usual
  // half-LLC double buffer.
  socket_.resize(static_cast<std::size_t>(sk_));
  for (auto& s : socket_) {
    s.team = parallel::make_team(plan_.threads, {}, opts_.team_pool);
    s.pipe = std::make_unique<DoubleBufferPipeline>(*s.team, roles,
                                                    plan_.block_elems);
  }
}

void DualSocketFft3d::run_stage(std::size_t stage, NumaArray& src,
                                NumaArray& dst) {
  const StageGeometry& g = plan_.chain[stage];
  const Fft1d& fft = *ffts_[stage];
  const idx_t row_elems = g.row_elems();
  const idx_t block_rows = plan_.block_rows[stage];
  const idx_t mu = plan_.mu;
  const bool nt = plan_.nontemporal;

  // Scatter one buffer row to its rotated destination. `row` is the
  // socket-local row index of the stage grid; `s` the owning socket.
  // Returns the bytes that crossed to another socket's domain.
  auto store_row = [&](int s, idx_t row, const cplx* src_row) {
    std::size_t cross_bytes = 0;
    switch (stage) {
      case 0: {
        // W^1: local blocked rotation within the slab (Fig 8 stage 1).
        rotate_store_rows(src_row, dst.slab(s), row, 1, g.a, g.b, g.cp(), mu,
                          nt);
        break;
      }
      case 1: {
        // W^2: local rotation + exchange; packets indexed by y land in the
        // domain owning that y range, reassembling full-z pencils.
        const idx_t xp = row / ksl_;
        const idx_t zl = row % ksl_;
        for (idx_t y = 0; y < n_; ++y) {
          const int dy = static_cast<int>(y / nsl_);
          const idx_t off =
              ((y % nsl_) * (m_ / mu) + xp) * k_ * mu + (s * ksl_ + zl) * mu;
          store_packet(dst.slab(dy) + off, src_row + y * mu, mu, nt);
          if (dy != s) cross_bytes += static_cast<std::size_t>(mu) * sizeof(cplx);
        }
        break;
      }
      default: {
        // W^3: local rotation + exchange back to the natural order
        // distributed by z.
        const idx_t yl = row / (m_ / mu);
        const idx_t xp = row % (m_ / mu);
        const idx_t y = s * nsl_ + yl;
        for (idx_t z = 0; z < k_; ++z) {
          const int dz = static_cast<int>(z / ksl_);
          const idx_t off = ((z % ksl_) * n_ + y) * m_ + xp * mu;
          store_packet(dst.slab(dz) + off, src_row + z * mu, mu, nt);
          if (dz != s) cross_bytes += static_cast<std::size_t>(mu) * sizeof(cplx);
        }
        break;
      }
    }
    return cross_bytes;
  };

  // The per-socket runner: socket s streams its local slab of `src`
  // through its own pipeline.
  auto run_socket = [&](int s) {
    const cplx* local_src = src.slab(s);
    PipelineStage ps;
    ps.iterations = plan_.iterations(stage);
    ps.load = [&, local_src](idx_t i, cplx* buf, int rank, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      if (r1 > r0) {
        std::memcpy(buf + r0 * row_elems,
                    local_src + (i * block_rows + r0) * row_elems,
                    static_cast<std::size_t>((r1 - r0) * row_elems) *
                        sizeof(cplx));
        BWFFT_OBS_COUNT(BytesLoaded, (r1 - r0) * row_elems * sizeof(cplx));
      }
    };
    ps.compute = [&](idx_t, cplx* buf, int rank, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      if (r1 > r0) fft.apply_lanes(buf + r0 * row_elems, g.lanes, r1 - r0);
    };
    ps.store = [&, s](idx_t i, const cplx* buf, int rank, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      std::size_t cross_bytes = 0;
      for (idx_t r = r0; r < r1; ++r) {
        cross_bytes += store_row(s, i * block_rows + r, buf + r * row_elems);
      }
      BWFFT_OBS_COUNT(BytesStored, (r1 - r0) * row_elems * sizeof(cplx));
      if (cross_bytes > 0) traffic_.record_write(cross_bytes);
    };
    analysis::execute_self_checked(
        *socket_[static_cast<std::size_t>(s)].pipe, ps);
  };

  BWFFT_OBS_SCOPE(obs_stage, kStageNames[stage], 'G', g.rows() * sk_);
  launcher_->run(run_socket);
}

void DualSocketFft3d::execute_distributed(NumaArray& x, NumaArray& y) {
  BWFFT_CHECK(x.domains() == sk_ && y.domains() == sk_,
              "array domain count mismatch");
  BWFFT_CHECK(x.total_elems() == size() && y.total_elems() == size(),
              "array size mismatch");
  traffic_.reset();
  run_stage(0, x, y);  // local writes
  run_stage(1, y, x);  // exchange: full-z pencils distributed by y
  run_stage(2, x, y);  // exchange: natural order distributed by z
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    launcher_->run([&](int s) {
      scale_inverse(*socket_[static_cast<std::size_t>(s)].team, y.slab(s),
                    y.elems_per_domain(), size());
    });
  }
}

void DualSocketFft3d::execute(cplx* in, cplx* out) {
  NumaArray x(sk_, size() / sk_), y(sk_, size() / sk_);
  for (int d = 0; d < sk_; ++d) {
    std::memcpy(x.slab(d), in + d * (size() / sk_),
                static_cast<std::size_t>(size() / sk_) * sizeof(cplx));
  }
  execute_distributed(x, y);
  for (int d = 0; d < sk_; ++d) {
    std::memcpy(out + d * (size() / sk_), y.slab(d),
                static_cast<std::size_t>(size() / sk_) * sizeof(cplx));
  }
}

}  // namespace bwfft
