// Stage geometry and the resolved stage plan shared by the rotated-stage
// engines.
//
// Every stage of the paper's 2D/3D decomposition (§III-A) has the same
// shape: the current array is a grid of `a*b` rows, each row holding one
// batch of `lanes`-wide pencils of length `fft_len` contiguously
// (row_elems = fft_len*lanes = cp mu-packets), and after the in-place
// batch FFT the rows are scattered through the blocked rotation
// K_{cp}^{a,b} (x) I_mu: packet p of row r lands at packet index p*a*b + r
// of the output array. Three chained stages return a 3D cube to natural
// order; two chained stages return a 2D array to natural order.
//
// plan_stages() resolves that chain once for a transform and its options:
// the chain, mu, the role split, the buffer block and the rows per block
// of every stage, and the schedule that runs them. The stage-chain engine
// executes the plan, the dual-socket engine runs it per socket and the
// static verifier models it, so all three read the same numbers. It is
// header-only because the analysis library cannot link the engines.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "fft/options.h"
#include "kernels/isa.h"
#include "kernels/twiddle.h"
#include "pipeline/pipeline.h"

namespace bwfft {

struct StageGeometry {
  idx_t a = 1;       ///< slow rotation-grid dimension
  idx_t b = 1;       ///< mid rotation-grid dimension
  idx_t fft_len = 1; ///< pencil length L of this stage
  idx_t lanes = 1;   ///< SIMD lanes per pencil element (1 or mu)
  idx_t mu = 1;      ///< cacheline packet size for the rotation

  idx_t row_elems() const { return fft_len * lanes; }
  idx_t cp() const { return row_elems() / mu; }
  idx_t rows() const { return a * b; }
  idx_t total() const { return rows() * row_elems(); }
};

/// Largest packet size usable for the fast dimension m: a power of two
/// dividing m, at most `cap` (by default the cacheline packet kMu).
inline idx_t packet_size_for(idx_t m, idx_t cap = kMu) {
  idx_t mu = 1;
  while (mu < cap && (m % (2 * mu)) == 0) mu *= 2;
  return mu;
}

/// Cap for the *auto* packet under the current dispatch state. The
/// AVX-512 batch tables run 8 complex lanes per chunk, so a mu = 4
/// packet would leave their chunk loop empty and cascade down to 256-bit
/// ops; double the packet to two cachelines there. Narrower dispatch
/// keeps the one-cacheline packet of §III-A.
inline idx_t auto_packet_cap() {
  return kernels::active_isa() == kernels::Isa::Avx512 ? 2 * kMu : kMu;
}

/// Resolve a requested packet size against the fast dimension: 0 = auto
/// (the widest packet the dispatched ISA can fill, see auto_packet_cap).
inline idx_t resolve_packet_size(idx_t requested, idx_t m) {
  if (requested <= 0) return packet_size_for(m, auto_packet_cap());
  BWFFT_CHECK(m % requested == 0, "packet_elems must divide the fast dim");
  return requested;
}

/// Stage chain for the 3D cube k x n x m (paper §III-A):
///  stage 0: rows (z,y), pencils along x;   layout out: [xp][z][y][xl]
///  stage 1: rows (xp,z), pencils along y;  layout out: [y][xp][z][xl]
///  stage 2: rows (y,xp), pencils along z;  layout out: [z][y][x] (natural)
/// With the cube split over `sk` sockets by z (§IV-B, Table III) this is
/// one socket's chain: stages 0 and 1 see its k/sk slab, and after the
/// W^2 exchange stage 2 holds full-z pencils for n/sk of the y values.
inline std::array<StageGeometry, 3> make_3d_stages(idx_t k, idx_t n, idx_t m,
                                                   idx_t mu, idx_t sk = 1) {
  BWFFT_CHECK(m % mu == 0, "packet size must divide m");
  return {StageGeometry{k / sk, n, m, 1, mu},
          StageGeometry{m / mu, k / sk, n, mu, mu},
          StageGeometry{n / sk, m / mu, k, mu, mu}};
}

/// Stage chain for the 2D array n x m:
///  stage 0: rows y, pencils along x;   layout out: [xp][y][xl]
///  stage 1: rows xp, pencils along y;  layout out: [y][x] (natural)
inline std::array<StageGeometry, 2> make_2d_stages(idx_t n, idx_t m,
                                                   idx_t mu) {
  BWFFT_CHECK(m % mu == 0, "packet size must divide m");
  return {StageGeometry{n, 1, m, 1, mu}, StageGeometry{m / mu, 1, n, mu, mu}};
}

/// Largest divisor of `rows` that is <= budget (>= 1): the number of rows
/// per pipeline block, sized so a block fits the shared buffer half.
inline idx_t rows_per_block(idx_t rows, idx_t budget) {
  BWFFT_CHECK(budget >= 1, "block budget must hold at least one row");
  for (idx_t d = std::min(rows, budget); d >= 1; --d) {
    if (rows % d == 0) return d;
  }
  return 1;
}

/// How a stage chain is run; EngineKind picks it.
enum class StageSchedule {
  /// Stage-parallel: per stage, every thread transforms its chunk of the
  /// rows and scatters each row through the rotation with temporal
  /// stores. No buffer, no roles, no overlap.
  Lockstep,
  /// Double-buffer: each stage is tiled into blocks that run through the
  /// Table II pipeline (data threads load and store, compute threads
  /// transform, §III-B).
  TableII,
};

/// A 2D/3D transform resolved against its options: everything the
/// engines execute and the static verifier models.
struct StagePlan {
  StageSchedule schedule = StageSchedule::TableII;
  std::vector<StageGeometry> chain;  ///< the rotated stages, in order
  std::vector<idx_t> block_rows;     ///< rows per block of each stage
  idx_t mu = 1;                      ///< rotation packet
  int threads = 1;                   ///< team size p
  int compute = 1;                   ///< p_c (Lockstep: all p compute)
  idx_t block_elems = 0;  ///< pipeline buffer half (0 for Lockstep)
  bool nontemporal = false;  ///< rotated stores bypass the cache
  std::string why;           ///< why the options cannot be planned

  bool ok() const { return why.empty(); }
  int data() const { return threads - compute; }
  /// Blocks (pipeline iterations) of stage s.
  idx_t iterations(std::size_t s) const {
    return chain[s].rows() / block_rows[s];
  }
  /// Ranks splitting each block's load and store: the whole team in
  /// lockstep, the data group under Table II, or the compute group when
  /// there are no data threads (the pipeline's sequential schedule).
  int parts() const {
    if (schedule == StageSchedule::Lockstep) return threads;
    return data() > 0 ? data() : compute;
  }
};

/// Resolve the stage plan of `dims` (2 => [n, m], 3 => [k, n, m]) under
/// `opts`, one socket's share when the cube is split over `sockets`
/// (3D only). On options that cannot be planned the plan carries the
/// reason in `why` instead.
inline StagePlan plan_stages(const std::vector<idx_t>& dims,
                             const FftOptions& opts, int sockets = 1) {
  StagePlan plan;
  const idx_t m = dims.back();
  if (opts.packet_elems > 0 && m % opts.packet_elems != 0) {
    plan.why = "packet_elems does not divide the fast dimension";
    return plan;
  }
  plan.mu = resolve_packet_size(opts.packet_elems, m);
  if (dims.size() == 2) {
    auto s = make_2d_stages(dims[0], dims[1], plan.mu);
    plan.chain.assign(s.begin(), s.end());
  } else {
    auto s = make_3d_stages(dims[0], dims[1], dims[2], plan.mu, sockets);
    plan.chain.assign(s.begin(), s.end());
  }

  const auto [p, pc] = resolve_role_counts(opts, sockets);
  plan.threads = p;
  if (opts.engine == EngineKind::StageParallel) {
    // One un-tiled pass per stage; compute_threads does not apply.
    plan.schedule = StageSchedule::Lockstep;
    plan.compute = p;
    for (const auto& g : plan.chain) plan.block_rows.push_back(g.rows());
    return plan;
  }
  if (pc < 0 || pc > p) {
    plan.why = "compute_threads outside [0, threads]";
    return plan;
  }
  plan.compute = pc;
  if (plan.parts() < 1) {
    plan.why = "no thread left to move data";
    return plan;
  }
  plan.nontemporal = opts.nontemporal;
  // Block size: the LLC policy, but always at least one row of the
  // widest stage so every stage tiles into whole rows.
  plan.block_elems = opts.block_elems > 0 ? opts.block_elems
                                          : default_block_elems(opts.topo);
  for (const auto& g : plan.chain) {
    plan.block_elems = std::max(plan.block_elems, g.row_elems());
  }
  for (const auto& g : plan.chain) {
    plan.block_rows.push_back(
        rows_per_block(g.rows(), plan.block_elems / g.row_elems()));
  }
  return plan;
}

}  // namespace bwfft
