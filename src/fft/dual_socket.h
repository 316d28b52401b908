// Dual-socket double-buffered 3D FFT (§IV-B, Fig 8, Table III).
//
// Data is distributed across the sockets' NUMA domains by the z dimension
// (each socket owns a contiguous k/sk x n x m slab). Every stage reads
// only from the socket's local memory; stage 1 also writes locally (its
// rotation stays inside the slab, Table III W^1), while stages 2 and 3
// write across the interconnect (W^2 reassembles full-z pencils
// distributed by y; W^3 restores the natural order distributed by z).
// Within each socket the stage runs the single-socket engine's Table II
// pipeline on the socket's own thread team, cache buffer and barrier —
// the pipeline's fences, obs slices, fault sites, abort-on-throw and
// self-audit included — with all sockets' pipelines running at once. The
// per-socket stage chain comes from plan_stages(). Cross-socket write
// traffic is recorded so the harness can apply the QPI/HT bandwidth term
// of the paper's Fig 10 analysis.
#pragma once

#include <memory>
#include <vector>

#include "fft/engine.h"
#include "fft/stage.h"
#include "fft1d/fft1d.h"
#include "parallel/numa.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"

namespace bwfft {

class DualSocketFft3d {
 public:
  /// Cube k x n x m over `sockets` NUMA domains; sk must divide k and n.
  DualSocketFft3d(idx_t k, idx_t n, idx_t m, Direction dir,
                  const FftOptions& opts, int sockets = 2);

  /// Distributed transform: both arrays have one k/sk x n x m slab per
  /// domain; `x` is the input and is clobbered, the result lands in `y`.
  void execute_distributed(NumaArray& x, NumaArray& y);

  /// Convenience contiguous API: scatters `in` over the domains, runs,
  /// gathers into `out` (adds two copies; the distributed API is the
  /// intended hot path).
  void execute(cplx* in, cplx* out);

  int sockets() const { return sk_; }
  idx_t size() const { return k_ * n_ * m_; }

  /// Cross-socket bytes written by the last execute_* call.
  const LinkTraffic& traffic() const { return traffic_; }

 private:
  /// One socket's pipeline on its own team. Teams are private unless
  /// FftOptions::team_pool is set, in which case the sockets share one
  /// pooled team and take turns.
  struct Socket {
    std::shared_ptr<ThreadTeam> team;
    std::unique_ptr<DoubleBufferPipeline> pipe;
  };

  void run_stage(std::size_t s, NumaArray& src, NumaArray& dst);

  idx_t k_, n_, m_;
  idx_t ksl_ = 1, nsl_ = 1;  // per-socket slab extents k/sk, n/sk
  Direction dir_;
  FftOptions opts_;
  int sk_;
  StagePlan plan_;  // one socket's share of the chain
  std::vector<std::shared_ptr<Fft1d>> ffts_;
  std::shared_ptr<ThreadTeam> launcher_;  // one thread per socket
  std::vector<Socket> socket_;
  LinkTraffic traffic_;
};

}  // namespace bwfft
