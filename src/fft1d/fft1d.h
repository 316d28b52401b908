// 1D FFT engine.
//
// Three execution styles, matching the roles 1D transforms play in the
// paper's multidimensional algorithms:
//
//  * apply_lanes(data, lanes, count) — the compute kernel of the
//    double-buffered stages: `count` tiles, each holding an n x lanes
//    row-major block, are transformed along the n dimension in place.
//    This is the SPL construct I_count (x) DFT_n (x) I_lanes. With
//    lanes = mu (one cacheline) every butterfly streams whole cachelines,
//    which is the paper's "cache aware FFT" (§IV-A). Stockham autosort
//    over the batched split-format codelets (kernels/batch.h),
//    SIMD-dispatched at run time (scalar / AVX2+FMA / AVX-512 from
//    cpuid).
//
//  * apply_batch(data, count) — lanes = 1 special case (I_count (x) DFT_n),
//    the stage-1 kernel operating on contiguous pencils. Its first
//    Stockham level runs the unit-stride codelet (kernels::UnitFn), SIMD
//    across that level's butterflies instead of across lanes.
//
//  * apply_strided_inplace(data, stride) — a single pencil transformed in
//    place at an element stride, the access pattern of the *naive* pencil
//    baseline the paper criticises. Iterative DIT with bit-reversal; no
//    buffering, so large strides hit main memory hard — deliberately.
//
// Every size whose prime factors are all <= 13 runs the same Stockham
// schedule; only its radix chain changes (16...16 plus one 8/4/2 level
// for powers of two, 8/7/6/5/4/3/2 and then 13/11 levels otherwise).
// Sizes with a larger prime factor use Bluestein's chirp-z algorithm on
// top of the power-of-two engine.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "kernels/batch.h"
#include "kernels/twiddle.h"

namespace bwfft {

class Fft1d {
 public:
  /// Plan a transform of size n (n >= 1, any n) in the given direction.
  /// Planning precomputes all twiddles; apply* methods are const and
  /// thread-safe (scratch is per-thread). `isa` is the instruction-set
  /// REQUEST for the batched codelets: the default Auto follows the
  /// kernels/isa.h decision path (env override, cpuid) at apply time, so
  /// a plan built once still honours later BWFFT_ISA / set_isa_override
  /// toggles; a concrete request pins the plan (clamped to the host).
  Fft1d(idx_t n, Direction dir, kernels::Isa isa = kernels::Isa::Auto);

  idx_t size() const { return n_; }
  Direction direction() const { return dir_; }
  kernels::Isa isa() const { return isa_; }

  /// In-place transform of `count` tiles, each an n x lanes row-major
  /// block: element (j,l) of tile t lives at data[t*n*lanes + j*lanes + l].
  void apply_lanes(cplx* data, idx_t lanes, idx_t count) const;

  /// In-place transform of `count` contiguous pencils of length n.
  void apply_batch(cplx* data, idx_t count) const {
    apply_lanes(data, 1, count);
  }

  /// Out-of-place transform of one contiguous pencil (in != out).
  void apply_oop(const cplx* in, cplx* out) const;

  /// In-place transform of one n x lanes tile whose rows sit at
  /// `row_stride` elements (element (j,l) at base[j*row_stride + l],
  /// lanes <= row_stride). The tile is gathered into cache-resident
  /// scratch, transformed, and scattered back — the buffering approach of
  /// Frigo et al. [11] used by the slab–pencil baseline's z stage.
  /// Power-of-two sizes only.
  void apply_lanes_strided(cplx* base, idx_t lanes, idx_t row_stride) const;

  /// In-place transform of one pencil whose elements sit at `stride`
  /// (stride >= 1). This path intentionally keeps the strided access
  /// pattern (naive baseline); power-of-two only.
  void apply_strided_inplace(cplx* data, idx_t stride) const;

  /// Multiply `count` elements by 1/n — the conventional inverse scaling,
  /// kept separate so engines can fold it into whichever pass they like.
  void scale_inverse(cplx* data, idx_t count) const;

  /// Test hook: the buffer each Stockham level writes, in level order
  /// (true = the caller's tile, false = per-thread scratch). Execution
  /// follows exactly this routing, and its last entry is always true: no
  /// plan copies its result back out of scratch. Empty for n == 1 and for
  /// Bluestein sizes.
  std::vector<bool> stockham_targets() const;

 private:
  void stockham_tile(cplx* tile, cplx* scratch, idx_t lanes,
                     const kernels::BatchTable& bt) const;
  void bluestein(cplx* data) const;

  /// One Stockham DIF level of radix r <= 16: the greedy high-radix
  /// schedule (16 while it divides, then 8..2, then 13/11) minimises
  /// passes over the cached tile — n = 128 takes two levels where a
  /// radix-4/2 schedule takes four. Twiddles are laid out
  /// per output packet p: tw[(r-1)*p + (k-1)] = w_len^{p*k}, exactly the
  /// `tw` row the batched codelet ABI consumes; packet p = 0 has unit
  /// twiddles and is passed tw = nullptr. Levels alternate scratch/tile
  /// targets; with an odd level count the last level (q == 1, so its
  /// in and out row strides match) runs in place on the tile instead.
  struct StockhamLevel {
    idx_t radix;
    cvec tw;
    bool to_tile;  // writes the caller's tile (else per-thread scratch)
  };

  idx_t n_;
  Direction dir_;
  kernels::Isa isa_;                // dispatch request (Auto = decide late)
  std::vector<StockhamLevel> slevels_;  // Stockham schedule (13-smooth n)
  dvec unit_tw_;  // level 0's twiddles, split lane-major (kernels::UnitFn)
  cvec dit_tw_;                     // DIT twiddles w_n^j, j < n/2 (pow2)
  std::vector<idx_t> bitrev_;       // bit-reversal permutation (pow2)

  // Bluestein state (sizes with a prime factor above 13).
  idx_t conv_n_ = 0;                // power-of-two convolution length
  cvec chirp_;                      // c[j] = w^{j^2/2}: conjugate chirp
  cvec chirp_fft_;                  // FFT of the zero-padded chirp kernel
  std::shared_ptr<const Fft1d> conv_fwd_;
  std::shared_ptr<const Fft1d> conv_inv_;
};

}  // namespace bwfft
