#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>

#include "bench.h"
#include "common/error.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

void team_copy(bwfft::ThreadTeam& team, cplx* dst, const cplx* src,
               idx_t count) {
  bwfft::parallel_for_chunks(team, count, [&](int, idx_t lo, idx_t hi) {
    std::memcpy(dst + lo, src + lo,
                static_cast<std::size_t>(hi - lo) * sizeof(cplx));
  });
}

ToneOracle::ToneOracle(std::vector<idx_t> dims, Direction dir,
                       std::uint64_t seed, int tones)
    : dims_(std::move(dims)), phase_sign_(-bwfft::sign_of(dir)) {
  BWFFT_CHECK(!dims_.empty() && tones >= 1, "oracle needs dims and tones");
  for (idx_t d : dims_) n_ *= d;
  for (idx_t nd : dims_) {
    const double step = phase_sign_ * 2.0 * std::numbers::pi /
                        static_cast<double>(nd);
    std::vector<cplx> lo(static_cast<std::size_t>(std::min(nd, kSplit)));
    std::vector<cplx> hi(static_cast<std::size_t>((nd + kSplit - 1) / kSplit));
    for (std::size_t j = 0; j < lo.size(); ++j)
      lo[j] = std::polar(1.0, step * static_cast<double>(j));
    for (std::size_t j = 0; j < hi.size(); ++j)
      hi[j] = std::polar(1.0, step * static_cast<double>(j * kSplit));
    lo_.push_back(std::move(lo));
    hi_.push_back(std::move(hi));
  }

  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> mag(0.5, 1.5);
  std::uniform_real_distribution<double> ang(0.0, 2.0 * std::numbers::pi);
  while (static_cast<int>(tones_.size()) < tones) {
    Tone t;
    t.bin = 0;
    for (idx_t nd : dims_) {
      const idx_t f = std::uniform_int_distribution<idx_t>(0, nd - 1)(gen);
      t.freq.push_back(f);
      t.bin = t.bin * nd + f;
    }
    t.amp = std::polar(mag(gen), ang(gen));
    bool dup = false;
    for (const Tone& o : tones_) dup = dup || o.bin == t.bin;
    if (dup) continue;
    tones_.push_back(std::move(t));
  }
  const double nd = static_cast<double>(n_);
  for (const Tone& t : tones_) ref2_ += std::norm(nd * t.amp);
}

cplx ToneOracle::root(std::size_t d, idx_t m) const {
  return hi_[d][static_cast<std::size_t>(m / kSplit)] *
         lo_[d][static_cast<std::size_t>(m % kSplit)];
}

double ToneOracle::tolerance() const {
  return 2.0 * std::numeric_limits<double>::epsilon() *
         std::log2(static_cast<double>(n_));
}

double ToneOracle::ref_norm() const { return std::sqrt(ref2_); }

void ToneOracle::fill(cplx* x, bwfft::ThreadTeam& team) const {
  const std::size_t nd = dims_.size();
  const std::size_t nt = tones_.size();
  bwfft::parallel_for_chunks(team, n_, [&](int, idx_t lo, idx_t hi) {
    if (lo >= hi) return;
    // Odometer over the multi-index of flat element i; per tone, the
    // phase index of each dimension and the product of the slower
    // dimensions' roots (refreshed from the tables on every carry).
    std::vector<idx_t> idx(nd);
    idx_t rem = lo;
    for (std::size_t d = nd; d-- > 0;) {
      idx[d] = rem % dims_[d];
      rem /= dims_[d];
    }
    const std::size_t last = nd - 1;
    std::vector<idx_t> m_last(nt);
    std::vector<cplx> row(nt);
    auto refresh = [&] {
      for (std::size_t t = 0; t < nt; ++t) {
        cplx r = tones_[t].amp;
        for (std::size_t d = 0; d < last; ++d)
          r *= root(d, (tones_[t].freq[d] * idx[d]) % dims_[d]);
        row[t] = r;
        m_last[t] = (tones_[t].freq[last] * idx[last]) % dims_[last];
      }
    };
    refresh();
    for (idx_t i = lo; i < hi; ++i) {
      cplx v(0.0, 0.0);
      for (std::size_t t = 0; t < nt; ++t) {
        v += row[t] * root(last, m_last[t]);
        m_last[t] += tones_[t].freq[last];
        if (m_last[t] >= dims_[last]) m_last[t] -= dims_[last];
      }
      x[i] = v;
      if (++idx[last] == dims_[last]) {
        std::size_t d = last;
        while (d > 0 && idx[d] == dims_[d]) {
          idx[d] = 0;
          ++idx[--d];
        }
        refresh();
      }
    }
  });
}

void ToneOracle::begin(cplx* y) const {
  const double nd = static_cast<double>(n_);
  for (const Tone& t : tones_) y[t.bin] -= nd * t.amp;
}

double ToneOracle::sum(const cplx* y, idx_t lo, idx_t hi) {
  double s = 0.0;
  for (idx_t i = lo; i < hi; ++i) s += std::norm(y[i]);
  return s;
}

double ToneOracle::finish(cplx* y, double err2) const {
  const double nd = static_cast<double>(n_);
  for (const Tone& t : tones_) y[t.bin] += nd * t.amp;
  // NaN anywhere in y makes err2 NaN; report it as an infinite error.
  if (!(err2 >= 0.0)) return std::numeric_limits<double>::infinity();
  return std::sqrt(err2 / ref2_);
}

double ToneOracle::rel_error(cplx* y, bwfft::ThreadTeam& team) const {
  begin(y);
  std::vector<double> part(static_cast<std::size_t>(team.size()), 0.0);
  bwfft::parallel_for_chunks(team, n_, [&](int tid, idx_t lo, idx_t hi) {
    part[static_cast<std::size_t>(tid)] = sum(y, lo, hi);
  });
  double err2 = 0.0;
  for (double p : part) err2 += p;
  return finish(y, err2);
}

}  // namespace perfbench
