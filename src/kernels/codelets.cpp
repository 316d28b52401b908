#include "kernels/codelets.h"

#include <array>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace bwfft::codelets {

namespace {

constexpr double kPi = std::numbers::pi_v<double>;

}  // namespace

const TrigTable& dft_trig(idx_t n) {
  BWFFT_ASSERT(n >= 2 && n <= kMaxCodelet);
  // The angle is evaluated as ((2.0 * pi) * j) / n; kernels_test pins
  // the resulting constants bit-for-bit so they cannot drift by an ULP.
  static const std::array<TrigTable, kMaxCodelet + 1> tables = [] {
    std::array<TrigTable, kMaxCodelet + 1> t{};
    for (idx_t n_ = 2; n_ <= kMaxCodelet; ++n_) {
      for (idx_t j = 0; j < n_; ++j) {
        const double ang = 2.0 * kPi * static_cast<double>(j) /
                           static_cast<double>(n_);
        t[n_].c[j] = std::cos(ang);
        t[n_].s[j] = std::sin(ang);
      }
    }
    return t;
  }();
  return tables[n];
}

}  // namespace bwfft::codelets
