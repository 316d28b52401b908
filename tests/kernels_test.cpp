// Tests for the kernel layer: twiddle tables and the codelet trig
// constants. The batched codelets themselves are checked per ISA in
// batch_codelets_test.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "kernels/codelets.h"
#include "kernels/twiddle.h"

namespace bwfft {
namespace {

constexpr double kPi = std::numbers::pi_v<double>;

TEST(Twiddle, RootsOfUnity) {
  // w_4^1 forward = -i; inverse = +i.
  auto f = root_of_unity(4, 1, Direction::Forward);
  EXPECT_NEAR(0.0, f.real(), 1e-15);
  EXPECT_NEAR(-1.0, f.imag(), 1e-15);
  auto i = root_of_unity(4, 1, Direction::Inverse);
  EXPECT_NEAR(1.0, i.imag(), 1e-15);
  // Period: w_n^{p} == w_n^{p mod n}.
  EXPECT_NEAR(0.0,
              std::abs(root_of_unity(8, 11, Direction::Forward) -
                       root_of_unity(8, 3, Direction::Forward)),
              1e-15);
}

TEST(Twiddle, TableMatchesScalar) {
  auto t = root_table(16, 16, Direction::Forward);
  for (idx_t p = 0; p < 16; ++p) {
    EXPECT_EQ(t[static_cast<std::size_t>(p)], root_of_unity(16, p, Direction::Forward));
  }
}

TEST(Twiddle, StockhamLevels) {
  auto levels = stockham_twiddles(16, Direction::Forward);
  ASSERT_EQ(4u, levels.size());
  EXPECT_EQ(8u, levels[0].size());
  EXPECT_EQ(4u, levels[1].size());
  EXPECT_EQ(2u, levels[2].size());
  EXPECT_EQ(1u, levels[3].size());
  // Level l twiddles are roots of order 16 >> l.
  EXPECT_NEAR(0.0,
              std::abs(levels[1][1] - root_of_unity(8, 1, Direction::Forward)),
              1e-15);
}

TEST(Twiddle, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(0, log2_floor(1));
  EXPECT_EQ(10, log2_floor(1024));
}

TEST(Codelets, TrigTablesAreBitExactWithPerCallExpressions) {
  // The 5-, 7- and 16-point codelet bodies take their cos/sin from the
  // dft_trig tables. The table builder must evaluate the angle as
  // ((2*pi)*j)/n, or results drift by an ULP between builds. Recompute
  // each angle that way and demand bitwise equality.
  for (idx_t n : {idx_t{5}, idx_t{7}, idx_t{16}}) {
    const auto& t = codelets::dft_trig(n);
    for (idx_t j = 0; j < n; ++j) {
      const double ang = 2.0 * kPi * static_cast<double>(j) /
                         static_cast<double>(n);
      EXPECT_EQ(std::cos(ang), t.c[static_cast<std::size_t>(j)])
          << "cos n=" << n << " j=" << j;
      EXPECT_EQ(std::sin(ang), t.s[static_cast<std::size_t>(j)])
          << "sin n=" << n << " j=" << j;
    }
  }
  // The 16-point body derives its inverse twiddles from the same table via
  // cos(-x) == cos(x), sin(-x) == -sin(x); confirm libm honors that
  // symmetry bitwise for the angles in play.
  for (idx_t j = 0; j < 16; ++j) {
    const double ang = 2.0 * kPi * static_cast<double>(j) / 16.0;
    EXPECT_EQ(std::cos(-ang), std::cos(ang)) << "j=" << j;
    EXPECT_EQ(std::sin(-ang), -std::sin(ang)) << "j=" << j;
  }
}

}  // namespace
}  // namespace bwfft
