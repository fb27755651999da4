// Unit tests for src/math: Grid container, statistics and the Hermitian
// eigensolver (Householder+QL against Jacobi, analytic cases and, bit for
// bit, the serial solver it replaced).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "math/hermitian_eig.hpp"
#include "math/stats.hpp"
#include "optics/tcc.hpp"
#include "support/legacy_eigh.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using test::eigh_jacobi;
using test::eigh_residual;
using test::legacy_eigh;
using test::random_hermitian;

TEST(Grid, ConstructionAndIndexing) {
  Grid<double> g(3, 4, 1.5);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g(2, 3), 1.5);
  g(1, 2) = -7.0;
  EXPECT_DOUBLE_EQ(g(1, 2), -7.0);
  EXPECT_DOUBLE_EQ(g[1 * 4 + 2], -7.0);
}

TEST(Grid, OutOfRangeThrows) {
  Grid<double> g(2, 2);
  EXPECT_THROW(g(2, 0), check_error);
  EXPECT_THROW(g(0, -1), check_error);
}

TEST(Grid, SumMaxMinCast) {
  Grid<double> g(2, 2);
  g(0, 0) = 1;
  g(0, 1) = -3;
  g(1, 0) = 5;
  g(1, 1) = 2;
  EXPECT_DOUBLE_EQ(grid_sum(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_max(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_min(g), -3.0);
  Grid<float> f = grid_cast<float>(g);
  EXPECT_FLOAT_EQ(f(1, 0), 5.0f);
}

TEST(Grid, RowPointerMatchesIndexing) {
  Grid<int> g(3, 3);
  int v = 0;
  for (auto& x : g) x = v++;
  EXPECT_EQ(g.row(1)[2], g(1, 2));
}

TEST(Grid, EqualityAndShape) {
  Grid<double> a(2, 3, 1.0), b(2, 3, 1.0), c(3, 2, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
  b(0, 0) = 2.0;
  EXPECT_FALSE(a == b);
}

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, MedianEvenOdd) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(Eigh, DiagonalMatrix) {
  Grid<cd> a(3, 3);
  a(0, 0) = cd(3.0, 0.0);
  a(1, 1) = cd(-1.0, 0.0);
  a(2, 2) = cd(2.0, 0.0);
  const EighResult r = eigh(a);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], 3.0, 1e-12);
}

TEST(Eigh, TwoByTwoAnalytic) {
  // [[2, i], [-i, 2]] has eigenvalues 1 and 3.
  Grid<cd> a(2, 2);
  a(0, 0) = cd(2.0, 0.0);
  a(0, 1) = cd(0.0, 1.0);
  a(1, 0) = cd(0.0, -1.0);
  a(1, 1) = cd(2.0, 0.0);
  const EighResult r = eigh(a);
  EXPECT_NEAR(r.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
  EXPECT_LT(eigh_residual(a, r), 1e-10);
}

TEST(Eigh, ResidualSmallOnRandomMatrices) {
  Rng rng(19);
  for (int n : {1, 2, 3, 5, 8, 17, 40}) {
    const Grid<cd> a = random_hermitian(n, rng);
    const EighResult r = eigh(a);
    EXPECT_LT(eigh_residual(a, r), 1e-9 * std::max(1, n)) << "n=" << n;
    for (std::size_t i = 1; i < r.eigenvalues.size(); ++i) {
      EXPECT_LE(r.eigenvalues[i - 1], r.eigenvalues[i] + 1e-12);
    }
  }
}

TEST(Eigh, EigenvectorsOrthonormal) {
  Rng rng(23);
  const int n = 20;
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult r = eigh(a);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      cd dot{};
      for (int k = 0; k < n; ++k)
        dot += std::conj(r.eigenvectors(k, i)) * r.eigenvectors(k, j);
      EXPECT_NEAR(std::abs(dot), i == j ? 1.0 : 0.0, 1e-9) << i << "," << j;
    }
  }
}

TEST(Eigh, MatchesJacobiEigenvalues) {
  Rng rng(31);
  const int n = 24;
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult h = eigh(a);
  const EighResult j = eigh_jacobi(a);
  ASSERT_EQ(h.eigenvalues.size(), j.eigenvalues.size());
  for (std::size_t i = 0; i < h.eigenvalues.size(); ++i) {
    EXPECT_NEAR(h.eigenvalues[i], j.eigenvalues[i], 1e-8);
  }
  EXPECT_LT(eigh_residual(a, j), 1e-8);
}

TEST(Eigh, TraceAndSumOfEigenvaluesAgree) {
  Rng rng(37);
  const int n = 15;
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult r = eigh(a);
  double trace = 0.0, sum = 0.0;
  for (int i = 0; i < n; ++i) trace += a(i, i).real();
  for (double w : r.eigenvalues) sum += w;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Eigh, PsdRankOneSums) {
  // Gram-like accumulation (as the TCC builder does) must yield
  // non-negative eigenvalues.
  Rng rng(41);
  const int n = 12;
  Grid<cd> a(n, n, cd(0.0, 0.0));
  for (int s = 0; s < 5; ++s) {
    std::vector<cd> v(n);
    for (auto& x : v) x = cd(rng.normal(), rng.normal());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a(i, j) += v[i] * std::conj(v[j]);
  }
  const EighResult r = eigh(a);
  for (double w : r.eigenvalues) EXPECT_GE(w, -1e-9);
  // Rank is at most 5.
  int positive = 0;
  for (double w : r.eigenvalues)
    if (w > 1e-9) ++positive;
  EXPECT_LE(positive, 5);
}

TEST(Eigh, DegenerateEigenvaluesHandled) {
  // Identity has a fully degenerate spectrum.
  const int n = 6;
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i) a(i, i) = cd(1.0, 0.0);
  const EighResult r = eigh(a);
  for (double w : r.eigenvalues) EXPECT_NEAR(w, 1.0, 1e-12);
  EXPECT_LT(eigh_residual(a, r), 1e-10);
}

TEST(Eigh, RejectsNonSquare) {
  Grid<cd> a(2, 3);
  EXPECT_THROW(eigh(a), check_error);
  EXPECT_THROW(eigh_jacobi(a), check_error);
}

// The solver itself must name the cause: left to run, a NaN only surfaces
// later as a QL non-convergence.
void expect_rejected_as_non_finite(const Grid<cd>& a) {
  try {
    eigh(a);
    ADD_FAILURE() << "eigh accepted a non-finite matrix";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
        << e.what();
  }
}

TEST(Eigh, RejectsNonFiniteEntries) {
  Rng rng(43);
  Grid<cd> a = random_hermitian(6, rng);
  a(4, 1) = cd(std::numeric_limits<double>::quiet_NaN(), 0.0);
  expect_rejected_as_non_finite(a);
  a = random_hermitian(6, rng);
  a(2, 2) = cd(1.0, std::numeric_limits<double>::infinity());
  expect_rejected_as_non_finite(a);
}

// memcmp-equality of two decompositions: every eigenvalue and every
// eigenvector entry, signed zeros included.
::testing::AssertionResult bit_equal(const EighResult& got,
                                     const EighResult& want) {
  if (got.eigenvalues.size() != want.eigenvalues.size() ||
      !got.eigenvectors.same_shape(want.eigenvectors)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(got.eigenvalues.data(), want.eigenvalues.data(),
                  got.eigenvalues.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "eigenvalues differ";
  }
  if (std::memcmp(got.eigenvectors.data(), want.eigenvectors.data(),
                  got.eigenvectors.size() * sizeof(cd)) != 0) {
    return ::testing::AssertionFailure() << "eigenvectors differ";
  }
  return ::testing::AssertionSuccess();
}

// eigh splits its row loops over the pool; at every pool size it must
// reproduce the serial solver it replaced bit for bit.
void expect_matches_legacy(const Grid<cd>& a, const char* what) {
  const EighResult want = legacy_eigh(a);
  for (int workers : {1, 2, 4}) {
    set_parallel_workers(workers);
    EXPECT_TRUE(bit_equal(eigh(a), want)) << what << ", " << workers
                                          << " workers";
  }
  set_parallel_workers(0);
}

TEST(Eigh, RandomMatricesMatchLegacyBitForBit) {
  Rng rng(47);
  for (int n : {1, 2, 3, 17, 64, 100}) {
    const Grid<cd> a = random_hermitian(n, rng);
    expect_matches_legacy(a, ("n=" + std::to_string(n)).c_str());
  }
}

TEST(Eigh, RankDeficientTccsMatchLegacyBitForBit) {
  // TCCs over windows at and beyond the pupil support (512 nm tile: 15 is
  // the physical kdim) are rank-deficient: 130 and 208 of their QL
  // deflations pass only through the absolute floor.
  const OpticalSystem sys;
  for (int kdim : {15, 21}) {
    const Grid<cd> tcc = build_tcc(sys, 512, kdim);
    expect_matches_legacy(tcc, ("kdim=" + std::to_string(kdim)).c_str());
  }
}

TEST(Eigh, SubnormalTridiagonalMatchesLegacyBitForBit) {
  // A real tridiagonal matrix (the reflectors are all identities) at
  // 2^-1000 with a subnormal off-diagonal: one QL sweep takes the underflow
  // exit, where a rotation with r == 0 ends the sweep unapplied.
  const double diag[] = {7, -3, 7, 3, -6, 18};
  const double off[] = {14, 5, -5, 5, 0};
  Grid<cd> a(6, 6);
  for (int i = 0; i < 6; ++i) a(i, i) = cd(std::ldexp(diag[i], -1000), 0.0);
  for (int i = 0; i < 5; ++i) {
    a(i + 1, i) = a(i, i + 1) = cd(std::ldexp(off[i], -1044), 0.0);
  }
  expect_matches_legacy(a, "subnormal tridiagonal");
}

class EighSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(EighSizeSweep, ResidualAndOrthogonality) {
  Rng rng(100 + GetParam());
  const int n = GetParam();
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult r = eigh(a);
  EXPECT_LT(eigh_residual(a, r), 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighSizeSweep,
                         ::testing::Values(2, 4, 9, 16, 25, 49, 64, 100));

}  // namespace
}  // namespace nitho
