#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <vector>

#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

Mat random_matrix(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat m(n, n);
    for (auto& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

TEST(Lu, SolveHandComputed) {
    Mat a{{2.0, 1.0}, {1.0, 3.0}};
    Mat b = Mat::col_vector({cplx{5.0}, cplx{10.0}});
    const Mat x = solve(a, b);
    EXPECT_NEAR(std::abs(x(0, 0) - cplx{1.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x(1, 0) - cplx{3.0}), 0.0, 1e-12);
}

TEST(Lu, SolveResidualSmallRandom) {
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        const Mat a = random_matrix(8, seed);
        const Mat b = random_matrix(8, seed + 100).col(0);
        const Mat x = solve(a, b);
        EXPECT_LT((a * x - b).max_abs(), 1e-10) << "seed " << seed;
    }
}

TEST(Lu, MultipleRightHandSides) {
    const Mat a = random_matrix(6, 7);
    const Mat b = random_matrix(6, 8);
    const Mat x = solve(a, b);
    EXPECT_LT((a * x - b).max_abs(), 1e-10);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
    const Mat a = random_matrix(7, 11);
    const Mat ainv = inverse(a);
    EXPECT_LT((a * ainv - Mat::identity(7)).max_abs(), 1e-10);
    EXPECT_LT((ainv * a - Mat::identity(7)).max_abs(), 1e-10);
}

TEST(Lu, DeterminantDiagonal) {
    const Mat d = Mat::diag({cplx{2.0}, cplx{3.0}, kI});
    EXPECT_NEAR(std::abs(det(d) - cplx{0.0, 6.0}), 0.0, 1e-12);
}

TEST(Lu, DeterminantPermutationSign) {
    Mat p{{0.0, 1.0}, {1.0, 0.0}};  // swap -> det = -1
    EXPECT_NEAR(std::abs(det(p) - cplx{-1.0}), 0.0, 1e-12);
}

TEST(Lu, DeterminantProductRule) {
    const Mat a = random_matrix(5, 21);
    const Mat b = random_matrix(5, 22);
    const cplx dab = det(a * b);
    const cplx dadb = det(a) * det(b);
    EXPECT_NEAR(std::abs(dab - dadb) / std::abs(dadb), 0.0, 1e-9);
}

TEST(Lu, SingularDetected) {
    Mat a{{1.0, 2.0}, {2.0, 4.0}};  // rank 1
    Lu f(a);
    EXPECT_TRUE(f.singular());
    EXPECT_THROW(f.solve(Mat::identity(2)), std::runtime_error);
}

TEST(Lu, NonSquareThrows) { EXPECT_THROW(Lu(Mat(2, 3)), std::invalid_argument); }

TEST(Lu, RhsShapeMismatchThrows) {
    Lu f(Mat::identity(3));
    EXPECT_THROW(f.solve(Mat(2, 1)), std::invalid_argument);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
    Mat a{{0.0, 1.0}, {1.0, 0.0}};
    const Mat x = solve(a, Mat::col_vector({cplx{3.0}, cplx{4.0}}));
    EXPECT_NEAR(std::abs(x(0, 0) - cplx{4.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x(1, 0) - cplx{3.0}), 0.0, 1e-12);
}

/// Gaussian elimination with partial pivoting in long double: the reference
/// for solves whose pivots sit far from 1 in magnitude.
std::vector<std::complex<long double>> solve_long_double(const Mat& a, const Mat& b) {
    using lcplx = std::complex<long double>;
    const std::size_t n = a.rows();
    std::vector<std::vector<lcplx>> m(n, std::vector<lcplx>(n + 1));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) m[i][j] = lcplx(a(i, j).real(), a(i, j).imag());
        m[i][n] = lcplx(b(i, 0).real(), b(i, 0).imag());
    }
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t p = k;
        for (std::size_t i = k + 1; i < n; ++i)
            if (std::abs(m[i][k]) > std::abs(m[p][k])) p = i;
        std::swap(m[k], m[p]);
        for (std::size_t i = k + 1; i < n; ++i) {
            const lcplx f = m[i][k] / m[k][k];
            for (std::size_t j = k; j <= n; ++j) m[i][j] -= f * m[k][j];
        }
    }
    std::vector<lcplx> x(n);
    for (std::size_t i = n; i-- > 0;) {
        lcplx acc = m[i][n];
        for (std::size_t j = i + 1; j < n; ++j) acc -= m[i][j] * x[j];
        x[i] = acc / m[i][i];
    }
    return x;
}

TEST(Lu, TinyPivotAboveSingularThresholdSolvesFinitely) {
    // Column 0 holds only entries near 1e-200: their squared moduli underflow,
    // so the pivot is ranked by |z|, and 1e-200 is far above the 1e-300
    // singular threshold.  The factorization must solve finitely and agree
    // with a long double elimination.
    const Mat a{{cplx{0.5e-200, 0.0}, 2.0, 1.0},
                {cplx{1e-200, 1e-200}, 1.0, cplx{0.0, 2.0}},
                {cplx{0.0, -0.25e-200}, cplx{1.0, -1.0}, 3.0}};
    const Mat b = Mat::col_vector({cplx{1.0, 0.5}, cplx{-2.0}, cplx{0.0, 1.0}});
    const Lu f(a);
    ASSERT_FALSE(f.singular());
    const Mat x = f.solve(b);
    const auto want = solve_long_double(a, b);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(std::isfinite(x(i, 0).real()) && std::isfinite(x(i, 0).imag())) << i;
        const std::complex<long double> got(x(i, 0).real(), x(i, 0).imag());
        EXPECT_LT(static_cast<double>(std::abs(got - want[i]) / std::abs(want[i])), 1e-10)
            << "component " << i;
    }
    // The pivot row is the largest |z| in column 0 (row 1), although every
    // square in that column underflows to the same zero.
    EXPECT_EQ(f.permutation()[0], 1u);
}

TEST(Lu, ExactMagnitudeTieKeepsTheFirstRow) {
    // |5| = |3+4i| = |-5i| = |4-3i| exactly, and so are their squares: the
    // first of the tied rows at or below the diagonal wins, as under a
    // strict |z| comparison.
    const std::vector<cplx> column = {cplx{1.0, 0.0}, cplx{3.0, 4.0}, cplx{5.0, 0.0},
                                      cplx{0.0, -5.0}, cplx{4.0, -3.0}};
    Mat a = random_matrix(5, 31);
    for (std::size_t i = 0; i < 5; ++i) a(i, 0) = column[i];
    std::size_t first_max = 0;
    for (std::size_t i = 1; i < 5; ++i)
        if (std::abs(column[i]) > std::abs(column[first_max])) first_max = i;
    ASSERT_EQ(first_max, 1u);
    const Lu f(a);
    EXPECT_EQ(f.permutation()[0], first_max);
    EXPECT_LT((a * f.solve(Mat::identity(5)) - Mat::identity(5)).max_abs(), 1e-10);
}

TEST(Lu, ScalarReplayIsBitwiseEqual) {
    if (!simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
    // The Pade denominator solve of every expm runs here; the scalar replay
    // of the simd row updates must match the AVX2 path bit for bit, also on
    // an odd right-hand-side width (the unpaired tail column).
    const Lu f(random_matrix(9, 11));
    for (std::size_t cols : {1ul, 7ul, 9ul}) {
        const Mat b = random_matrix(9, 12).block(0, 0, 9, cols);
        Mat x_cpu, x_scalar;
        f.solve_into(b, x_cpu);
        simd::force_scalar(true);
        f.solve_into(b, x_scalar);
        simd::force_scalar(false);
        EXPECT_TRUE(x_cpu.approx_equal(x_scalar, 0.0)) << "cols=" << cols;
    }
}

}  // namespace
}  // namespace qoc::linalg
