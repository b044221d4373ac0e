#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <random>

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
