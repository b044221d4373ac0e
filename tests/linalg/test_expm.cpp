#include "linalg/expm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <random>

#include "linalg/expm_frechet_reference.hpp"
#include "linalg/expm_hermitian_reference.hpp"

namespace qoc::linalg {
namespace {

using reference::expm_frechet;
using reference::expm_hermitian;

constexpr cplx kI{0.0, 1.0};

Mat random_matrix(std::size_t n, unsigned seed, double scale) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-scale, scale);
    Mat m(n, n);
    for (auto& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

TEST(Expm, ZeroMatrixGivesIdentity) {
    EXPECT_TRUE(expm(Mat(3, 3)).approx_equal(Mat::identity(3), 1e-14));
}

TEST(Expm, DiagonalMatrix) {
    const Mat d = Mat::diag({cplx{1.0}, cplx{-2.0}, kI});
    const Mat e = expm(d);
    EXPECT_NEAR(std::abs(e(0, 0) - std::exp(cplx{1.0})), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(e(1, 1) - std::exp(cplx{-2.0})), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(e(2, 2) - std::exp(kI)), 0.0, 1e-12);
}

TEST(Expm, NilpotentExactSeries) {
    // N = [[0,1],[0,0]] => e^N = I + N exactly.
    Mat n{{0.0, 1.0}, {0.0, 0.0}};
    EXPECT_TRUE(expm(n).approx_equal(Mat::identity(2) + n, 1e-14));
}

TEST(Expm, PauliRotationClosedForm) {
    // exp(-i theta/2 sx) = cos(theta/2) I - i sin(theta/2) sx.
    Mat sx{{0.0, 1.0}, {1.0, 0.0}};
    for (double theta : {0.1, 1.0, std::numbers::pi, 5.0}) {
        const Mat a = (-kI * (theta / 2.0)) * sx;
        const Mat e = expm(a);
        Mat expect = std::cos(theta / 2.0) * Mat::identity(2) +
                     cplx{0.0, -std::sin(theta / 2.0)} * sx;
        EXPECT_TRUE(e.approx_equal(expect, 1e-12)) << "theta=" << theta;
    }
}

TEST(Expm, MatchesHermitianEigenPath) {
    for (unsigned seed : {3u, 4u}) {
        Mat h = random_matrix(6, seed, 1.0);
        h = 0.5 * (h + h.adjoint());  // hermitize
        const double t = 2.7;
        const Mat via_pade = expm((-kI * t) * h);
        const Mat via_eig = expm_hermitian(h, t);
        EXPECT_LT((via_pade - via_eig).max_abs(), 1e-10);
    }
}

TEST(Expm, LargeNormTriggersScalingAndStaysAccurate) {
    Mat sz{{1.0, 0.0}, {0.0, -1.0}};
    const double theta = 200.0;  // well beyond theta_13, forces squaring
    const Mat e = expm((-kI * theta) * sz);
    EXPECT_NEAR(std::abs(e(0, 0) - std::exp(-kI * theta)), 0.0, 1e-9);
    EXPECT_NEAR(std::abs(e(1, 1) - std::exp(kI * theta)), 0.0, 1e-9);
}

TEST(Expm, GroupProperty) {
    const Mat a = random_matrix(5, 17, 0.8);
    const Mat whole = expm(a);
    const Mat halves = expm(0.5 * a) * expm(0.5 * a);
    EXPECT_LT((whole - halves).max_abs(), 1e-11);
}

TEST(Expm, InverseIsExpOfNegative) {
    const Mat a = random_matrix(4, 23, 0.5);
    const Mat prod = expm(a) * expm(-a);
    EXPECT_LT((prod - Mat::identity(4)).max_abs(), 1e-11);
}

TEST(Expm, SkewHermitianGivesUnitary) {
    Mat h = random_matrix(5, 31, 1.0);
    h = 0.5 * (h + h.adjoint());
    const Mat u = expm(-kI * h);
    EXPECT_TRUE(u.is_unitary(1e-11));
}

TEST(Expm, NonSquareThrows) { EXPECT_THROW(expm(Mat(2, 3)), std::invalid_argument); }

TEST(Expm, NonFiniteEntryThrows) {
    // An inf entry makes ||A||_1 infinite, which no scaling brings under
    // theta_13; a NaN entry makes it NaN.  Both must throw, not loop.
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        Mat a{{0.1, 0.0}, {0.0, 0.2}};
        a(0, 1) = cplx{bad, 0.0};
        EXPECT_THROW(expm(a), std::invalid_argument) << bad;
        ExpmWorkspace ws;
        Mat out;
        EXPECT_THROW(expm_into(a, out, ws), std::invalid_argument) << bad;
    }
}

TEST(ExpmFrechet, MatchesFiniteDifference) {
    for (unsigned seed : {8u, 9u}) {
        const Mat a = random_matrix(4, seed, 0.7);
        const Mat e = random_matrix(4, seed + 50, 0.7);
        const auto [ea, frechet] = expm_frechet(a, e);
        EXPECT_TRUE(ea.approx_equal(expm(a), 1e-11));
        const double h = 1e-6;
        const Mat fd = (1.0 / (2.0 * h)) * (expm(a + h * e) - expm(a - h * e));
        EXPECT_LT((frechet - fd).max_abs(), 1e-7) << "seed=" << seed;
    }
}

TEST(ExpmFrechet, LinearInDirection) {
    const Mat a = random_matrix(3, 77, 0.5);
    const Mat e1 = random_matrix(3, 78, 0.5);
    const Mat e2 = random_matrix(3, 79, 0.5);
    const Mat l1 = expm_frechet(a, e1).second;
    const Mat l2 = expm_frechet(a, e2).second;
    const Mat l12 = expm_frechet(a, e1 + e2).second;
    EXPECT_LT((l12 - (l1 + l2)).max_abs(), 1e-10);
    const Mat l2x = expm_frechet(a, 2.0 * e1).second;
    EXPECT_LT((l2x - 2.0 * l1).max_abs(), 1e-10);
}

TEST(ExpmFrechet, ShapeMismatchThrows) {
    EXPECT_THROW(expm_frechet(Mat(2, 2), Mat(3, 3)), std::invalid_argument);
}

TEST(ExpmHermitian, RotationAngleSweep) {
    // Parameterized-style sweep: exp(-i sz t) diagonal phases.
    Mat sz{{1.0, 0.0}, {0.0, -1.0}};
    for (int k = 0; k <= 12; ++k) {
        const double t = 0.3 * k;
        const Mat u = expm_hermitian(sz, t);
        EXPECT_NEAR(std::abs(u(0, 0) - std::exp(-kI * t)), 0.0, 1e-12) << "t=" << t;
        EXPECT_TRUE(u.is_unitary(1e-12));
    }
}

}  // namespace
}  // namespace qoc::linalg
