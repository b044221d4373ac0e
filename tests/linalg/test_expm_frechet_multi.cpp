/// Multi-direction Frechet engine: the shared-Pade path checked against
/// finite differences and against the independent augmented-block
/// `expm_frechet` across every Pade order (3..13) and the
/// scaling-and-squaring branch, plus the AVX2-vs-scalar replay fence.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/expm.hpp"
#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

Mat random_matrix(std::size_t n, unsigned seed, double scale) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-scale, scale);
    Mat m(n, n);
    for (auto& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

Mat random_hermitian(std::size_t n, unsigned seed, double scale) {
    Mat m = random_matrix(n, seed, scale);
    return 0.5 * (m + m.adjoint());
}

/// Rescales `m` so that its 1-norm is exactly `nrm` (to steer the Pade
/// order selection into a chosen theta band).
Mat with_norm(Mat m, double nrm) {
    m *= nrm / m.norm_1();
    return m;
}

/// Max-abs difference relative to the scale of the reference.
double rel_diff(const Mat& got, const Mat& ref) {
    return (got - ref).max_abs() / std::max(1.0, ref.max_abs());
}

TEST(ExpmFrechetMulti, MatchesAugmentedAcrossPadeOrders) {
    // One norm per theta band: orders 3, 5, 7, 9, 13, and 13 with s > 0
    // squarings.  The engine must agree with the Van Loan reference on both
    // the exponential and every direction.
    const double norms[] = {0.01, 0.2, 0.8, 1.8, 4.5, 20.0};
    for (double nrm : norms) {
        const Mat a = with_norm(random_matrix(5, 11, 1.0), nrm);
        const std::vector<Mat> dirs = {random_matrix(5, 21, 0.7), random_matrix(5, 22, 0.7),
                                       random_matrix(5, 23, 0.7)};
        const auto [ea, ls] = expm_frechet_multi(a, dirs);
        EXPECT_LT(rel_diff(ea, expm(a)), 1e-11) << "norm=" << nrm;
        for (std::size_t j = 0; j < dirs.size(); ++j) {
            const auto [ea_ref, l_ref] = expm_frechet(a, dirs[j]);
            EXPECT_LT(rel_diff(ea, ea_ref), 1e-10) << "norm=" << nrm;
            EXPECT_LT(rel_diff(ls[j], l_ref), 1e-9) << "norm=" << nrm << " dir=" << j;
        }
    }
}

TEST(ExpmFrechetMulti, MatchesFiniteDifferenceEveryOrder) {
    const double norms[] = {0.01, 0.2, 0.8, 1.8, 4.5, 12.0};
    for (double nrm : norms) {
        const Mat a = with_norm(random_matrix(4, 31, 1.0), nrm);
        const std::vector<Mat> dirs = {random_matrix(4, 41, 0.5), random_matrix(4, 42, 0.5)};
        const auto [ea, ls] = expm_frechet_multi(a, dirs);
        const double h = 1e-6;
        for (std::size_t j = 0; j < dirs.size(); ++j) {
            const Mat fd = (0.5 / h) * (expm(a + h * dirs[j]) - expm(a - h * dirs[j]));
            EXPECT_LT(rel_diff(ls[j], fd), 1e-6) << "norm=" << nrm << " dir=" << j;
        }
    }
}

TEST(ExpmFrechetMulti, ManyDirectionsMatchSingleDirectionCalls) {
    const Mat a = random_matrix(4, 71, 0.8);
    std::vector<Mat> dirs;
    for (unsigned j = 0; j < 4; ++j) dirs.push_back(random_matrix(4, 80 + j, 0.6));
    const auto [ea, ls] = expm_frechet_multi(a, dirs);
    for (std::size_t j = 0; j < dirs.size(); ++j) {
        const auto [ea1, l1] = expm_frechet_multi(a, {dirs[j]});
        EXPECT_TRUE(ea.approx_equal(ea1, 0.0));  // bitwise: shared intermediates
        EXPECT_TRUE(ls[j].approx_equal(l1[0], 0.0));
    }
}

TEST(ExpmFrechetMulti, WorkspaceReuseAcrossSizesAndOrdersIsStateless) {
    // One workspace driven through different sizes and Pade orders must give
    // bitwise the same results as a fresh workspace each call.
    ExpmWorkspace shared;
    const double norms[] = {20.0, 0.01, 1.8, 0.2, 4.5, 0.8};
    std::size_t sizes[] = {5, 2, 7, 3, 4, 6};
    for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t c = 0; c < 6; ++c) {
            const Mat a = with_norm(random_matrix(sizes[c], 90 + static_cast<unsigned>(c), 1.0),
                                    norms[c]);
            const std::vector<Mat> dirs = {
                random_matrix(sizes[c], 100 + static_cast<unsigned>(c), 0.5)};
            Mat ea_shared;
            std::vector<Mat> l_shared(1);
            expm_frechet_multi(a, dirs.data(), 1, ea_shared, l_shared.data(), shared);
            const auto [ea_fresh, l_fresh] = expm_frechet_multi(a, dirs);
            EXPECT_TRUE(ea_shared.approx_equal(ea_fresh, 0.0)) << "case=" << c;
            EXPECT_TRUE(l_shared[0].approx_equal(l_fresh[0], 0.0)) << "case=" << c;
        }
    }
}

TEST(ExpmFrechetMulti, LinearInDirection) {
    const Mat a = random_matrix(3, 111, 0.5);
    const Mat e1 = random_matrix(3, 112, 0.5);
    const Mat e2 = random_matrix(3, 113, 0.5);
    const auto [ea, ls] = expm_frechet_multi(a, {e1, e2, e1 + e2});
    (void)ea;
    EXPECT_LT((ls[2] - (ls[0] + ls[1])).max_abs(), 1e-10);
}

TEST(ExpmInto, MatchesExpmAndReusesWorkspace) {
    ExpmWorkspace ws;
    Mat out;
    for (double nrm : {0.01, 0.8, 4.5, 20.0}) {
        const Mat a = with_norm(random_matrix(5, 121, 1.0), nrm);
        expm_into(a, out, ws);
        EXPECT_LT(rel_diff(out, expm(a)), 1e-11) << "norm=" << nrm;
    }
    // Closed-system slot shape: anti-Hermitian input gives a unitary.
    const Mat a = (-kI * 1.3) * random_hermitian(5, 131, 1.0);
    expm_into(a, out, ws);
    EXPECT_TRUE(out.is_unitary(1e-11));
    EXPECT_LT(rel_diff(out, expm(a)), 1e-11);
}

TEST(ExpmFrechetMulti, ScalarReplayIsBitwiseEqualAtQutritSuperopSize) {
    if (!simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
    // d = 9 is the 3-level open-system GRAPE generator (a qutrit
    // Liouvillian): every design now runs this engine, so the scalar replay
    // of the simd kernels must reproduce the AVX2 path bit for bit, across
    // a low Pade order and the order-13 squaring branch.
    for (double nrm : {0.2, 20.0}) {
        const Mat a = with_norm(random_matrix(9, 141, 1.0), nrm);
        const std::vector<Mat> dirs = {random_matrix(9, 142, 0.5), random_matrix(9, 143, 0.5)};
        const auto [ea_cpu, ls_cpu] = expm_frechet_multi(a, dirs);
        simd::force_scalar(true);
        const auto [ea_scalar, ls_scalar] = expm_frechet_multi(a, dirs);
        simd::force_scalar(false);
        EXPECT_TRUE(ea_cpu.approx_equal(ea_scalar, 0.0)) << "norm=" << nrm;
        for (std::size_t j = 0; j < dirs.size(); ++j) {
            EXPECT_TRUE(ls_cpu[j].approx_equal(ls_scalar[j], 0.0))
                << "norm=" << nrm << " dir=" << j;
        }
    }
}

TEST(ExpmFrechetMulti, ShapeMismatchThrows) {
    EXPECT_THROW(expm_frechet_multi(Mat(2, 2), {Mat(3, 3)}), std::invalid_argument);
    EXPECT_THROW(expm_frechet_multi(Mat(2, 3), {}), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::linalg
