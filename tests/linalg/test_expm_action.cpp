/// Action of the exponential: `expm_action_into` checked against the Pade
/// engine's `expm_into(A) * B` at the executor's block shapes (a 9 x 1
/// qutrit state, a 16 x 2 pair of two-qubit states) across the Taylor
/// degree range, its degree selection, its scalar-replay fence and its
/// argument checks, plus the replay fence of the strided matvec every Taylor
/// term runs on.  The suite is named for the determinism filter, so the
/// scalar, ubsan and tsan legs run it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "linalg/expm.hpp"
#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

Mat random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat m(rows, cols);
    for (auto& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

/// A Lindblad-like generator -i H - G^dag G / 4 (coherent part plus a
/// contracting dissipative part) rescaled to 1-norm `nrm`.
Mat generator(std::size_t n, unsigned seed, double nrm) {
    const Mat m = random_matrix(n, n, seed);
    const Mat g = random_matrix(n, n, seed + 1);
    Mat a = (-kI) * (0.5 * (m + m.adjoint())) - 0.25 * (g.adjoint() * g);
    a *= nrm / a.norm_1();
    return a;
}

/// Max-abs difference relative to the largest entry of the reference.
double rel_diff(const Mat& got, const Mat& ref) {
    return (got - ref).max_abs() / ref.max_abs();
}

struct Shape {
    std::size_t n, k;
};
constexpr Shape kShapes[] = {{9, 1}, {16, 2}};
// ||A||_1 from the Rabi sweep's range (<= 0.66) up to norms that need s > 1.
constexpr double kNorms[] = {0.05, 0.3, 0.66, 3.0, 12.0, 40.0};

TEST(ExpmActionDeterminism, DegreeFromTheThetaTable) {
    EXPECT_EQ(expm_action_degree(0.0).m, 0);
    EXPECT_EQ(expm_action_degree(0.0).s, 1);
    // The largest Rabi-sweep generator norm on montreal: one degree-16 step.
    EXPECT_EQ(expm_action_degree(0.657).m, 16);
    EXPECT_EQ(expm_action_degree(0.657).s, 1);
    // Past theta_28 = 3.08 one step no longer pays: 12 takes two degree-40
    // steps, 40 five degree-50 steps.
    EXPECT_EQ(expm_action_degree(3.0).m, 28);
    EXPECT_EQ(expm_action_degree(3.0).s, 1);
    EXPECT_EQ(expm_action_degree(12.0).m, 40);
    EXPECT_EQ(expm_action_degree(12.0).s, 2);
    EXPECT_EQ(expm_action_degree(40.0).m, 50);
    EXPECT_EQ(expm_action_degree(40.0).s, 5);
}

TEST(ExpmActionDeterminism, MatchesPadeExponentialTimesBlock) {
    ExpmWorkspace pade;
    ExpmActionWorkspace ws;
    for (const Shape& sh : kShapes) {
        for (double nrm : kNorms) {
            const Mat a = generator(sh.n, 31, nrm);
            const Mat b0 = random_matrix(sh.n, sh.k, 37);
            Mat e;
            expm_into(a, e, pade);
            const Mat ref = e * b0;
            Mat b = b0;
            expm_action_into(a, b, ws);
            EXPECT_LE(rel_diff(b, ref), 1e-13) << "n=" << sh.n << " norm=" << nrm;
            // A degree chosen from a looser bound (as a stream's max bound
            // is for most of its samples) only costs more terms.
            Mat loose = b0;
            expm_action_into(a, expm_action_degree(2.0 * nrm), loose, ws);
            EXPECT_LE(rel_diff(loose, ref), 1e-13) << "n=" << sh.n << " norm=" << nrm;
        }
    }
}

TEST(ExpmActionDeterminism, ZeroGeneratorLeavesTheBlock) {
    const Mat b0 = random_matrix(9, 1, 5);
    Mat b = b0;
    ExpmActionWorkspace ws;
    expm_action_into(Mat(9, 9), b, ws);
    EXPECT_TRUE(b.approx_equal(b0, 0.0));
}

TEST(ExpmActionDeterminism, ScalarReplayIsBitwiseEqual) {
    ExpmActionWorkspace ws;
    for (const Shape& sh : kShapes) {
        for (double nrm : kNorms) {
            const Mat a = generator(sh.n, 41, nrm);
            const Mat b0 = random_matrix(sh.n, sh.k, 43);
            Mat cpu = b0, scalar = b0;
            expm_action_into(a, cpu, ws);
            simd::force_scalar(true);
            expm_action_into(a, scalar, ws);
            simd::force_scalar(false);
            EXPECT_TRUE(cpu.approx_equal(scalar, 0.0)) << "n=" << sh.n << " norm=" << nrm;
        }
    }
}

/// Equal bits, or NaN on both sides (NaN payloads are not part of the
/// kernels' contract).
bool same_value(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ExpmActionDeterminism, StridedMatvecReplaysScalarBitwise) {
    // gemv_strided pairs output rows in one AVX2 vector and adds -0 where
    // the scalar replay skips an exactly-zero entry.  Odd and even sizes,
    // strides, +-0 entries, an infinite x component (which a zero entry must
    // not turn into NaN) and accumulation onto -0 all replay bit for bit.
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t n : {1, 2, 3, 9, 16, 17}) {
        for (std::size_t stride : {1, 2, 5}) {
            Mat a = random_matrix(n, n, 60 + static_cast<unsigned>(n));
            for (std::size_t e = 0; e < a.data().size(); e += 3) a.data()[e] = cplx{0.0, 0.0};
            for (std::size_t e = 1; e < a.data().size(); e += 7) a.data()[e] = cplx{-0.0, 0.0};
            Mat x = random_matrix(n, stride, 70 + static_cast<unsigned>(stride));
            if (n > 2) {
                x(n - 1, 0) = cplx{inf, 0.0};
                for (std::size_t i = 0; i < n; ++i) a(i, n - 1) = cplx{0.0, 0.0};
                a(0, n - 1) = cplx{0.5, -0.25};  // one row does see the infinity
            }
            for (bool accumulate : {false, true}) {
                Mat init = random_matrix(n, stride, 80);
                init(0, 0) = cplx{-0.0, -0.0};
                Mat cpu = init, scalar = init;
                for (std::size_t c = 0; c < stride; ++c) {
                    simd::gemv_strided(a.data().data(), n, x.data().data() + c,
                                       cpu.data().data() + c, stride, accumulate);
                }
                simd::force_scalar(true);
                for (std::size_t c = 0; c < stride; ++c) {
                    simd::gemv_strided(a.data().data(), n, x.data().data() + c,
                                       scalar.data().data() + c, stride, accumulate);
                }
                simd::force_scalar(false);
                for (std::size_t e = 0; e < cpu.data().size(); ++e) {
                    EXPECT_TRUE(same_value(cpu.data()[e].real(), scalar.data()[e].real()) &&
                                same_value(cpu.data()[e].imag(), scalar.data()[e].imag()))
                        << "n=" << n << " stride=" << stride << " acc=" << accumulate
                        << " element " << e << ": " << cpu.data()[e] << " vs "
                        << scalar.data()[e];
                }
            }
        }
    }
}

TEST(ExpmActionDeterminism, RejectsBadArguments) {
    ExpmActionWorkspace ws;
    Mat b = random_matrix(9, 1, 3);
    EXPECT_THROW(expm_action_into(Mat(9, 8), b, ws), std::invalid_argument);
    EXPECT_THROW(expm_action_into(Mat(16, 16), b, ws), std::invalid_argument);
    EXPECT_THROW(expm_action_into(Mat(16, 16), expm_action_degree(1.0), b, ws),
                 std::invalid_argument);
    Mat a = generator(9, 7, 0.3);
    a(4, 2) = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
    EXPECT_THROW(expm_action_into(a, b, ws), std::invalid_argument);
    a(4, 2) = cplx{0.0, std::numeric_limits<double>::infinity()};
    EXPECT_THROW(expm_action_into(a, b, ws), std::invalid_argument);
    EXPECT_THROW(expm_action_degree(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_THROW(expm_action_degree(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::linalg
