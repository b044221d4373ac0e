#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "obs/obs.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

TEST(Matrix, DefaultIsEmpty) {
    Mat m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizeConstructorZeroFills) {
    Mat m(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(m(i, j), cplx(0.0, 0.0));
}

TEST(Matrix, InitializerList) {
    Mat m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m(0, 1), cplx(2.0, 0.0));
    EXPECT_EQ(m(1, 0), cplx(3.0, 0.0));
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Mat{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, VectorConstructorChecksSize) {
    EXPECT_THROW(Mat(2, 2, {cplx{1.0}, cplx{2.0}}), std::invalid_argument);
    Mat m(1, 2, {cplx{1.0}, cplx{2.0}});
    EXPECT_EQ(m(0, 1), cplx(2.0, 0.0));
}

TEST(Matrix, Identity) {
    const Mat ident = Mat::identity(4);
    EXPECT_EQ(ident.trace(), cplx(4.0, 0.0));
    EXPECT_TRUE(ident.is_unitary());
    EXPECT_TRUE(ident.is_hermitian());
}

TEST(Matrix, DiagAndColVector) {
    const Mat d = Mat::diag({cplx{1.0}, cplx{2.0}});
    EXPECT_EQ(d(1, 1), cplx(2.0, 0.0));
    EXPECT_EQ(d(0, 1), cplx(0.0, 0.0));
    const Mat v = Mat::col_vector({cplx{1.0}, kI});
    EXPECT_EQ(v.rows(), 2u);
    EXPECT_EQ(v.cols(), 1u);
    EXPECT_EQ(v(1, 0), kI);
}

TEST(Matrix, AtThrowsOutOfRange) {
    Mat m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(m.at(0, 2), std::out_of_range);
    EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, AddSubtract) {
    Mat a{{1.0, 2.0}, {3.0, 4.0}};
    Mat b{{4.0, 3.0}, {2.0, 1.0}};
    const Mat s = a + b;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(s(i, j), cplx(5.0, 0.0));
    const Mat d = a - a;
    EXPECT_NEAR(d.max_abs(), 0.0, 1e-15);
}

TEST(Matrix, ShapeMismatchThrows) {
    Mat a(2, 2), b(2, 3);
    EXPECT_THROW(a += b, std::invalid_argument);
    EXPECT_THROW(a -= b, std::invalid_argument);
    EXPECT_THROW(b * a, std::invalid_argument);
}

TEST(Matrix, ScalarMultiply) {
    Mat a{{1.0, 0.0}, {0.0, 1.0}};
    const Mat b = a * kI;
    EXPECT_EQ(b(0, 0), kI);
    const Mat c = 2.0 * a;
    EXPECT_EQ(c(1, 1), cplx(2.0, 0.0));
}

TEST(Matrix, ProductAgainstHandComputed) {
    Mat a{{1.0, 2.0}, {3.0, 4.0}};
    Mat b{{5.0, 6.0}, {7.0, 8.0}};
    const Mat c = a * b;
    EXPECT_EQ(c(0, 0), cplx(19.0, 0.0));
    EXPECT_EQ(c(0, 1), cplx(22.0, 0.0));
    EXPECT_EQ(c(1, 0), cplx(43.0, 0.0));
    EXPECT_EQ(c(1, 1), cplx(50.0, 0.0));
}

TEST(Matrix, ProductComplexEntries) {
    Mat a{{kI}};
    Mat b{{kI}};
    EXPECT_EQ((a * b)(0, 0), cplx(-1.0, 0.0));
}

TEST(Matrix, AdjointConjugatesAndTransposes) {
    Mat a{{cplx{1.0, 2.0}, cplx{3.0, 4.0}}, {cplx{5.0, 6.0}, cplx{7.0, 8.0}}};
    const Mat ad = a.adjoint();
    EXPECT_EQ(ad(0, 1), cplx(5.0, -6.0));
    EXPECT_EQ(ad(1, 0), cplx(3.0, -4.0));
    EXPECT_TRUE(a.transpose().conj().approx_equal(ad));
}

TEST(Matrix, AdjointTimesMatchesExplicit) {
    Mat a{{cplx{1.0, 1.0}, 2.0}, {0.0, cplx{0.0, -3.0}}};
    Mat b{{1.0, cplx{0.0, 1.0}}, {2.0, 3.0}};
    EXPECT_TRUE(adjoint_times(a, b).approx_equal(a.adjoint() * b, 1e-14));
}

TEST(Matrix, HsInnerMatchesTraceForm) {
    Mat a{{cplx{1.0, 1.0}, 2.0}, {0.5, cplx{0.0, -3.0}}};
    Mat b{{1.0, cplx{0.0, 1.0}}, {2.0, 3.0}};
    const cplx direct = hs_inner(a, b);
    const cplx via_trace = (a.adjoint() * b).trace();
    EXPECT_NEAR(std::abs(direct - via_trace), 0.0, 1e-13);
}

TEST(Matrix, TraceRequiresSquare) {
    Mat m(2, 3);
    EXPECT_THROW(m.trace(), std::invalid_argument);
}

TEST(Matrix, FrobeniusAndMaxNorms) {
    Mat m{{3.0, 0.0}, {0.0, 4.0}};
    EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
    EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(Matrix, OneNormIsMaxColumnSum) {
    Mat m{{1.0, -2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m.norm_1(), 6.0);
}

TEST(Matrix, OneNormPropagatesNonFiniteEntries) {
    // A NaN in any column must survive the max over column sums (std::max
    // alone would drop it), so expm can reject the input.
    for (std::size_t col : {0ul, 1ul}) {
        Mat m{{1.0, -2.0}, {3.0, 4.0}};
        m(1, col) = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
        EXPECT_TRUE(std::isnan(m.norm_1())) << "col=" << col;
    }
    Mat m{{1.0, -2.0}, {3.0, 4.0}};
    m(0, 0) = cplx{0.0, std::numeric_limits<double>::infinity()};
    EXPECT_TRUE(std::isinf(m.norm_1()));
}

TEST(Matrix, OneNormSurvivesSquareOverflowAndUnderflow) {
    // |z| is sqrt(re^2 + im^2) only while the square is a normal double:
    // entries near 1e200 (square overflows) and 1e-200 (square underflows)
    // take std::abs, so the norm is finite and equals the std::abs sum.
    auto abs_norm_1 = [](const Mat& m) {
        double best = 0.0;
        for (std::size_t j = 0; j < m.cols(); ++j) {
            double colsum = 0.0;
            for (std::size_t i = 0; i < m.rows(); ++i) colsum += std::abs(m(i, j));
            best = std::max(best, colsum);
        }
        return best;
    };
    const Mat huge{{cplx{6e199, 8e199}, cplx{3.0, 4.0}, 0.0},
                   {cplx{-1e200, 0.0}, cplx{0.0, 2e-200}, cplx{1e-200, -1e-200}},
                   {cplx{0.0, 0.0}, cplx{-3e200, 1e200}, cplx{1e200, 1e200}}};
    EXPECT_TRUE(std::isfinite(huge.norm_1()));
    EXPECT_EQ(huge.norm_1(), abs_norm_1(huge));
    const Mat tiny{{cplx{3e-200, 4e-200}, cplx{1e-170, 0.0}}, {cplx{0.0, -1e-250}, 0.0}};
    EXPECT_GT(tiny.norm_1(), 0.0);
    EXPECT_EQ(tiny.norm_1(), abs_norm_1(tiny));
}

TEST(Matrix, HermitianDetection) {
    Mat h{{2.0, cplx{1.0, 1.0}}, {cplx{1.0, -1.0}, 3.0}};
    EXPECT_TRUE(h.is_hermitian());
    Mat nh{{2.0, cplx{1.0, 1.0}}, {cplx{1.0, 1.0}, 3.0}};
    EXPECT_FALSE(nh.is_hermitian());
}

TEST(Matrix, UnitaryDetection) {
    const double r = 1.0 / std::sqrt(2.0);
    Mat h{{r, r}, {r, -r}};
    EXPECT_TRUE(h.is_unitary());
    Mat not_u{{1.0, 0.0}, {0.0, 2.0}};
    EXPECT_FALSE(not_u.is_unitary());
}

TEST(Matrix, BlockExtractAndSet) {
    Mat m(3, 3);
    Mat b{{1.0, 2.0}, {3.0, 4.0}};
    m.set_block(1, 1, b);
    EXPECT_EQ(m(2, 2), cplx(4.0, 0.0));
    EXPECT_TRUE(m.block(1, 1, 2, 2).approx_equal(b));
    EXPECT_THROW(m.block(2, 2, 2, 2), std::out_of_range);
    EXPECT_THROW(m.set_block(2, 2, b), std::out_of_range);
}

TEST(Matrix, RowAndColViews) {
    Mat m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.col(1)(0, 0), cplx(2.0, 0.0));
    EXPECT_EQ(m.row(1)(0, 1), cplx(4.0, 0.0));
}

TEST(Matrix, CommutatorOfCommutingIsZero) {
    Mat a = Mat::diag({cplx{1.0}, cplx{2.0}});
    Mat b = Mat::diag({cplx{3.0}, cplx{4.0}});
    EXPECT_NEAR(commutator(a, b).max_abs(), 0.0, 1e-15);
}

TEST(Matrix, AnticommutatorPauli) {
    Mat sx{{0.0, 1.0}, {1.0, 0.0}};
    Mat sy{{0.0, -kI}, {kI, 0.0}};
    EXPECT_NEAR(anticommutator(sx, sy).max_abs(), 0.0, 1e-15);
    const Mat sx2 = anticommutator(sx, sx);
    EXPECT_TRUE(sx2.approx_equal(2.0 * Mat::identity(2), 1e-15));
}

TEST(Matrix, EqualUpToPhase) {
    Mat a{{0.0, 1.0}, {1.0, 0.0}};
    const Mat b = a * kI;
    EXPECT_TRUE(equal_up_to_phase(a, b));
    EXPECT_TRUE(equal_up_to_phase(b, a));
    Mat c{{0.0, 1.0}, {-1.0, 0.0}};
    EXPECT_FALSE(equal_up_to_phase(a, c));
}

TEST(Matrix, EqualUpToPhaseRejectsNonUnitPhase) {
    Mat a{{1.0, 0.0}, {0.0, 1.0}};
    const Mat b = 2.0 * a;
    EXPECT_FALSE(equal_up_to_phase(b, a));
}

TEST(Matrix, StreamOutputContainsEntries) {
    Mat m{{1.0, 0.0}, {0.0, 1.0}};
    std::ostringstream os;
    os << m;
    EXPECT_NE(os.str().find("1"), std::string::npos);
}

TEST(Matrix, GemvIntoMatchesOperatorProduct) {
    // Rectangular a (6x4) against a dense column vector; the matvec must be
    // bitwise identical to the gemm path (same per-row accumulation order).
    const std::size_t n = 6, k = 4;
    Mat a(n, k), x(k, 1);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < k; ++j)
            a(i, j) = cplx(std::sin(1.0 + static_cast<double>(i * k + j)),
                           std::cos(2.0 + static_cast<double>(3 * i + j)));
    for (std::size_t j = 0; j < k; ++j)
        x(j, 0) = cplx(0.3 * static_cast<double>(j + 1), -0.7 + static_cast<double>(j));

    const Mat ref = a * x;
    Mat out;
    gemv_into(a, x, out);
    ASSERT_EQ(out.rows(), n);
    ASSERT_EQ(out.cols(), 1u);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out(i, 0), ref(i, 0)) << "i=" << i;

    // Reuse (dirty buffer of the right shape): result must not care.
    gemv_into(a, x, out);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out(i, 0), ref(i, 0)) << "reuse i=" << i;
}

TEST(Matrix, GemvIntoRejectsBadShapes) {
    Mat a(3, 2), x_bad_rows(3, 1), x_not_vector(2, 2), out;
    EXPECT_THROW(gemv_into(a, x_bad_rows, out), std::invalid_argument);
    EXPECT_THROW(gemv_into(a, x_not_vector, out), std::invalid_argument);
}

TEST(Matrix, EachProductEntryPointCountsOneGemmCall) {
    obs::reset_for_testing();
    obs::enable_metrics("");  // in-memory counters only
    const Mat a{{1.0, 2.0}, {3.0, 4.0}};
    const Mat b{{0.5, 0.0}, {kI, 1.0}};
    Mat out;
    const auto gemms = [] { return obs::counter_value(obs::Cnt::kGemmCalls); };

    std::uint64_t before = gemms();
    gemm_into(a, b, out);
    EXPECT_EQ(gemms() - before, 1u) << "gemm_into";
    before = gemms();
    const Mat prod = a * b;
    EXPECT_EQ(gemms() - before, 1u) << "operator*";
    EXPECT_TRUE(prod.approx_equal(out, 0.0));  // same kernel, same bits
    before = gemms();
    gemm_acc(a, b, out);
    EXPECT_EQ(gemms() - before, 1u) << "gemm_acc";

    const std::uint64_t gemvs = obs::counter_value(obs::Cnt::kGemvCalls);
    gemv_into(a, b.col(0), out);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kGemvCalls) - gemvs, 1u);
    obs::reset_for_testing();
}

}  // namespace
}  // namespace qoc::linalg
