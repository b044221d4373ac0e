/// Oracle tests of the mixed-operator block kernel `gemv_gather_block`: every
/// column of its output must carry the bits of one `gemv_strided` (or, for a
/// sparse operator, `csr_gemv_strided`) call on that column alone, on the
/// AVX2 path and on the scalar replay.

#include "linalg/simd_kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "linalg/sparse.hpp"

namespace qoc::linalg {
namespace {

using simd::PackedOps;

std::vector<cplx> random_op(std::size_t n, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<cplx> a(n * n);
    for (cplx& v : a) v = {dist(rng), dist(rng)};
    return a;
}

/// A diagonal operator: all off-diagonal entries exact zeros, like the
/// rz-only Clifford superoperators.
std::vector<cplx> diagonal_op(std::size_t n, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<cplx> a(n * n, cplx{0.0, 0.0});
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] = {dist(rng), dist(rng)};
    return a;
}

/// Dense with scattered exact zeros, a few of them negative zeros, and
/// entries with a zero real or imaginary part.
std::vector<cplx> holey_op(std::size_t n, std::mt19937_64& rng) {
    std::vector<cplx> a = random_op(n, rng);
    for (std::size_t k = 0; k < a.size(); k += 3) a[k] = cplx{0.0, 0.0};
    for (std::size_t k = 1; k < a.size(); k += 7) a[k] = cplx{-0.0, -0.0};
    for (std::size_t k = 2; k < a.size(); k += 5) a[k] = cplx{a[k].real(), 0.0};
    for (std::size_t k = 4; k < a.size(); k += 11) a[k] = cplx{0.0, a[k].imag()};
    return a;
}

/// The operator set of a test: dense, diagonal and holey operators.
std::vector<std::vector<cplx>> op_set(std::size_t n, std::mt19937_64& rng) {
    return {random_op(n, rng), diagonal_op(n, rng), holey_op(n, rng),
            random_op(n, rng), diagonal_op(n, rng)};
}

PackedOps pack(const std::vector<std::vector<cplx>>& ops, std::size_t n) {
    std::vector<const cplx*> ptrs;
    for (const auto& op : ops) ptrs.push_back(op.data());
    return PackedOps(ptrs.data(), ptrs.size(), n);
}

std::vector<cplx> random_block(std::size_t n, std::size_t bw, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<cplx> x(n * bw);
    for (cplx& v : x) v = {dist(rng), dist(rng)};
    return x;
}

std::vector<std::size_t> mixed_indices(std::size_t bw, std::size_t count,
                                       std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> dist(0, count - 1);
    std::vector<std::size_t> idx(bw);
    for (std::size_t& i : idx) i = dist(rng);
    return idx;
}

/// One `gemv_strided` call per column: the oracle.
std::vector<cplx> per_column(const std::vector<std::vector<cplx>>& ops,
                             const std::vector<std::size_t>& idx, const std::vector<cplx>& x,
                             std::size_t n) {
    const std::size_t bw = idx.size();
    std::vector<cplx> out(n * bw, cplx{7.0, 7.0});
    for (std::size_t j = 0; j < bw; ++j) {
        simd::gemv_strided(ops[idx[j]].data(), n, x.data() + j, out.data() + j, bw,
                           /*accumulate=*/false);
    }
    return out;
}

std::vector<cplx> gathered(const PackedOps& packed, const std::vector<std::size_t>& idx,
                           const std::vector<cplx>& x) {
    std::vector<cplx> out(x.size(), cplx{7.0, 7.0});
    simd::gemv_gather_block(packed, idx.data(), x.data(), out.data(), idx.size());
    return out;
}

void expect_same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b,
                      const char* what) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].real()),
                  std::bit_cast<std::uint64_t>(b[k].real()))
            << what << " element " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k].imag()),
                  std::bit_cast<std::uint64_t>(b[k].imag()))
            << what << " element " << k;
    }
}

constexpr std::size_t kSizes[] = {4, 9};
constexpr std::size_t kWidths[] = {1, 2, 3, 16, 32};

TEST(SimdKernels, PackedBlockStepMatchesPerColumnGemvBitwise) {
    std::mt19937_64 rng(101);
    for (std::size_t n : kSizes) {
        const auto ops = op_set(n, rng);
        const PackedOps packed = pack(ops, n);
        ASSERT_EQ(packed.dim(), n);
        ASSERT_EQ(packed.size(), ops.size());
        for (std::size_t bw : kWidths) {
            for (int trial = 0; trial < 8; ++trial) {
                const auto idx = mixed_indices(bw, ops.size(), rng);
                const auto x = random_block(n, bw, rng);
                SCOPED_TRACE(testing::Message() << "n=" << n << " bw=" << bw);
                expect_same_bits(gathered(packed, idx, x), per_column(ops, idx, x, n),
                                 "gather vs gemv_strided");
            }
        }
    }
}

TEST(SimdKernels, PackedBlockStepMatchesPerColumnCsrGemvBitwise) {
    // Sparse operators take the CSR strided matvec on the per-column path;
    // skipping the exact zeros of the packed table must give its bits.
    std::mt19937_64 rng(202);
    for (std::size_t n : kSizes) {
        const std::vector<std::vector<cplx>> ops = {diagonal_op(n, rng), holey_op(n, rng)};
        std::vector<CsrMat> csr;
        for (const auto& op : ops) {
            Mat dense(n, n);
            for (std::size_t k = 0; k < n * n; ++k) dense.data()[k] = op[k];
            csr.push_back(CsrMat::from_dense(dense, /*threshold=*/0.0));
        }
        const PackedOps packed = pack(ops, n);
        for (std::size_t bw : kWidths) {
            const auto idx = mixed_indices(bw, ops.size(), rng);
            const auto x = random_block(n, bw, rng);
            std::vector<cplx> oracle(n * bw);
            for (std::size_t j = 0; j < bw; ++j) {
                const CsrMat& s = csr[idx[j]];
                simd::csr_gemv_strided(s.values().data(), s.col_indices().data(),
                                       s.row_pointers().data(), n, x.data() + j,
                                       oracle.data() + j, bw, /*accumulate=*/false);
            }
            SCOPED_TRACE(testing::Message() << "n=" << n << " bw=" << bw);
            expect_same_bits(gathered(packed, idx, x), oracle, "gather vs csr_gemv_strided");
        }
    }
}

TEST(SimdKernels, PackedBlockStepSkipsExactZerosWhereXIsNotFinite) {
    // 0 * inf is NaN: a kernel that multiplied the exact zeros of a
    // diagonal operator would smear one non-finite component over the
    // whole column.  Skipping them keeps the other rows finite.
    std::mt19937_64 rng(303);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n : kSizes) {
        const auto ops = op_set(n, rng);
        const PackedOps packed = pack(ops, n);
        for (std::size_t bw : kWidths) {
            auto x = random_block(n, bw, rng);
            x[1 * bw + 0] = {inf, 0.0};
            if (bw > 1) x[2 * bw + 1] = {nan, 1.0};
            if (bw > 2) x[0 * bw + 2] = {-inf, nan};
            std::vector<std::size_t> idx(bw, 1);  // diagonal everywhere...
            idx[bw - 1] = bw > 1 ? 2 : 1;         // ...but one holey column
            const auto got = gathered(packed, idx, x);
            SCOPED_TRACE(testing::Message() << "n=" << n << " bw=" << bw);
            expect_same_bits(got, per_column(ops, idx, x, n), "non-finite x");
            // Column 0 runs the diagonal operator: only row 1 sees the inf.
            for (std::size_t i = 0; i < n; ++i) {
                if (i == 1) continue;
                EXPECT_TRUE(std::isfinite(got[i * bw].real())) << "row " << i;
                EXPECT_TRUE(std::isfinite(got[i * bw].imag())) << "row " << i;
            }
        }
    }
}

TEST(SimdKernels, PackedBlockStepScalarReplayIsBitwiseEqual) {
    if (!simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
    std::mt19937_64 rng(404);
    for (std::size_t n : kSizes) {
        const auto ops = op_set(n, rng);
        const PackedOps packed = pack(ops, n);
        for (std::size_t bw : kWidths) {
            const auto idx = mixed_indices(bw, ops.size(), rng);
            auto x = random_block(n, bw, rng);
            x[0] = {std::numeric_limits<double>::infinity(), 0.0};
            const auto vec = gathered(packed, idx, x);
            simd::force_scalar(true);
            const auto scalar = gathered(packed, idx, x);
            const auto scalar_oracle = per_column(ops, idx, x, n);
            simd::force_scalar(false);
            SCOPED_TRACE(testing::Message() << "n=" << n << " bw=" << bw);
            expect_same_bits(vec, scalar, "avx2 vs scalar replay");
            expect_same_bits(scalar, scalar_oracle, "scalar replay vs scalar gemv_strided");
        }
    }
}

}  // namespace
}  // namespace qoc::linalg
