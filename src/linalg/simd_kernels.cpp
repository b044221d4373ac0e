#include "linalg/simd_kernels.hpp"

#include <algorithm>
#include <cmath>

#if defined(QOC_SIMD_KERNELS) && defined(__x86_64__) && defined(__GNUC__)
#define QOC_HAVE_AVX2_PATH 1
#include <immintrin.h>
#endif

namespace qoc::linalg::simd {

namespace {

bool g_force_scalar = false;

// --- scalar replay of the AVX2 lane arithmetic ------------------------------
//
// prod = fmaddsub(b, broadcast(a_re), b_swapped * broadcast(a_im)):
//   re: fma(b_re, a_re, -(a_im * b_im))
//   im: fma(b_im, a_re, +(a_im * b_re))
// then acc += prod as a separate IEEE add.  Every scalar helper below
// commits elements through this exact sequence so vector and scalar paths
// round identically.

inline void cfma(cplx& acc, const cplx a, const cplx b) noexcept {
    const double pr = std::fma(b.real(), a.real(), -(a.imag() * b.imag()));
    const double pi = std::fma(b.imag(), a.real(), a.imag() * b.real());
    acc = cplx{acc.real() + pr, acc.imag() + pi};
}

inline void cfms(cplx& acc, const cplx a, const cplx b) noexcept {
    const double pr = std::fma(b.real(), a.real(), -(a.imag() * b.imag()));
    const double pi = std::fma(b.imag(), a.real(), a.imag() * b.real());
    acc = cplx{acc.real() - pr, acc.imag() - pi};
}

/// x = r * x as the product alone (no accumulator).
inline void cscale(cplx& x, const cplx r) noexcept {
    x = cplx{std::fma(x.real(), r.real(), -(r.imag() * x.imag())),
             std::fma(x.imag(), r.real(), r.imag() * x.real())};
}

void gemm_raw_scalar(const cplx* a, const cplx* b, cplx* c, std::size_t m, std::size_t k,
                     std::size_t n, bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n;
        if (!accumulate) {
            for (std::size_t j = 0; j < n; ++j) crow[j] = cplx{0.0, 0.0};
        }
        const cplx* arow = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
            const cplx aip = arow[p];
            if (aip == cplx{0.0, 0.0}) continue;
            const cplx* brow = b + p * n;
            for (std::size_t j = 0; j < n; ++j) cfma(crow[j], aip, brow[j]);
        }
    }
}

void gemv_strided_scalar(const cplx* a, std::size_t n, const cplx* x, cplx* out,
                         std::size_t stride, bool accumulate) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        cplx acc = accumulate ? out[i * stride] : cplx{0.0, 0.0};
        const cplx* arow = a + i * n;
        for (std::size_t p = 0; p < n; ++p) {
            const cplx aip = arow[p];
            if (aip == cplx{0.0, 0.0}) continue;
            cfma(acc, aip, x[p * stride]);
        }
        out[i * stride] = acc;
    }
}

void csr_gemv_strided_scalar(const cplx* vals, const int* cols, const int* rowptr,
                             std::size_t n_rows, const cplx* x, cplx* out,
                             std::size_t stride, bool accumulate) noexcept {
    for (std::size_t i = 0; i < n_rows; ++i) {
        cplx acc = accumulate ? out[i * stride] : cplx{0.0, 0.0};
        for (int idx = rowptr[i]; idx < rowptr[i + 1]; ++idx) {
            cfma(acc, vals[idx], x[static_cast<std::size_t>(cols[idx]) * stride]);
        }
        out[i * stride] = acc;
    }
}

void csr_gemm_raw_scalar(const cplx* vals, const int* cols, const int* rowptr,
                         std::size_t m, const cplx* b, cplx* c, std::size_t n,
                         bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n;
        if (!accumulate) {
            for (std::size_t j = 0; j < n; ++j) crow[j] = cplx{0.0, 0.0};
        }
        for (int idx = rowptr[i]; idx < rowptr[i + 1]; ++idx) {
            const cplx v = vals[idx];
            const cplx* brow = b + static_cast<std::size_t>(cols[idx]) * n;
            for (std::size_t j = 0; j < n; ++j) cfma(crow[j], v, brow[j]);
        }
    }
}

// Packed-table offsets (in doubles) of entry (p, row pair r): the real lane,
// then the imaginary lane, 4 doubles each.
constexpr std::size_t kEntryDoubles = 8;
constexpr std::size_t kImLane = 4;

void gemv_gather_block_scalar(const PackedOps& ops, const std::size_t* idx, const cplx* x,
                              cplx* out, std::size_t bw) noexcept {
    const std::size_t n = ops.dim();
    const std::size_t p_stride = kEntryDoubles * ops.row_pairs();
    for (std::size_t j = 0; j < bw; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            const double* e = ops.op(idx[j]) + kEntryDoubles * (i / 2) + 2 * (i % 2);
            cplx acc{0.0, 0.0};
            for (std::size_t p = 0; p < n; ++p, e += p_stride) {
                const cplx aip{e[0], e[kImLane]};
                if (aip == cplx{0.0, 0.0}) continue;
                cfma(acc, aip, x[p * bw + j]);
            }
            out[i * bw + j] = acc;
        }
    }
}

void lu_substitute_scalar(const cplx* lu, const cplx* rdiag, std::size_t n, cplx* x,
                          std::size_t m) noexcept {
    for (std::size_t i = 1; i < n; ++i) {
        cplx* xi = x + i * m;
        for (std::size_t k = 0; k < i; ++k) {
            const cplx l = lu[i * n + k];
            if (l == cplx{0.0, 0.0}) continue;
            const cplx* xk = x + k * m;
            for (std::size_t j = 0; j < m; ++j) cfms(xi[j], l, xk[j]);
        }
    }
    for (std::size_t i = n; i-- > 0;) {
        cplx* xi = x + i * m;
        for (std::size_t k = i + 1; k < n; ++k) {
            const cplx u = lu[i * n + k];
            if (u == cplx{0.0, 0.0}) continue;
            const cplx* xk = x + k * m;
            for (std::size_t j = 0; j < m; ++j) cfms(xi[j], u, xk[j]);
        }
        for (std::size_t j = 0; j < m; ++j) cscale(xi[j], rdiag[i]);
    }
}

#if defined(QOC_HAVE_AVX2_PATH)

// --- AVX2+FMA variants ------------------------------------------------------
//
// A 256-bit vector holds two interleaved complex doubles [re0 im0 re1 im1].
// The complex broadcast-multiply-accumulate is the classic fmaddsub form;
// odd tails replay the scalar sequence, which rounds identically.

/// acc += a * v for two packed complex in `v`, `a` broadcast as (ar, ai).
__attribute__((target("avx2,fma"))) inline __m256d cfma2(__m256d acc, __m256d ar, __m256d ai,
                                                         __m256d v) noexcept {
    const __m256d swapped = _mm256_permute_pd(v, 0b0101);
    return _mm256_add_pd(acc, _mm256_fmaddsub_pd(v, ar, _mm256_mul_pd(swapped, ai)));
}

// fma-target copies of the scalar replay: the baseline-ISA build lowers
// std::fma to a libm call (x86-64 has no baseline fma instruction), which
// dominates the strided single-column applies.  Compiled for fma these
// collapse to vfmadd -- same correctly-rounded result, so still bitwise
// identical to the portable scalar path.

__attribute__((target("avx2,fma"))) inline void cfma_hw(cplx& acc, const cplx a,
                                                        const cplx b) noexcept {
    const double pr = std::fma(b.real(), a.real(), -(a.imag() * b.imag()));
    const double pi = std::fma(b.imag(), a.real(), a.imag() * b.real());
    acc = cplx{acc.real() + pr, acc.imag() + pi};
}

/// a(i,p) x_p for rows i and i + 1 of row-major `a` (entries at `r0`, `r1`)
/// against the broadcast `xv` = [x_re x_im x_re x_im] (`xs` = its swap), in
/// the lane arithmetic of `cfma2`.  A row whose entry is exactly zero gets
/// -0 instead: adding -0 leaves every accumulator bit-unchanged, which is
/// what skipping the term does in the scalar replay, even where x_p is not
/// finite.
__attribute__((target("avx2,fma"))) inline __m256d cprod_rows2(const double* r0, const double* r1,
                                                               __m256d xv,
                                                               __m256d xs) noexcept {
    const __m256d av = _mm256_set_m128d(_mm_loadu_pd(r1), _mm_loadu_pd(r0));
    const __m256d prod = _mm256_fmaddsub_pd(xv, _mm256_movedup_pd(av),
                                            _mm256_mul_pd(xs, _mm256_permute_pd(av, 0b1111)));
    const __m256d z = _mm256_cmp_pd(av, _mm256_setzero_pd(), _CMP_EQ_OQ);
    const __m256d zero_entry = _mm256_and_pd(z, _mm256_permute_pd(z, 0b0101));
    return _mm256_blendv_pd(prod, _mm256_set1_pd(-0.0), zero_entry);
}

/// One-row (128-bit) form of `cprod_rows2`.
__attribute__((target("avx2,fma"))) inline __m128d cprod_row1(const double* r0, __m128d xv,
                                                              __m128d xs) noexcept {
    const __m128d av = _mm_loadu_pd(r0);
    const __m128d prod =
        _mm_fmaddsub_pd(xv, _mm_movedup_pd(av), _mm_mul_pd(xs, _mm_permute_pd(av, 0b11)));
    const __m128d z = _mm_cmp_pd(av, _mm_setzero_pd(), _CMP_EQ_OQ);
    return _mm_blendv_pd(prod, _mm_set1_pd(-0.0), _mm_and_pd(z, _mm_permute_pd(z, 0b01)));
}

// Two output rows per pass, one per 128-bit half, so each vector add
// commits one term of two independent accumulations: every element still
// sums its nonzero terms over ascending p in the scalar order, without the
// scalar loop's per-entry zero branch.
__attribute__((target("avx2,fma"))) void gemv_strided_hw(const cplx* a, std::size_t n,
                                                         const cplx* x, cplx* out,
                                                         std::size_t stride,
                                                         bool accumulate) noexcept {
    const auto* ad = reinterpret_cast<const double*>(a);
    const auto* xd = reinterpret_cast<const double*>(x);
    auto* od = reinterpret_cast<double*>(out);
    std::size_t i = 0;
    for (; i + 1 < n; i += 2) {
        double* o0 = od + 2 * i * stride;
        double* o1 = od + 2 * (i + 1) * stride;
        __m256d acc = accumulate ? _mm256_set_m128d(_mm_loadu_pd(o1), _mm_loadu_pd(o0))
                                 : _mm256_setzero_pd();
        const double* r0 = ad + 2 * i * n;
        const double* r1 = r0 + 2 * n;
        for (std::size_t p = 0; p < n; ++p) {
            const __m256d xv =
                _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(xd + 2 * p * stride));
            const __m256d xs = _mm256_permute_pd(xv, 0b0101);
            acc = _mm256_add_pd(acc, cprod_rows2(r0 + 2 * p, r1 + 2 * p, xv, xs));
        }
        _mm_storeu_pd(o0, _mm256_castpd256_pd128(acc));
        _mm_storeu_pd(o1, _mm256_extractf128_pd(acc, 1));
    }
    if (i < n) {
        double* o0 = od + 2 * i * stride;
        __m128d acc = accumulate ? _mm_loadu_pd(o0) : _mm_setzero_pd();
        const double* r0 = ad + 2 * i * n;
        for (std::size_t p = 0; p < n; ++p) {
            const __m128d xv = _mm_loadu_pd(xd + 2 * p * stride);
            acc = _mm_add_pd(acc, cprod_row1(r0 + 2 * p, xv, _mm_permute_pd(xv, 0b01)));
        }
        _mm_storeu_pd(o0, acc);
    }
}

__attribute__((target("avx2,fma"))) void csr_gemv_strided_hw(const cplx* vals, const int* cols,
                                                             const int* rowptr,
                                                             std::size_t n_rows, const cplx* x,
                                                             cplx* out, std::size_t stride,
                                                             bool accumulate) noexcept {
    for (std::size_t i = 0; i < n_rows; ++i) {
        cplx acc = accumulate ? out[i * stride] : cplx{0.0, 0.0};
        for (int idx = rowptr[i]; idx < rowptr[i + 1]; ++idx) {
            cfma_hw(acc, vals[idx], x[static_cast<std::size_t>(cols[idx]) * stride]);
        }
        out[i * stride] = acc;
    }
}

/// Accumulates row pairs [r0, r0 + R) of one column, entries starting at
/// `e`, against the column `xc` (component p at `xc + 2 * p * bw`), in the
/// lane arithmetic of `gemv_strided_hw`.  With `kSkipZeros` a zero entry's
/// product is masked to +0, which commits the bits of skipping it.
template <int R, bool kSkipZeros>
__attribute__((target("avx2,fma"))) inline void gather_acc_avx2(
    const double* e, std::size_t n, std::size_t p_stride, const double* xc, std::size_t bw,
    __m256d* acc) noexcept {
    for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n; ++p, e += p_stride) {
        const __m256d xv = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(xc + 2 * p * bw));
        const __m256d xs = _mm256_permute_pd(xv, 0b0101);
        for (int r = 0; r < R; ++r) {
            const double* er = e + kEntryDoubles * static_cast<std::size_t>(r);
            const __m256d ar = _mm256_load_pd(er);
            const __m256d ai = _mm256_load_pd(er + kImLane);
            __m256d prod = _mm256_fmaddsub_pd(xv, ar, _mm256_mul_pd(xs, ai));
            if constexpr (kSkipZeros) {
                const __m256d z = _mm256_setzero_pd();
                const __m256d zero_entry = _mm256_and_pd(_mm256_cmp_pd(ar, z, _CMP_EQ_OQ),
                                                         _mm256_cmp_pd(ai, z, _CMP_EQ_OQ));
                prod = _mm256_andnot_pd(zero_entry, prod);
            }
            acc[r] = _mm256_add_pd(acc[r], prod);
        }
    }
}

// Row pairs [r0, r0 + R) of every column: R accumulators stay in registers
// over the whole p loop and each x_p is broadcast once for all of them.
// The first pass multiplies exact zero entries instead of skipping them.
// While every product is finite that changes no bit: a zero entry times a
// finite x_p is +-0, and an accumulator that starts at +0 never becomes -0,
// so adding +-0 leaves it as it is.  A non-finite term leaves its
// accumulator non-finite for good, so a column whose rows all come out
// finite had only finite products; any other column is recomputed with the
// zero entries masked out.
template <int R>
__attribute__((target("avx2,fma"))) void gather_rows_avx2(const PackedOps& ops,
                                                          const std::size_t* idx,
                                                          const cplx* x, cplx* out,
                                                          std::size_t bw,
                                                          std::size_t r0) noexcept {
    const std::size_t n = ops.dim();
    const std::size_t p_stride = kEntryDoubles * ops.row_pairs();
    auto* od = reinterpret_cast<double*>(out);
    for (std::size_t j = 0; j < bw; ++j) {
        const double* e = ops.op(idx[j]) + kEntryDoubles * r0;
        const auto* xc = reinterpret_cast<const double*>(x + j);
        __m256d acc[R];
        gather_acc_avx2<R, false>(e, n, p_stride, xc, bw, acc);
        __m256d non_finite = _mm256_setzero_pd();  // acc - acc: +0 if finite, NaN if not
        for (int r = 0; r < R; ++r) {
            non_finite = _mm256_or_pd(non_finite, _mm256_sub_pd(acc[r], acc[r]));
        }
        if (_mm256_movemask_pd(_mm256_cmp_pd(non_finite, non_finite, _CMP_UNORD_Q)) != 0) {
            gather_acc_avx2<R, true>(e, n, p_stride, xc, bw, acc);
        }
        for (int r = 0; r < R; ++r) {
            const std::size_t i = 2 * (r0 + static_cast<std::size_t>(r));
            _mm_storeu_pd(od + 2 * (i * bw + j), _mm256_castpd256_pd128(acc[r]));
            if (i + 1 < n) {
                _mm_storeu_pd(od + 2 * ((i + 1) * bw + j), _mm256_extractf128_pd(acc[r], 1));
            }
        }
    }
}

__attribute__((target("avx2,fma"))) void gemv_gather_block_avx2(const PackedOps& ops,
                                                                const std::size_t* idx,
                                                                const cplx* x, cplx* out,
                                                                std::size_t bw) noexcept {
    const std::size_t pairs = ops.row_pairs();
    for (std::size_t r0 = 0; r0 < pairs; r0 += 8) {
        switch (std::min<std::size_t>(8, pairs - r0)) {
            case 1: gather_rows_avx2<1>(ops, idx, x, out, bw, r0); break;
            case 2: gather_rows_avx2<2>(ops, idx, x, out, bw, r0); break;
            case 3: gather_rows_avx2<3>(ops, idx, x, out, bw, r0); break;
            case 4: gather_rows_avx2<4>(ops, idx, x, out, bw, r0); break;
            case 5: gather_rows_avx2<5>(ops, idx, x, out, bw, r0); break;
            case 6: gather_rows_avx2<6>(ops, idx, x, out, bw, r0); break;
            case 7: gather_rows_avx2<7>(ops, idx, x, out, bw, r0); break;
            default: gather_rows_avx2<8>(ops, idx, x, out, bw, r0); break;
        }
    }
}

// Register-blocked inner kernel: a chunk of up to JV 256-bit accumulators
// (2 complex columns each, plus an optional odd tail column) lives in
// registers across the whole p loop, so the C row is read and written once
// per chunk instead of once per inner-product term.  Each output element
// still accumulates over ascending p through the cfma2/cfma sequence, so
// results are bitwise identical to the unblocked form.
template <int JV, bool TAIL>
__attribute__((target("avx2,fma"))) void gemm_chunk_avx2(const cplx* a, const cplx* b, cplx* c,
                                                         std::size_t m, std::size_t k,
                                                         std::size_t n, std::size_t j0,
                                                         bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n + j0;
        auto* cd = reinterpret_cast<double*>(crow);
        __m256d acc[JV > 0 ? JV : 1];
        cplx tacc{0.0, 0.0};
        if (accumulate) {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_loadu_pd(cd + 4 * v);
            if (TAIL) tacc = crow[2 * JV];
        } else {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_setzero_pd();
        }
        const cplx* arow = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
            const cplx aip = arow[p];
            if (aip == cplx{0.0, 0.0}) continue;
            const __m256d ar = _mm256_set1_pd(aip.real());
            const __m256d ai = _mm256_set1_pd(aip.imag());
            const auto* bd = reinterpret_cast<const double*>(b + p * n + j0);
            for (int v = 0; v < JV; ++v) {
                acc[v] = cfma2(acc[v], ar, ai, _mm256_loadu_pd(bd + 4 * v));
            }
            if (TAIL) cfma(tacc, aip, *(b + p * n + j0 + 2 * JV));
        }
        for (int v = 0; v < JV; ++v) _mm256_storeu_pd(cd + 4 * v, acc[v]);
        if (TAIL) crow[2 * JV] = tacc;
    }
}

/// Same register blocking over a CSR left operand.
template <int JV, bool TAIL>
__attribute__((target("avx2,fma"))) void csr_gemm_chunk_avx2(const cplx* vals, const int* cols,
                                                             const int* rowptr, std::size_t m,
                                                             const cplx* b, cplx* c,
                                                             std::size_t n, std::size_t j0,
                                                             bool accumulate) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        cplx* crow = c + i * n + j0;
        auto* cd = reinterpret_cast<double*>(crow);
        __m256d acc[JV > 0 ? JV : 1];
        cplx tacc{0.0, 0.0};
        if (accumulate) {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_loadu_pd(cd + 4 * v);
            if (TAIL) tacc = crow[2 * JV];
        } else {
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_setzero_pd();
        }
        for (int idx = rowptr[i]; idx < rowptr[i + 1]; ++idx) {
            const cplx aval = vals[idx];
            const __m256d ar = _mm256_set1_pd(aval.real());
            const __m256d ai = _mm256_set1_pd(aval.imag());
            const cplx* brow = b + static_cast<std::size_t>(cols[idx]) * n + j0;
            const auto* bd = reinterpret_cast<const double*>(brow);
            for (int v = 0; v < JV; ++v) {
                acc[v] = cfma2(acc[v], ar, ai, _mm256_loadu_pd(bd + 4 * v));
            }
            if (TAIL) cfma(tacc, aval, brow[2 * JV]);
        }
        for (int v = 0; v < JV; ++v) _mm256_storeu_pd(cd + 4 * v, acc[v]);
        if (TAIL) crow[2 * JV] = tacc;
    }
}

/// Dispatch table over (full vectors in chunk, odd tail column).
template <bool TAIL>
__attribute__((target("avx2,fma"))) void gemm_chunk_dispatch(const cplx* a, const cplx* b,
                                                             cplx* c, std::size_t m,
                                                             std::size_t k, std::size_t n,
                                                             std::size_t j0, std::size_t jv,
                                                             bool accumulate) noexcept {
    switch (jv) {
        case 0: gemm_chunk_avx2<0, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 1: gemm_chunk_avx2<1, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 2: gemm_chunk_avx2<2, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 3: gemm_chunk_avx2<3, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 4: gemm_chunk_avx2<4, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 5: gemm_chunk_avx2<5, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 6: gemm_chunk_avx2<6, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        case 7: gemm_chunk_avx2<7, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
        default: gemm_chunk_avx2<8, TAIL>(a, b, c, m, k, n, j0, accumulate); break;
    }
}

template <bool TAIL>
__attribute__((target("avx2,fma"))) void csr_gemm_chunk_dispatch(
    const cplx* vals, const int* cols, const int* rowptr, std::size_t m, const cplx* b,
    cplx* c, std::size_t n, std::size_t j0, std::size_t jv, bool accumulate) noexcept {
    switch (jv) {
        case 0: csr_gemm_chunk_avx2<0, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 1: csr_gemm_chunk_avx2<1, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 2: csr_gemm_chunk_avx2<2, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 3: csr_gemm_chunk_avx2<3, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 4: csr_gemm_chunk_avx2<4, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 5: csr_gemm_chunk_avx2<5, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 6: csr_gemm_chunk_avx2<6, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        case 7: csr_gemm_chunk_avx2<7, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
        default: csr_gemm_chunk_avx2<8, TAIL>(vals, cols, rowptr, m, b, c, n, j0, accumulate); break;
    }
}

constexpr std::size_t kChunkCols = 16;  // 8 vectors = 16 complex columns

__attribute__((target("avx2,fma"))) void gemm_raw_avx2(const cplx* a, const cplx* b, cplx* c,
                                                       std::size_t m, std::size_t k,
                                                       std::size_t n,
                                                       bool accumulate) noexcept {
    for (std::size_t j0 = 0; j0 < n; j0 += kChunkCols) {
        const std::size_t jn = std::min(kChunkCols, n - j0);
        const std::size_t jv = jn / 2;
        if ((jn & 1) != 0) {
            gemm_chunk_dispatch<true>(a, b, c, m, k, n, j0, jv, accumulate);
        } else {
            gemm_chunk_dispatch<false>(a, b, c, m, k, n, j0, jv, accumulate);
        }
    }
}

__attribute__((target("avx2,fma"))) void csr_gemm_raw_avx2(const cplx* vals, const int* cols,
                                                           const int* rowptr, std::size_t m,
                                                           const cplx* b, cplx* c,
                                                           std::size_t n,
                                                           bool accumulate) noexcept {
    for (std::size_t j0 = 0; j0 < n; j0 += kChunkCols) {
        const std::size_t jn = std::min(kChunkCols, n - j0);
        const std::size_t jv = jn / 2;
        if ((jn & 1) != 0) {
            csr_gemm_chunk_dispatch<true>(vals, cols, rowptr, m, b, c, n, j0, jv, accumulate);
        } else {
            csr_gemm_chunk_dispatch<false>(vals, cols, rowptr, m, b, c, n, j0, jv, accumulate);
        }
    }
}

/// Row `x_i` minus `l * x_k` on one column chunk held in registers: JV
/// packed vectors plus an optional odd tail column.
template <int JV, bool TAIL>
__attribute__((target("avx2,fma"))) inline void lu_row_sub(__m256d* acc, cplx& tacc, cplx l,
                                                           const cplx* xk) noexcept {
    const __m256d lr = _mm256_set1_pd(l.real());
    const __m256d li = _mm256_set1_pd(l.imag());
    const auto* kd = reinterpret_cast<const double*>(xk);
    for (int v = 0; v < JV; ++v) {
        const __m256d w = _mm256_loadu_pd(kd + 4 * v);
        const __m256d swapped = _mm256_permute_pd(w, 0b0101);
        acc[v] = _mm256_sub_pd(acc[v], _mm256_fmaddsub_pd(w, lr, _mm256_mul_pd(swapped, li)));
    }
    if (TAIL) cfms(tacc, l, xk[2 * JV]);
}

/// One column chunk of the fused LU substitution: row i of the chunk lives
/// in up to JV 256-bit accumulators (plus an optional odd tail column)
/// while every earlier (forward) or later (backward) row is subtracted from
/// it, so each row is loaded and stored once per pass instead of once per
/// row pair.  Each element still takes `x_i -= l * x_k` over ascending k,
/// skipping zero factors, exactly as a sequence of per-row-pair updates.
template <int JV, bool TAIL>
__attribute__((target("avx2,fma"))) void lu_chunk_avx2(const cplx* lu, const cplx* rdiag,
                                                       std::size_t n, cplx* x, std::size_t m,
                                                       std::size_t j0) noexcept {
    __m256d acc[JV > 0 ? JV : 1];
    cplx tacc{0.0, 0.0};
    for (std::size_t pass = 0; pass < 2; ++pass) {
        const bool forward = pass == 0;
        for (std::size_t r = forward ? 1 : 0; r < n; ++r) {
            const std::size_t i = forward ? r : n - 1 - r;
            cplx* xi = x + i * m + j0;
            auto* xd = reinterpret_cast<double*>(xi);
            for (int v = 0; v < JV; ++v) acc[v] = _mm256_loadu_pd(xd + 4 * v);
            if (TAIL) tacc = xi[2 * JV];
            const std::size_t k0 = forward ? 0 : i + 1;
            const std::size_t k1 = forward ? i : n;
            for (std::size_t k = k0; k < k1; ++k) {
                const cplx l = lu[i * n + k];
                if (l == cplx{0.0, 0.0}) continue;
                lu_row_sub<JV, TAIL>(acc, tacc, l, x + k * m + j0);
            }
            if (!forward) {
                // x_i = rdiag_i * x_i in the cfma2 lane arithmetic.
                const __m256d rr = _mm256_set1_pd(rdiag[i].real());
                const __m256d ri = _mm256_set1_pd(rdiag[i].imag());
                for (int v = 0; v < JV; ++v) {
                    const __m256d swapped = _mm256_permute_pd(acc[v], 0b0101);
                    acc[v] = _mm256_fmaddsub_pd(acc[v], rr, _mm256_mul_pd(swapped, ri));
                }
                if (TAIL) cscale(tacc, rdiag[i]);
            }
            for (int v = 0; v < JV; ++v) _mm256_storeu_pd(xd + 4 * v, acc[v]);
            if (TAIL) xi[2 * JV] = tacc;
        }
    }
}

template <bool TAIL>
__attribute__((target("avx2,fma"))) void lu_chunk_dispatch(const cplx* lu, const cplx* rdiag,
                                                           std::size_t n, cplx* x,
                                                           std::size_t m, std::size_t j0,
                                                           std::size_t jv) noexcept {
    switch (jv) {
        case 0: lu_chunk_avx2<0, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 1: lu_chunk_avx2<1, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 2: lu_chunk_avx2<2, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 3: lu_chunk_avx2<3, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 4: lu_chunk_avx2<4, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 5: lu_chunk_avx2<5, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 6: lu_chunk_avx2<6, TAIL>(lu, rdiag, n, x, m, j0); break;
        case 7: lu_chunk_avx2<7, TAIL>(lu, rdiag, n, x, m, j0); break;
        default: lu_chunk_avx2<8, TAIL>(lu, rdiag, n, x, m, j0); break;
    }
}

/// Columns are independent in both substitutions, so the right-hand sides
/// are solved chunk by chunk.
__attribute__((target("avx2,fma"))) void lu_substitute_avx2(const cplx* lu, const cplx* rdiag,
                                                            std::size_t n, cplx* x,
                                                            std::size_t m) noexcept {
    for (std::size_t j0 = 0; j0 < m; j0 += kChunkCols) {
        const std::size_t jn = std::min(kChunkCols, m - j0);
        const std::size_t jv = jn / 2;
        if ((jn & 1) != 0) {
            lu_chunk_dispatch<true>(lu, rdiag, n, x, m, j0, jv);
        } else {
            lu_chunk_dispatch<false>(lu, rdiag, n, x, m, j0, jv);
        }
    }
}

bool detect_avx2() noexcept {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else

bool detect_avx2() noexcept { return false; }

#endif  // QOC_HAVE_AVX2_PATH

bool use_avx2() noexcept {
    static const bool available = detect_avx2();
    return available && !g_force_scalar;
}

}  // namespace

bool avx2_available() noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    static const bool available = detect_avx2();
    return available;
#else
    return false;
#endif
}

const char* kernel_name() noexcept { return use_avx2() ? "avx2-fma" : "scalar"; }

void force_scalar(bool on) noexcept { g_force_scalar = on; }

void gemm_raw(const cplx* a, const cplx* b, cplx* c, std::size_t m, std::size_t k,
              std::size_t n, bool accumulate) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        gemm_raw_avx2(a, b, c, m, k, n, accumulate);
        return;
    }
#endif
    gemm_raw_scalar(a, b, c, m, k, n, accumulate);
}

void gemv_strided(const cplx* a, std::size_t n, const cplx* x, cplx* out,
                  std::size_t stride, bool accumulate) noexcept {
    // The AVX2 form pairs output rows in one vector; the scalar replay
    // commits the same per-element sequence.
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        gemv_strided_hw(a, n, x, out, stride, accumulate);
        return;
    }
#endif
    gemv_strided_scalar(a, n, x, out, stride, accumulate);
}

void csr_gemv_strided(const cplx* vals, const int* cols, const int* rowptr,
                      std::size_t n_rows, const cplx* x, cplx* out, std::size_t stride,
                      bool accumulate) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        csr_gemv_strided_hw(vals, cols, rowptr, n_rows, x, out, stride, accumulate);
        return;
    }
#endif
    csr_gemv_strided_scalar(vals, cols, rowptr, n_rows, x, out, stride, accumulate);
}

void csr_gemm_raw(const cplx* vals, const int* cols, const int* rowptr, std::size_t m,
                  const cplx* b, cplx* c, std::size_t n, bool accumulate) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        csr_gemm_raw_avx2(vals, cols, rowptr, m, b, c, n, accumulate);
        return;
    }
#endif
    csr_gemm_raw_scalar(vals, cols, rowptr, m, b, c, n, accumulate);
}

PackedOps::PackedOps(const cplx* const* ops, std::size_t count, std::size_t n)
    : n_(n), count_(count), per_op_(2 * n * ((n + 1) / 2)) {
    lanes_.assign(count * per_op_, Lane{});
    const std::size_t pairs = row_pairs();
    for (std::size_t o = 0; o < count; ++o) {
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t r = 0; r < pairs; ++r) {
                Lane* e = &lanes_[o * per_op_ + 2 * (p * pairs + r)];
                for (std::size_t h = 0; h < 2 && 2 * r + h < n; ++h) {
                    const cplx a = ops[o][(2 * r + h) * n + p];
                    e[0].v[2 * h] = e[0].v[2 * h + 1] = a.real();
                    e[1].v[2 * h] = e[1].v[2 * h + 1] = a.imag();
                }
            }
        }
    }
}

void gemv_gather_block(const PackedOps& ops, const std::size_t* idx, const cplx* x, cplx* out,
                       std::size_t bw) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        gemv_gather_block_avx2(ops, idx, x, out, bw);
        return;
    }
#endif
    gemv_gather_block_scalar(ops, idx, x, out, bw);
}

void lu_substitute(const cplx* lu, const cplx* rdiag, std::size_t n, cplx* x,
                   std::size_t m) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        lu_substitute_avx2(lu, rdiag, n, x, m);
        return;
    }
#endif
    lu_substitute_scalar(lu, rdiag, n, x, m);
}

}  // namespace qoc::linalg::simd
