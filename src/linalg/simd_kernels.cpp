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

void lu_substitute_scalar(const cplx* lu, std::size_t n, cplx* x, std::size_t m) noexcept {
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
        const cplx d = lu[i * n + i];
        for (std::size_t j = 0; j < m; ++j) xi[j] /= d;
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

__attribute__((target("avx2,fma"))) void gemv_strided_hw(const cplx* a, std::size_t n,
                                                         const cplx* x, cplx* out,
                                                         std::size_t stride,
                                                         bool accumulate) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        cplx acc = accumulate ? out[i * stride] : cplx{0.0, 0.0};
        const cplx* arow = a + i * n;
        for (std::size_t p = 0; p < n; ++p) {
            const cplx aip = arow[p];
            if (aip == cplx{0.0, 0.0}) continue;
            cfma_hw(acc, aip, x[p * stride]);
        }
        out[i * stride] = acc;
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
__attribute__((target("avx2,fma"))) void lu_chunk_avx2(const cplx* lu, std::size_t n, cplx* x,
                                                       std::size_t m, std::size_t j0) noexcept {
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
            for (int v = 0; v < JV; ++v) _mm256_storeu_pd(xd + 4 * v, acc[v]);
            if (TAIL) xi[2 * JV] = tacc;
            if (!forward) {
                const cplx d = lu[i * n + i];
                for (std::size_t j = 0; j < 2 * JV + (TAIL ? 1 : 0); ++j) xi[j] /= d;
            }
        }
    }
}

template <bool TAIL>
__attribute__((target("avx2,fma"))) void lu_chunk_dispatch(const cplx* lu, std::size_t n,
                                                           cplx* x, std::size_t m,
                                                           std::size_t j0,
                                                           std::size_t jv) noexcept {
    switch (jv) {
        case 0: lu_chunk_avx2<0, TAIL>(lu, n, x, m, j0); break;
        case 1: lu_chunk_avx2<1, TAIL>(lu, n, x, m, j0); break;
        case 2: lu_chunk_avx2<2, TAIL>(lu, n, x, m, j0); break;
        case 3: lu_chunk_avx2<3, TAIL>(lu, n, x, m, j0); break;
        case 4: lu_chunk_avx2<4, TAIL>(lu, n, x, m, j0); break;
        case 5: lu_chunk_avx2<5, TAIL>(lu, n, x, m, j0); break;
        case 6: lu_chunk_avx2<6, TAIL>(lu, n, x, m, j0); break;
        case 7: lu_chunk_avx2<7, TAIL>(lu, n, x, m, j0); break;
        default: lu_chunk_avx2<8, TAIL>(lu, n, x, m, j0); break;
    }
}

/// Columns are independent in both substitutions, so the right-hand sides
/// are solved chunk by chunk.
__attribute__((target("avx2,fma"))) void lu_substitute_avx2(const cplx* lu, std::size_t n,
                                                            cplx* x, std::size_t m) noexcept {
    for (std::size_t j0 = 0; j0 < m; j0 += kChunkCols) {
        const std::size_t jn = std::min(kChunkCols, m - j0);
        const std::size_t jv = jn / 2;
        if ((jn & 1) != 0) {
            lu_chunk_dispatch<true>(lu, n, x, m, j0, jv);
        } else {
            lu_chunk_dispatch<false>(lu, n, x, m, j0, jv);
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
    // Strided columns defeat contiguous vector loads; the scalar replay is
    // the canonical arithmetic here, run through hardware fma when present.
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

void lu_substitute(const cplx* lu, std::size_t n, cplx* x, std::size_t m) noexcept {
#if defined(QOC_HAVE_AVX2_PATH)
    if (use_avx2()) {
        lu_substitute_avx2(lu, n, x, m);
        return;
    }
#endif
    lu_substitute_scalar(lu, n, x, m);
}

}  // namespace qoc::linalg::simd
