/// \file simd_kernels.hpp
/// \brief Runtime-dispatched SIMD complex kernels: the one arithmetic
///        family behind every dense product and solve in qoc.
///
/// `gemm_into`, `gemm_acc`, `gemv_into` and `operator*` (matrix.hpp) and
/// `Lu::solve_into` (lu.hpp) are thin wrappers over these raw kernels, and
/// the structured superoperator applies and the batched RB seed engine call
/// them directly.  Design goldens, RB curves and the determinism suites all
/// pin this family's rounding.
///
/// Determinism contract of this family: for every output element the
/// accumulation runs over ascending inner index `p`, and each partial
/// product is committed as
///
///     prod_re = fma(b_re, a_re, -(a_im * b_im))
///     prod_im = fma(b_im, a_re, +(a_im * b_re))
///     acc    += prod                      (separate IEEE add)
///
/// -- exactly the lane arithmetic of the AVX2 `fmaddsub` path.  The scalar
/// fallback replays the identical sequence through `std::fma`, so results
/// are bitwise independent of vector width, batch size and CPU: an element
/// computed inside a 256-bit lane, in the unrolled tail, or on a non-AVX2
/// machine rounds identically.  That is what makes batched-vs-scalar RB
/// seed propagation and 1-vs-N-thread runs bit-identical by construction.
///
/// Dispatch: resolved once per process from CPUID (AVX2+FMA), overridable
/// for tests via `force_scalar`.  A `-DQOC_SIMD_KERNELS=OFF` build compiles
/// only the scalar replay.

#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace qoc::linalg::simd {

/// True when the AVX2+FMA code paths are compiled in AND the CPU supports
/// them (always false on non-x86 builds).
bool avx2_available() noexcept;

/// Name of the active kernel variant: "avx2-fma" or "scalar".
const char* kernel_name() noexcept;

/// Test hook: forces the scalar replay path (true) or restores CPU
/// dispatch (false).  Results must be bitwise identical either way; the
/// oracle tests assert exactly that.  Not thread-safe: flip only around
/// single-threaded test regions.
void force_scalar(bool on) noexcept;

// --- raw-pointer kernels (row-major complex, contiguous) --------------------

/// `c = a * b` (accumulate: `c += a * b`) for row-major `m x k` times
/// `k x n`.  `c` must not alias `a` or `b`.
void gemm_raw(const cplx* a, const cplx* b, cplx* c, std::size_t m, std::size_t k,
              std::size_t n, bool accumulate) noexcept;

/// Column-strided matvec: `out[i*stride] (+)= sum_p a(i,p) x[p*stride]` for a
/// row-major `n x n` matrix applied to one column of a row-major batch whose
/// consecutive components are `stride` elements apart.  Used for the
/// mixed-operator RB batch step (each seed applies a different superop).
void gemv_strided(const cplx* a, std::size_t n, const cplx* x, cplx* out,
                  std::size_t stride, bool accumulate) noexcept;

/// CSR matvec on one strided column: `out[i*stride] (+)= sum over row i's
/// nonzeros of val * x[col*stride]`.  Column indices must be ascending
/// within each row (guaranteed by CsrMat construction).
void csr_gemv_strided(const cplx* vals, const int* cols, const int* rowptr,
                      std::size_t n_rows, const cplx* x, cplx* out, std::size_t stride,
                      bool accumulate) noexcept;

/// Batched CSR apply: `c = S * b` for a CSR `m x k` superop against a
/// row-major dense `k x n` batch (one RB seed per column).  Vectorizes over
/// the contiguous batch dimension with one broadcast per stored nonzero.
void csr_gemm_raw(const cplx* vals, const int* cols, const int* rowptr, std::size_t m,
                  const cplx* b, cplx* c, std::size_t n, bool accumulate) noexcept;

/// Both substitutions of an LU solve, in place: `lu` holds the packed
/// `n x n` factors (unit-diagonal L below the diagonal, U on and above),
/// `rdiag` the `n` reciprocals `1 / U(i,i)`, and `x` the row-permuted,
/// row-major `n x m` right-hand sides.  Forward pass: `x_i -= L(i,k) x_k`
/// for k = 0..i-1; backward pass: `x_i -= U(i,k) x_k` for k = i+1..n-1,
/// then `x_i = rdiag_i * x_i` as one product of the contract above (no
/// accumulator).  Zero factors are skipped and every element commits its
/// updates in that order, vectorized over the right-hand-side columns.
void lu_substitute(const cplx* lu, const cplx* rdiag, std::size_t n, cplx* x,
                   std::size_t m) noexcept;

}  // namespace qoc::linalg::simd
