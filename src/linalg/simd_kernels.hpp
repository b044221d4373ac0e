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
#include <vector>

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
/// mixed-operator 2Q RB batch step (each seed applies a different superop)
/// and the per-column products of `expm_action_into`.
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

/// A table of row-major `n x n` complex operators packed for
/// `gemv_gather_block`.  Per operator, per inner index `p` and per output
/// row pair (i, i + 1) it stores two 4-double lanes: the real parts
/// [re_i re_i re_i+1 re_i+1] and the imaginary parts in the same layout.  An
/// odd last row pairs with an all-zero padding row.  The kernel loads the
/// lanes as they stand instead of shuffling each entry.
class PackedOps {
public:
    PackedOps() = default;

    /// Packs `ops[0..count)`, each a row-major `n x n` operator.
    PackedOps(const cplx* const* ops, std::size_t count, std::size_t n);

    std::size_t dim() const noexcept { return n_; }
    std::size_t size() const noexcept { return count_; }
    std::size_t row_pairs() const noexcept { return (n_ + 1) / 2; }

    /// Operator `i`'s lanes: entry (p, row pair r) starts at lane
    /// `2 * (p * row_pairs() + r)`, four doubles per lane.
    const double* op(std::size_t i) const noexcept { return lanes_[i * per_op_].v; }

private:
    struct alignas(32) Lane {
        double v[4];
    };
    std::vector<Lane> lanes_;
    std::size_t n_ = 0;
    std::size_t count_ = 0;
    std::size_t per_op_ = 0;  ///< lanes per operator
};

/// Mixed-operator block step: `out(:, j) = ops[idx[j]] * x(:, j)` for every
/// column j of the row-major `n x bw` block `x` (n = `ops.dim()`), one
/// operator per column.  Each element is committed exactly as
/// `gemv_strided` (non-accumulating) commits it -- ascending p, exact zero
/// entries skipped even where x is not finite -- so the result is bitwise
/// that of one strided matvec per column.  `out` must not alias `x`.
void gemv_gather_block(const PackedOps& ops, const std::size_t* idx, const cplx* x, cplx* out,
                       std::size_t bw) noexcept;

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
