/// \file lu.hpp
/// \brief LU decomposition with partial pivoting for complex dense matrices.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace qoc::linalg {

/// LU factorization `P A = L U` of a square complex matrix with partial
/// (row) pivoting.  L has unit diagonal and is stored, together with U, in
/// the packed factor matrix.
class Lu {
public:
    /// Creates an empty factorization; call `factor` before use.
    Lu() = default;

    /// Factorizes `a`.  Throws `std::invalid_argument` for non-square input.
    explicit Lu(const Mat& a);

    /// (Re)factorizes `a`, reusing the internal storage of any previous
    /// factorization of the same size (allocation-free on reuse).  This is
    /// what lets the shared-Pade Frechet engine refactor `V - U` once per
    /// slot without churning the heap.
    void factor(const Mat& a);

    /// True once `factor` (or the factorizing constructor) has run.
    bool factored() const noexcept { return !lu_.empty(); }

    /// True when a pivot underflowed (matrix numerically singular).
    bool singular() const noexcept { return singular_; }

    /// Determinant of the original matrix (0 when singular() is true is not
    /// forced; the product of pivots is returned as computed).
    cplx det() const;

    /// Solves `A x = b` for one or more right-hand sides (columns of b).
    /// Throws `std::runtime_error` when the factorization is singular.
    Mat solve(const Mat& b) const;

    /// Solves `A x = b` into a caller-owned matrix (allocation-free on shape
    /// reuse).  `x` must not alias `b`.  Both substitutions run as one
    /// `simd::lu_substitute` call, vectorized over the right-hand-side
    /// columns.
    void solve_into(const Mat& b, Mat& x) const;

    /// Inverse of the original matrix.
    Mat inverse() const;

private:
    Mat lu_;                       // packed L (unit diag, below) and U (on/above)
    std::vector<std::size_t> piv_; // row permutation
    int pivot_sign_ = 1;
    bool singular_ = false;
};

/// Convenience wrapper: solves `A x = b`.
Mat solve(const Mat& a, const Mat& b);

/// Convenience wrapper: matrix inverse.
Mat inverse(const Mat& a);

/// Convenience wrapper: determinant.
cplx det(const Mat& a);

}  // namespace qoc::linalg
