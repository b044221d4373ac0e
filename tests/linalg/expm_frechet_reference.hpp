/// Reference Frechet derivative `L(A, E) = d/ds e^{A + sE} |_{s=0}` of the
/// matrix exponential, through the Van Loan augmented block
///   expm([[A, E], [0, A]]) = [[e^A, L(A, E)], [0, e^A]].
/// It differentiates nothing itself -- one 2N x 2N exponential per direction
/// -- so it shares no derivative code with the Pade engine in linalg/expm,
/// and the Frechet tests hold the engine's forward and adjoint forms to it.

#pragma once

#include <stdexcept>
#include <utility>

#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"

namespace qoc::linalg::reference {

/// Returns `{e^A, L(A, E)}`.  Valid for any (also non-Hermitian) generator.
inline std::pair<Mat, Mat> expm_frechet(const Mat& a, const Mat& e) {
    if (!a.is_square() || a.rows() != e.rows() || a.cols() != e.cols()) {
        throw std::invalid_argument("expm_frechet: shape mismatch");
    }
    const std::size_t n = a.rows();
    Mat aug(2 * n, 2 * n);
    aug.set_block(0, 0, a);
    aug.set_block(0, n, e);
    aug.set_block(n, n, a);
    const Mat big = expm(aug);
    return {big.block(0, 0, n, n), big.block(0, n, n, n)};
}

}  // namespace qoc::linalg::reference
