/// Functions of a Hermitian matrix through its Jacobi spectrum: any real
/// `f(A) = V diag(f(w)) V^dagger`, and the unitary propagator
/// `exp(-i H t) = V diag(e^{-i w t}) V^dagger`.  They share no code with the
/// Pade engine in linalg/expm, so the exponential tests and the integrator
/// tests hold the two together.

#pragma once

#include <cmath>

#include "linalg/eig_hermitian.hpp"
#include "linalg/matrix.hpp"

namespace qoc::linalg::reference {

inline Mat hermitian_function(const Mat& a, double (*f)(double)) {
    const EigH e = eig_hermitian(a);
    const std::size_t n = a.rows();
    Mat d(n, n);
    for (std::size_t i = 0; i < n; ++i) d(i, i) = cplx{f(e.eigenvalues[i]), 0.0};
    return e.eigenvectors * d * e.eigenvectors.adjoint();
}

inline Mat expm_hermitian(const Mat& h, double t) {
    const EigH e = eig_hermitian(h);
    const std::size_t n = h.rows();
    Mat d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const double phi = -e.eigenvalues[i] * t;
        d(i, i) = cplx{std::cos(phi), std::sin(phi)};
    }
    return e.eigenvectors * d * e.eigenvectors.adjoint();
}

}  // namespace qoc::linalg::reference
