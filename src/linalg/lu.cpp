#include "linalg/lu.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

namespace {

/// Squares of magnitudes in [kSquareMin, kSquareMax] are normal doubles, so
/// comparing them ranks the entries as their moduli do (up to the rounding
/// of the square); outside it a square may have under- or overflowed.
constexpr double kSquareMin = std::numeric_limits<double>::min();
constexpr double kSquareMax = std::numeric_limits<double>::max();

double squared_modulus(cplx z) { return z.real() * z.real() + z.imag() * z.imag(); }

/// a * b in the textbook form, without the NaN-recovery libcall of the
/// `std::complex` operator (identical for finite operands).
cplx mul(cplx a, cplx b) {
    return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}

/// 1 / z by Smith's scaling: one real division, no intermediate overflow
/// for any finite nonzero z, and no `__divdc3` call.
cplx reciprocal(cplx z) {
    const double a = z.real(), b = z.imag();
    if (std::abs(a) >= std::abs(b)) {
        const double r = b / a;
        const double inv = 1.0 / (a + b * r);
        return {inv, -r * inv};
    }
    const double r = a / b;
    const double inv = 1.0 / (a * r + b);
    return {r * inv, -inv};
}

}  // namespace

Lu::Lu(const Mat& a) { factor(a); }

void Lu::factor(const Mat& a) {
    if (!a.is_square()) throw std::invalid_argument("Lu: non-square matrix");
    obs::count(obs::Cnt::kLuFactorizations);
    lu_ = a;  // vector copy-assign: reuses capacity on same-size refactor
    singular_ = false;
    pivot_sign_ = 1;
    const std::size_t n = a.rows();
    piv_.resize(n);
    rdiag_.resize(n);
    for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at/below the diagonal,
        // ranked by squared modulus; the first row wins a tie.
        std::size_t p = k;
        double best = squared_modulus(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = squared_modulus(lu_(i, k));
            if (v > best) {
                best = v;
                p = i;
            }
        }
        const bool squares_exact = best >= kSquareMin && best <= kSquareMax;
        if (!squares_exact) {
            // Tiny, huge or NaN column: rank by |z| itself.
            p = k;
            double best_abs = std::abs(lu_(k, k));
            for (std::size_t i = k + 1; i < n; ++i) {
                const double v = std::abs(lu_(i, k));
                if (v > best_abs) {
                    best_abs = v;
                    p = i;
                }
            }
        }
        if (p != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
            std::swap(piv_[k], piv_[p]);
            pivot_sign_ = -pivot_sign_;
        }
        const cplx pivot = lu_(k, k);
        // A square >= kSquareMin puts |pivot| far above the 1e-300 threshold.
        if (!squares_exact && std::abs(pivot) < 1e-300) {
            singular_ = true;
            rdiag_[k] = cplx{0.0, 0.0};
            continue;
        }
        const cplx rinv = reciprocal(pivot);
        rdiag_[k] = rinv;
        for (std::size_t i = k + 1; i < n; ++i) {
            const cplx m = mul(lu_(i, k), rinv);
            lu_(i, k) = m;
            if (m == cplx{0.0, 0.0}) continue;
            for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= mul(m, lu_(k, j));
        }
    }
}

cplx Lu::det() const {
    cplx d{static_cast<double>(pivot_sign_), 0.0};
    for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
    return d;
}

Mat Lu::solve(const Mat& b) const {
    Mat x;
    solve_into(b, x);
    return x;
}

void Lu::solve_into(const Mat& b, Mat& x) const {
    if (singular_) throw std::runtime_error("Lu::solve: singular matrix");
    const std::size_t n = lu_.rows();
    if (b.rows() != n) throw std::invalid_argument("Lu::solve: rhs shape mismatch");
    assert(&x != &b);
    const std::size_t m = b.cols();

    // Apply permutation.
    x.resize(n, m);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) x(i, j) = b(piv_[i], j);

    // Forward then back substitution, one kernel call vectorized over the
    // right-hand-side columns.
    simd::lu_substitute(lu_.data().data(), rdiag_.data(), n, x.data().data(), m);
}

Mat Lu::inverse() const { return solve(Mat::identity(lu_.rows())); }

Mat solve(const Mat& a, const Mat& b) { return Lu(a).solve(b); }
Mat inverse(const Mat& a) { return Lu(a).inverse(); }
cplx det(const Mat& a) { return Lu(a).det(); }

}  // namespace qoc::linalg
