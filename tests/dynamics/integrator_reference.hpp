/// Adaptive Runge-Kutta (Dormand-Prince 5(4)) integrator for matrix ODEs
/// and, on top of it, the Lindblad master equation (paper Eq. 1) with a
/// time-dependent Hamiltonian.  It shares no code with the piecewise-constant
/// propagators or the executor, so the dynamics tests hold those against an
/// independent time stepper.

#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "quantum/superop_kron.hpp"

namespace qoc::dynamics::reference {

using linalg::Mat;

/// Right-hand side of dX/dt = f(t, X); X is a ket, density matrix or
/// vectorized state.
using MatrixRhs = std::function<Mat(double t, const Mat& x)>;

struct IntegratorOptions {
    double rtol = 1e-9;
    double atol = 1e-11;
    double initial_step = 1e-3;
    double min_step = 1e-12;
    std::size_t max_steps = 2'000'000;
};

struct IntegrationResult {
    Mat state;
    std::size_t steps_taken = 0;
    std::size_t steps_rejected = 0;
};

/// Integrates dX/dt = rhs(t, X) from (t0, x0) to t1 with adaptive
/// Dormand-Prince 5(4).  Throws `std::runtime_error` when the step size
/// underflows or the step budget is exhausted.
inline IntegrationResult integrate_rk45(const MatrixRhs& rhs, const Mat& x0, double t0,
                                        double t1, const IntegratorOptions& opts = {}) {
    // Dormand-Prince 5(4) tableau.
    constexpr double c2 = 1.0 / 5, c3 = 3.0 / 10, c4 = 4.0 / 5, c5 = 8.0 / 9;
    constexpr double a21 = 1.0 / 5;
    constexpr double a31 = 3.0 / 40, a32 = 9.0 / 40;
    constexpr double a41 = 44.0 / 45, a42 = -56.0 / 15, a43 = 32.0 / 9;
    constexpr double a51 = 19372.0 / 6561, a52 = -25360.0 / 2187, a53 = 64448.0 / 6561,
                     a54 = -212.0 / 729;
    constexpr double a61 = 9017.0 / 3168, a62 = -355.0 / 33, a63 = 46732.0 / 5247,
                     a64 = 49.0 / 176, a65 = -5103.0 / 18656;
    constexpr double b1 = 35.0 / 384, b3 = 500.0 / 1113, b4 = 125.0 / 192, b5 = -2187.0 / 6784,
                     b6 = 11.0 / 84;
    // Embedded 4th-order weights.
    constexpr double e1 = 5179.0 / 57600, e3 = 7571.0 / 16695, e4 = 393.0 / 640,
                     e5 = -92097.0 / 339200, e6 = 187.0 / 2100, e7 = 1.0 / 40;

    IntegrationResult res;
    res.state = x0;
    if (t1 == t0) return res;
    const double direction = (t1 > t0) ? 1.0 : -1.0;
    double t = t0;
    double h = direction * std::min(opts.initial_step, std::abs(t1 - t0));

    Mat k1 = rhs(t, res.state);
    while (direction * (t1 - t) > 0.0) {
        if (res.steps_taken + res.steps_rejected > opts.max_steps) {
            throw std::runtime_error("integrate_rk45: step budget exhausted");
        }
        if (direction * (t + h - t1) > 0.0) h = t1 - t;

        const Mat& y = res.state;
        const Mat k2 = rhs(t + c2 * h, y + (h * a21) * k1);
        const Mat k3 = rhs(t + c3 * h, y + (h * a31) * k1 + (h * a32) * k2);
        const Mat k4 = rhs(t + c4 * h, y + (h * a41) * k1 + (h * a42) * k2 + (h * a43) * k3);
        const Mat k5 = rhs(t + c5 * h,
                           y + (h * a51) * k1 + (h * a52) * k2 + (h * a53) * k3 + (h * a54) * k4);
        const Mat k6 = rhs(t + h, y + (h * a61) * k1 + (h * a62) * k2 + (h * a63) * k3 +
                                      (h * a64) * k4 + (h * a65) * k5);
        const Mat y5 = y + (h * b1) * k1 + (h * b3) * k3 + (h * b4) * k4 + (h * b5) * k5 +
                       (h * b6) * k6;
        const Mat k7 = rhs(t + h, y5);
        const Mat y4 = y + (h * e1) * k1 + (h * e3) * k3 + (h * e4) * k4 + (h * e5) * k5 +
                       (h * e6) * k6 + (h * e7) * k7;

        // Error estimate relative to tolerance.
        double err = 0.0;
        for (std::size_t idx = 0; idx < y5.data().size(); ++idx) {
            const double sc = opts.atol + opts.rtol * std::max(std::abs(y.data()[idx]),
                                                               std::abs(y5.data()[idx]));
            err = std::max(err, std::abs(y5.data()[idx] - y4.data()[idx]) / sc);
        }

        if (err <= 1.0) {
            t += h;
            res.state = y5;
            k1 = k7;  // FSAL
            ++res.steps_taken;
        } else {
            ++res.steps_rejected;
        }
        const double factor = std::clamp(0.9 * std::pow(std::max(err, 1e-10), -0.2), 0.2, 5.0);
        h *= factor;
        if (std::abs(h) < opts.min_step) {
            throw std::runtime_error("integrate_rk45: step size underflow");
        }
    }
    return res;
}

/// Evolves a density matrix under a time-dependent Hamiltonian and fixed
/// collapse operators (the paper's Eq. 1) with RK45.
inline Mat evolve_master_equation(const std::function<Mat(double)>& hamiltonian,
                                  const std::vector<Mat>& collapse_ops, const Mat& rho0,
                                  double t0, double t1, const IntegratorOptions& options = {}) {
    using linalg::cplx;
    constexpr cplx kI{0.0, 1.0};
    // Only the Hamiltonian varies in time: keep the dissipator as a
    // Kronecker-factored superoperator (one C rho C^dag pair per collapse
    // operator plus the two one-sided anticommutator halves), applied in
    // O(n_c d^3) per stage without forming the d^2 x d^2 matrix.
    quantum::KronSuperOp dissipator;
    if (!collapse_ops.empty()) {
        const std::size_t d = rho0.rows();
        Mat kd(d, d);
        for (const Mat& c : collapse_ops) {
            kd += cplx{-0.5, 0.0} * linalg::adjoint_times(c, c);
        }
        dissipator.add_term(kd, Mat{});
        dissipator.add_term(Mat{}, kd);  // kd = -1/2 sum C^dag C is Hermitian
        for (const Mat& c : collapse_ops) dissipator.add_term(c, c.adjoint());
    }

    MatrixRhs rhs = [&, drho = Mat{}, scratch = Mat{}](double t, const Mat& rho) mutable {
        Mat out = (-kI) * linalg::commutator(hamiltonian(t), rho);
        if (dissipator.term_count() > 0) {
            dissipator.apply_rho_into(rho, drho, scratch);
            out += drho;
        }
        return out;
    };
    return integrate_rk45(rhs, rho0, t0, t1, options).state;
}

}  // namespace qoc::dynamics::reference
