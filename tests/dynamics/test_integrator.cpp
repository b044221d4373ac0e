#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dynamics/integrator_reference.hpp"
#include "dynamics/propagator.hpp"
#include "linalg/expm.hpp"
#include "linalg/expm_hermitian_reference.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"

namespace qoc::dynamics {
namespace {

using reference::evolve_master_equation;
using reference::integrate_rk45;
using reference::IntegratorOptions;
using reference::MatrixRhs;
using linalg::cplx;
using quantum::basis_ket;
using quantum::ket_to_dm;
using quantum::sigma_minus;
using quantum::sigma_x;
using quantum::sigma_z;
constexpr cplx kI{0.0, 1.0};

TEST(Rk45, ScalarExponentialDecay) {
    // dx/dt = -x, x(0) = 1 -> x(t) = e^{-t}.
    MatrixRhs rhs = [](double, const Mat& x) { return -1.0 * x; };
    Mat x0(1, 1);
    x0(0, 0) = 1.0;
    const auto res = integrate_rk45(rhs, x0, 0.0, 3.0);
    EXPECT_NEAR(res.state(0, 0).real(), std::exp(-3.0), 1e-8);
}

TEST(Rk45, SchrodingerRabiOscillation) {
    // i dpsi/dt = H psi with H = (Omega/2) sx: P1(t) = sin^2(Omega t / 2).
    const double omega = 2.0 * std::numbers::pi * 0.05;
    const Mat h = 0.5 * omega * sigma_x();
    MatrixRhs rhs = [&](double, const Mat& psi) { return (-kI) * (h * psi); };
    const double t_pi = std::numbers::pi / omega;  // pi pulse time
    const auto res = integrate_rk45(rhs, basis_ket(2, 0), 0.0, t_pi);
    EXPECT_NEAR(std::norm(res.state(1, 0)), 1.0, 1e-8);
    const auto res_half = integrate_rk45(rhs, basis_ket(2, 0), 0.0, t_pi / 2.0);
    EXPECT_NEAR(std::norm(res_half.state(1, 0)), 0.5, 1e-8);
}

TEST(Rk45, MatchesExpmForConstantGenerator) {
    const Mat h = 0.7 * sigma_x() + 0.3 * sigma_z();
    MatrixRhs rhs = [&](double, const Mat& psi) { return (-kI) * (h * psi); };
    const double t = 2.3;
    const auto res = integrate_rk45(rhs, basis_ket(2, 0), 0.0, t);
    const Mat expect = linalg::reference::expm_hermitian(h, t) * basis_ket(2, 0);
    EXPECT_TRUE(res.state.approx_equal(expect, 1e-8));
}

TEST(Rk45, MasterEquationT1Decay) {
    const double gamma = 0.2;
    auto h = [](double) { return Mat(2, 2); };
    const Mat rho1 = ket_to_dm(basis_ket(2, 1));
    const Mat out = evolve_master_equation(h, {std::sqrt(gamma) * sigma_minus()}, rho1, 0.0, 4.0);
    EXPECT_NEAR(out(1, 1).real(), std::exp(-gamma * 4.0), 1e-8);
    EXPECT_NEAR(out.trace().real(), 1.0, 1e-10);
}

TEST(Rk45, TimeDependentHamiltonianMatchesPwc) {
    // A pulse that is genuinely PWC: RK45 over the same piecewise Hamiltonian
    // must match the expm-chain propagator applied to the state.
    const std::vector<double> amps{0.8, -0.3, 0.5, 0.1};
    const double dt = 0.7;
    auto h = [&](double t) {
        auto k = std::min<std::size_t>(static_cast<std::size_t>(t / dt), amps.size() - 1);
        return amps[k] * 0.5 * sigma_x();
    };
    const Mat rho0 = ket_to_dm(basis_ket(2, 0));
    const Mat via_rk =
        evolve_master_equation(h, {}, rho0, 0.0, dt * static_cast<double>(amps.size()));

    PwcSystem sys{Mat(2, 2), {0.5 * sigma_x()}};
    ControlAmplitudes slot_amps;
    for (double a : amps) slot_amps.push_back({a});
    const Mat u = chain_product(pwc_unitary_propagators(sys, slot_amps, dt));
    const Mat via_pwc = u * rho0 * u.adjoint();
    EXPECT_TRUE(via_rk.approx_equal(via_pwc, 1e-7));
}

TEST(Rk45, BackwardIntegration) {
    MatrixRhs rhs = [](double, const Mat& x) { return -1.0 * x; };
    Mat x0(1, 1);
    x0(0, 0) = 1.0;
    const auto fwdr = integrate_rk45(rhs, x0, 0.0, 2.0);
    const auto back = integrate_rk45(rhs, fwdr.state, 2.0, 0.0);
    EXPECT_NEAR(back.state(0, 0).real(), 1.0, 1e-7);
}

TEST(Rk45, ZeroIntervalIsIdentity) {
    MatrixRhs rhs = [](double, const Mat& x) { return x; };
    Mat x0(2, 1);
    x0(0, 0) = 0.3;
    const auto res = integrate_rk45(rhs, x0, 1.0, 1.0);
    EXPECT_TRUE(res.state.approx_equal(x0));
    EXPECT_EQ(res.steps_taken, 0u);
}

TEST(Rk45, StepBudgetEnforced) {
    MatrixRhs rhs = [](double, const Mat& x) { return 1000.0 * x; };
    Mat x0(1, 1);
    x0(0, 0) = 1.0;
    IntegratorOptions opts;
    opts.max_steps = 5;
    EXPECT_THROW(integrate_rk45(rhs, x0, 0.0, 100.0, opts), std::runtime_error);
}

}  // namespace
}  // namespace qoc::dynamics
