#include "control/krotov.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "control/control_problem.hpp"
#include "linalg/expm.hpp"
#include "obs/obs.hpp"

namespace qoc::control {

namespace {
using linalg::cplx;
using linalg::Mat;
constexpr cplx kI{0.0, 1.0};
}  // namespace

GrapeResult krotov_unitary(const ControlProblem& cp, const KrotovOptions& opts) {
    const GrapeProblem& problem = cp.problem();
    if (cp.open_system() || problem.fidelity == FidelityType::kTraceDiff) {
        throw std::invalid_argument("krotov_unitary: closed-system only");
    }
    if (problem.state_transfer) {
        throw std::invalid_argument("krotov_unitary: use the gate functional");
    }
    if (opts.lambda <= 0.0) throw std::invalid_argument("krotov_unitary: lambda must be > 0");
    const std::size_t n_ts = cp.n_ts();
    const std::size_t n_ctrl = cp.n_ctrl();
    const double dt = cp.dt();
    const std::size_t dim = problem.system.drift.rows();

    // Overlap matrix and normalization come from the shared evaluator (same
    // conventions as GRAPE: plain target or isometry-sandwiched target).
    const Mat& overlap = cp.overlap_target();
    const double norm_dim = cp.norm_dim();

    // One workspace threads through every exponential below: Krotov's
    // sequential sweeps exponentiate n_ts same-size generators per
    // iteration, and the shared scratch makes each one allocation-free.
    linalg::ExpmWorkspace ws;
    Mat gen, prop_buf, tmp;
    auto slot_propagator_into = [&](const std::vector<double>& amps, Mat& out) {
        if (amps.size() != n_ctrl) {
            throw std::invalid_argument("krotov_unitary: amplitude count mismatch");
        }
        gen = problem.system.drift;
        for (std::size_t j = 0; j < n_ctrl; ++j) {
            linalg::add_scaled(gen, cplx{amps[j], 0.0}, problem.system.ctrls[j]);
        }
        gen *= -kI * dt;
        linalg::expm_into(gen, out, ws);
    };
    auto evolution = [&](const dynamics::ControlAmplitudes& amps) {
        Mat u = Mat::identity(dim);
        for (std::size_t k = 0; k < n_ts; ++k) {
            slot_propagator_into(amps[k], prop_buf);
            linalg::gemm_into(prop_buf, u, tmp);
            std::swap(u, tmp);
        }
        return u;
    };
    auto fid_err = [&](const Mat& u_final) {
        const cplx tau = linalg::hs_inner(overlap, u_final);
        if (problem.fidelity == FidelityType::kSu) return 1.0 - tau.real() / norm_dim;
        return 1.0 - std::norm(tau) / (norm_dim * norm_dim);
    };

    GrapeResult result;
    result.initial_amps = problem.initial_amps;
    dynamics::ControlAmplitudes amps = problem.initial_amps;
    result.initial_fid_err = fid_err(evolution(amps));
    double err = result.initial_fid_err;
    result.fid_err_history.push_back(err);

    // qoc-lint-allow(determinism-wall-clock): wall-time telemetry only; never feeds the numerics
    const auto t_start = std::chrono::steady_clock::now();
    for (int iter = 0; iter < opts.max_iterations; ++iter) {
        // Forward propagators with the current (old) controls.
        std::vector<Mat> props(n_ts);
        for (std::size_t k = 0; k < n_ts; ++k) slot_propagator_into(amps[k], props[k]);
        Mat u_final = Mat::identity(dim);
        for (std::size_t k = 0; k < n_ts; ++k) {
            linalg::gemm_into(props[k], u_final, tmp);
            std::swap(u_final, tmp);
        }

        // Co-state boundary condition at T.
        const cplx tau = linalg::hs_inner(overlap, u_final);
        const cplx weight = (problem.fidelity == FidelityType::kSu)
                                ? cplx{1.0 / (2.0 * norm_dim), 0.0}
                                : tau / (norm_dim * norm_dim);
        // chi(t) stored at slot starts: chi[k] = chi(t_k), k = 0..n_ts.
        std::vector<Mat> chi(n_ts + 1);
        chi[n_ts] = weight * overlap;
        for (std::size_t k = n_ts; k-- > 0;) {
            linalg::adjoint_times_into(props[k], chi[k + 1], chi[k]);
        }

        // Sequential forward sweep with updated controls.
        dynamics::ControlAmplitudes new_amps = amps;
        Mat u = Mat::identity(dim);
        for (std::size_t k = 0; k < n_ts; ++k) {
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                // Im Tr(chi^dag H_j U) at the slot start, with U the evolution
                // under the already-updated earlier slots.
                linalg::gemm_into(problem.system.ctrls[j], u, tmp);
                const cplx val = linalg::hs_inner(chi[k], tmp);
                const double update = val.imag() / opts.lambda;
                new_amps[k][j] = std::clamp(amps[k][j] + update, problem.amp_lower,
                                            problem.amp_upper);
            }
            slot_propagator_into(new_amps[k], prop_buf);
            linalg::gemm_into(prop_buf, u, tmp);
            std::swap(u, tmp);
        }

        const double new_err = fid_err(u);
        result.fid_err_history.push_back(new_err);
        const double delta = err - new_err;
        amps = std::move(new_amps);
        err = new_err;
        ++result.iterations;
        ++result.evaluations;
        {
            // Krotov is monotone and derivative-free at this level: report
            // the error decrease as the step and no gradient norm.
            optim::IterationRecord rec;
            rec.iteration = iter;
            rec.cost = new_err;
            rec.step = delta;
            rec.n_fun_evals = result.evaluations;
            rec.wall_time_s = std::chrono::duration<double>(
                                  // qoc-lint-allow(determinism-wall-clock): wall-time telemetry
                                  std::chrono::steady_clock::now() - t_start)
                                  .count();
            result.iteration_records.push_back(rec);
            obs::emit_optimizer_iteration("krotov", rec.iteration, rec.cost, rec.grad_norm,
                                          rec.step, rec.n_fun_evals, rec.wall_time_s);
        }
        if (err <= opts.target_fid_err) {
            result.reason = optim::StopReason::kTargetReached;
            break;
        }
        if (delta >= 0.0 && delta < opts.delta_tol) {
            result.reason = optim::StopReason::kFtolReached;
            break;
        }
    }
    if (result.iterations == opts.max_iterations) {
        result.reason = optim::StopReason::kMaxIterations;
    }

    result.final_amps = amps;
    result.final_evolution = evolution(amps);
    result.final_fid_err = fid_err(result.final_evolution);
    return result;
}

GrapeResult krotov_unitary(const GrapeProblem& problem, const KrotovOptions& opts) {
    // Historical error messages for specs the shared evaluator would reject
    // with its GRAPE-flavored wording.
    if (problem.fidelity == FidelityType::kTraceDiff) {
        throw std::invalid_argument("krotov_unitary: closed-system only");
    }
    if (problem.state_transfer) {
        throw std::invalid_argument("krotov_unitary: use the gate functional");
    }
    if (opts.lambda <= 0.0) throw std::invalid_argument("krotov_unitary: lambda must be > 0");
    const std::size_t n_ts = problem.n_timeslots;
    const std::size_t n_ctrl = problem.system.ctrls.size();
    if (n_ts == 0 || n_ctrl == 0 || problem.evo_time <= 0.0) {
        throw std::invalid_argument("krotov_unitary: malformed problem");
    }
    if (problem.initial_amps.size() != n_ts) {
        throw std::invalid_argument("krotov_unitary: initial_amps slot count mismatch");
    }

    // Same model invariants as the GRAPE evaluator (closed system), with
    // Krotov-labeled diagnostics.
    if (contracts::enabled()) {
        contracts::check_hermitian(problem.system.drift, "Krotov: drift H_0");
        for (const Mat& c : problem.system.ctrls) {
            contracts::check_hermitian(c, "Krotov: control H_j");
        }
        contracts::check_unitary(problem.target, "Krotov: target gate");
    }

    return krotov_unitary(ControlProblem(problem, /*open_system=*/false), opts);
}

}  // namespace qoc::control
