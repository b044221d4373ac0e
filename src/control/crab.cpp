#include "control/crab.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>

#include "control/control_problem.hpp"
#include "obs/obs.hpp"
#include "optim/nelder_mead.hpp"

namespace qoc::control {

CrabResult crab_optimize(const ControlProblem& cp, const CrabOptions& opts) {
    const GrapeProblem& problem = cp.problem();
    const std::size_t n_ts = cp.n_ts();
    const std::size_t n_ctrl = cp.n_ctrl();
    const std::size_t n_basis = opts.n_basis;
    const std::size_t n_params = n_ctrl * 2 * n_basis;

    // Randomly detuned harmonics w_n = 2 pi (n + jitter) / T (per control).
    std::mt19937_64 rng(opts.seed);
    std::uniform_real_distribution<double> jitter(-opts.freq_jitter, opts.freq_jitter);
    std::vector<std::vector<double>> freqs(n_ctrl, std::vector<double>(n_basis));
    for (auto& row : freqs) {
        for (std::size_t n = 0; n < n_basis; ++n) {
            row[n] = 2.0 * std::numbers::pi * (static_cast<double>(n + 1) + jitter(rng)) /
                     problem.evo_time;
        }
    }

    const double dt = cp.dt();

    // Coefficients -> amplitude table, clipped to the hardware bounds.
    auto build_amps = [&](const std::vector<double>& coeffs) {
        ControlAmplitudes amps(n_ts, std::vector<double>(n_ctrl));
        for (std::size_t k = 0; k < n_ts; ++k) {
            const double t = (static_cast<double>(k) + 0.5) * dt;
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                double mod = 1.0;
                for (std::size_t n = 0; n < n_basis; ++n) {
                    const double a = coeffs[(j * n_basis + n) * 2];
                    const double b = coeffs[(j * n_basis + n) * 2 + 1];
                    mod += a * std::sin(freqs[j][n] * t) + b * std::cos(freqs[j][n] * t);
                }
                amps[k][j] = std::clamp(problem.initial_amps[k][j] * mod, problem.amp_lower,
                                        problem.amp_upper);
            }
        }
        return amps;
    };

    // ONE evaluator serves every direct-search probe (the old code built a
    // fresh one per evaluation); its workspaces amortize across the sweep.
    const optim::ScalarObjective objective = [&](const std::vector<double>& coeffs) {
        return cp.fid_err(build_amps(coeffs));
    };

    optim::NelderMeadOptions nm;
    nm.max_evaluations = opts.max_evaluations;
    nm.max_iterations = opts.max_iterations;
    nm.initial_step = 0.1;  // initial simplex edge
    nm.telemetry_label = "crab";

    CrabResult result;
    nm.iter_callback = [&](const optim::IterationRecord& rec) {
        result.fid_err_history.push_back(rec.cost);
        result.iteration_records.push_back(rec);
    };

    obs::count(obs::Cnt::kSolverDispatches);
    const auto opt = optim::nelder_mead_minimize(
        objective, std::vector<double>(n_params, 0.0),
        optim::Bounds::uniform(n_params, -opts.coeff_bound, opts.coeff_bound), nm);

    result.initial_fid_err = cp.fid_err(problem.initial_amps);
    result.final_amps = build_amps(opt.x);
    result.final_fid_err = opt.f;
    result.evaluations = opt.evaluations;
    result.reason = opt.reason;
    return result;
}

CrabResult crab_optimize(const GrapeProblem& problem, const CrabOptions& opts) {
    return crab_optimize(ControlProblem(problem), opts);
}

}  // namespace qoc::control
