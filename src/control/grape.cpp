#include "control/grape.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "control/control_problem.hpp"
#include "obs/obs.hpp"
#include "optim/gradient_descent.hpp"

namespace qoc::control {

GrapeResult grape_optimize(const ControlProblem& cp, const optim::LbfgsBOptions& opts_in) {
    const GrapeProblem& problem = cp.problem();

    GrapeResult result;
    result.initial_amps = problem.initial_amps;
    result.initial_fid_err = cp.fid_err(problem.initial_amps);

    optim::Bounds bounds =
        optim::Bounds::uniform(cp.n_params(), problem.amp_lower, problem.amp_upper);
    if (!problem.amp_lower_per_ctrl.empty() || !problem.amp_upper_per_ctrl.empty()) {
        const std::size_t n_ctrl = problem.system.ctrls.size();
        if (problem.amp_lower_per_ctrl.size() != n_ctrl ||
            problem.amp_upper_per_ctrl.size() != n_ctrl) {
            throw std::invalid_argument("GRAPE: per-control bounds size mismatch");
        }
        for (std::size_t k = 0; k < cp.n_ts(); ++k) {
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                bounds.lower[k * n_ctrl + j] = problem.amp_lower_per_ctrl[j];
                bounds.upper[k * n_ctrl + j] = problem.amp_upper_per_ctrl[j];
            }
        }
    }

    const optim::Objective objective = [&](const std::vector<double>& x,
                                           std::vector<double>& g) {
        // Hardware-range invariant: the solver evaluates only in-box iterates
        // (the paper's +-1 PWC amplitude bound, or the user's box).
        if (contracts::enabled()) {
            for (std::size_t i = 0; i < x.size(); ++i) {
                contracts::check_in_range(x[i], bounds.lower[i], bounds.upper[i],
                                          "GRAPE: PWC amplitude iterate", 1e-10);
            }
        }
        return cp.objective(x, g);
    };

    optim::LbfgsBOptions opts = opts_in;
    opts.iter_callback = [&](const optim::IterationRecord& rec) {
        result.fid_err_history.push_back(rec.cost);
        result.iteration_records.push_back(rec);
        if (opts_in.iter_callback) opts_in.iter_callback(rec);
    };

    obs::count(obs::Cnt::kSolverDispatches);
    const optim::OptimResult opt =
        optim::lbfgsb_minimize(objective, cp.flatten(problem.initial_amps), bounds, opts);

    result.final_amps = cp.unflatten(opt.x);
    result.final_evolution = cp.evolution(result.final_amps);
    result.final_fid_err = cp.fid_err_of(result.final_evolution);
    result.iterations = opt.iterations;
    result.evaluations = opt.evaluations;
    result.reason = opt.reason;
    return result;
}

GrapeResult grape_unitary(const GrapeProblem& problem, const optim::LbfgsBOptions& opts) {
    return grape_optimize(ControlProblem(problem, /*open_system=*/false), opts);
}

GrapeResult grape_lindblad(const GrapeProblem& problem, const optim::LbfgsBOptions& opts) {
    return grape_optimize(ControlProblem(problem, /*open_system=*/true), opts);
}

GrapeResult grape_gradient_descent(const ControlProblem& cp, double learning_rate,
                                   int iterations) {
    const GrapeProblem& problem = cp.problem();

    GrapeResult result;
    result.initial_amps = problem.initial_amps;

    if (iterations <= 0) {
        result.initial_fid_err = cp.fid_err(problem.initial_amps);
        result.iterations = iterations;
        result.final_amps = problem.initial_amps;
        result.final_evolution = cp.evolution(result.final_amps);
        result.final_fid_err = cp.fid_err_of(result.final_evolution);
        result.reason = optim::StopReason::kMaxIterations;
        return result;
    }

    const optim::Objective objective = [&](const std::vector<double>& x,
                                           std::vector<double>& g) {
        return cp.objective(x, g);
    };
    optim::GradientDescentOptions opts;
    opts.learning_rate = learning_rate;
    opts.max_iterations = iterations;
    opts.telemetry_label = "grape_gd";
    opts.iter_callback = [&](const optim::IterationRecord& rec) {
        result.fid_err_history.push_back(rec.cost);
        result.iteration_records.push_back(rec);
    };

    obs::count(obs::Cnt::kSolverDispatches);
    const optim::OptimResult opt = optim::gradient_descent_minimize(
        objective, cp.flatten(problem.initial_amps),
        optim::Bounds::uniform(cp.n_params(), problem.amp_lower, problem.amp_upper), opts);

    // The first objective call evaluates the unmodified amplitudes, so its
    // value *is* the initial fidelity error; a separate evolution() pass
    // would redo all n_ts propagators.
    result.initial_fid_err = result.fid_err_history.front();
    result.iterations = opt.iterations;
    result.evaluations = opt.evaluations;
    result.final_amps = cp.unflatten(opt.x);
    result.final_evolution = cp.evolution(result.final_amps);
    result.final_fid_err = cp.fid_err_of(result.final_evolution);
    result.reason = opt.reason;
    return result;
}

GrapeResult grape_gradient_descent(const GrapeProblem& problem, double learning_rate,
                                   int iterations) {
    return grape_gradient_descent(ControlProblem(problem), learning_rate, iterations);
}

RobustGrapeResult grape_robust(const GrapeProblem& problem,
                               const std::vector<Mat>& ensemble_drifts,
                               const std::vector<double>& weights,
                               const optim::LbfgsBOptions& opts_in) {
    if (ensemble_drifts.empty() || ensemble_drifts.size() != weights.size()) {
        throw std::invalid_argument("grape_robust: ensemble/weights mismatch");
    }
    if (problem.fidelity == FidelityType::kTraceDiff) {
        throw std::invalid_argument("grape_robust: closed-system only");
    }
    double wsum = 0.0;
    for (double w : weights) wsum += w;
    if (wsum <= 0.0) throw std::invalid_argument("grape_robust: weights must sum > 0");

    // One evaluator per ensemble member; they share the amplitude table.
    std::vector<std::unique_ptr<ControlProblem>> evals;
    for (std::size_t i = 0; i < ensemble_drifts.size(); ++i) {
        GrapeProblem member = problem;
        member.system.drift = problem.system.drift + ensemble_drifts[i];
        member.energy_penalty = 0.0;  // applied once, below
        evals.push_back(std::make_unique<ControlProblem>(member, false));
    }

    RobustGrapeResult result;
    result.combined.initial_amps = problem.initial_amps;

    optim::Objective obj = [&](const std::vector<double>& x, std::vector<double>& grad) {
        grad.assign(x.size(), 0.0);
        std::vector<double> g(x.size());
        double err = 0.0;
        for (std::size_t i = 0; i < evals.size(); ++i) {
            const double w = weights[i] / wsum;
            err += w * evals[i]->objective(x, g);
            for (std::size_t k = 0; k < x.size(); ++k) grad[k] += w * g[k];
        }
        if (problem.energy_penalty > 0.0) {
            const double pw = problem.energy_penalty / static_cast<double>(x.size());
            for (std::size_t k = 0; k < x.size(); ++k) {
                err += pw * x[k] * x[k];
                grad[k] += 2.0 * pw * x[k];
            }
        }
        return err;
    };

    optim::LbfgsBOptions opts = opts_in;
    opts.iter_callback = [&](const optim::IterationRecord& rec) {
        result.combined.fid_err_history.push_back(rec.cost);
        result.combined.iteration_records.push_back(rec);
    };
    const optim::Bounds bounds = optim::Bounds::uniform(
        evals[0]->n_params(), problem.amp_lower, problem.amp_upper);
    const optim::OptimResult opt =
        optim::lbfgsb_minimize(obj, evals[0]->flatten(problem.initial_amps), bounds, opts);

    result.combined.final_amps = evals[0]->unflatten(opt.x);
    result.combined.iterations = opt.iterations;
    result.combined.evaluations = opt.evaluations;
    result.combined.reason = opt.reason;
    double werr = 0.0, ierr = 0.0;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const double e = evals[i]->fid_err(result.combined.final_amps);
        result.member_errors.push_back(e);
        werr += weights[i] / wsum * e;
        ierr += weights[i] / wsum * evals[i]->fid_err(problem.initial_amps);
    }
    result.combined.initial_fid_err = ierr;
    result.combined.final_fid_err = werr;
    result.combined.final_evolution = evals[0]->evolution(result.combined.final_amps);
    return result;
}

double evaluate_fid_err(const GrapeProblem& problem, const ControlAmplitudes& amps) {
    GrapeProblem p = problem;
    p.initial_amps = amps;
    return ControlProblem(p).fid_err(amps);
}

double evaluate_fid_err_and_grad(const GrapeProblem& problem, const ControlAmplitudes& amps,
                                 std::vector<double>& grad) {
    GrapeProblem p = problem;
    p.initial_amps = amps;
    const ControlProblem cp(p);
    return cp.objective(cp.flatten(amps), grad);
}

Mat evaluate_evolution(const GrapeProblem& problem, const ControlAmplitudes& amps) {
    GrapeProblem p = problem;
    p.initial_amps = amps;
    return ControlProblem(p).evolution(amps);
}

}  // namespace qoc::control
