#include "control/method_registry.hpp"

#include <stdexcept>

#include "control/control_problem.hpp"
#include "control/crab.hpp"
#include "control/goat.hpp"
#include "control/krotov.hpp"

namespace qoc::control {

namespace {

void adopt(const GrapeResult& g, PulseOptimResult& result) {
    result.initial_fid_err = g.initial_fid_err;
    result.final_amps = g.final_amps;
    result.final_fid_err = g.final_fid_err;
    result.final_evolution = g.final_evolution;
    result.iterations = g.iterations;
    result.evaluations = g.evaluations;
    result.reason = g.reason;
    result.fid_err_history = g.fid_err_history;
    result.iteration_records = g.iteration_records;
}

void drive_lbfgsb(const MethodContext& ctx, PulseOptimResult& result) {
    optim::LbfgsBOptions opts;
    opts.max_iterations = ctx.spec.max_iterations;
    opts.max_evaluations = ctx.spec.max_evaluations;
    opts.target_f = ctx.spec.target_fid_err;
    adopt(grape_optimize(ctx.cp, opts), result);
}

void drive_gradient_descent(const MethodContext& ctx, PulseOptimResult& result) {
    adopt(grape_gradient_descent(ctx.cp, 0.1, ctx.spec.max_iterations), result);
}

void drive_crab(const MethodContext& ctx, PulseOptimResult& result) {
    CrabOptions copts;
    copts.max_evaluations = ctx.spec.max_evaluations;
    copts.max_iterations = ctx.spec.max_iterations;
    copts.seed = ctx.spec.random_seed;
    const CrabResult c = crab_optimize(ctx.cp, copts);
    result.initial_fid_err = c.initial_fid_err;
    result.final_amps = c.final_amps;
    result.final_fid_err = c.final_fid_err;
    result.final_evolution = ctx.cp.evolution(c.final_amps);
    result.evaluations = c.evaluations;
    result.reason = c.reason;
    result.fid_err_history = c.fid_err_history;
    result.iteration_records = c.iteration_records;
}

void drive_krotov(const MethodContext& ctx, PulseOptimResult& result) {
    KrotovOptions kopts;
    kopts.max_iterations = ctx.spec.max_iterations;
    kopts.target_fid_err = ctx.spec.target_fid_err;
    adopt(krotov_unitary(ctx.cp, kopts), result);
}

void drive_goat(const MethodContext& ctx, PulseOptimResult& result) {
    GoatOptions gopts;
    gopts.n_fine = ctx.spec.n_timeslots;  // keep the spec's PWC grid
    gopts.max_iterations = ctx.spec.max_iterations;
    gopts.target_fid_err = ctx.spec.target_fid_err;
    const GoatResult g = goat_optimize(ctx.prob, gopts);
    result.initial_fid_err = g.initial_fid_err;
    result.final_amps = g.final_amps;
    result.final_fid_err = g.final_fid_err;
    result.final_evolution = ctx.cp.evolution(g.final_amps);
    result.iterations = g.iterations;
    result.evaluations = g.evaluations;
    result.reason = g.reason;
}

constexpr MethodInfo kMethods[] = {
    {OptimMethod::kLbfgsB, "L-BFGS-B", false, drive_lbfgsb},
    {OptimMethod::kGradientDescent, "gradient descent", false, drive_gradient_descent},
    {OptimMethod::kCrab, "CRAB", false, drive_crab},
    {OptimMethod::kKrotov, "Krotov", true, drive_krotov},
    {OptimMethod::kGoat, "GOAT", true, drive_goat},
};

}  // namespace

const MethodInfo& find_method(OptimMethod method) {
    for (const MethodInfo& m : kMethods) {
        if (m.method == method) return m;
    }
    throw std::invalid_argument("find_method: unregistered OptimMethod");
}

}  // namespace qoc::control
