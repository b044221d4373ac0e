/// \file gradient_descent.hpp
/// \brief Projected gradient descent with a halving step-size backtrack.
///
/// The paper's "first-order GRAPE" baseline, kept in the optim layer so it
/// shares the `SolverLoop` bookkeeping with the other solvers: a fixed
/// learning rate, halved whenever the objective rises (down to a 1e-6
/// floor), with every step clipped into the box.  Deliberately simple --
/// it exists to quantify how much the second-order methods buy.

#pragma once

#include <limits>
#include <optional>

#include "optim/problem.hpp"

namespace qoc::optim {

struct GradientDescentOptions {
    double learning_rate = 0.1;  ///< initial step size
    int max_iterations = 100;
    /// No evaluation cap by default: the method performs exactly one
    /// evaluation per iteration, so `max_iterations` is the budget.
    int max_evaluations = std::numeric_limits<int>::max();
    std::optional<double> target_f;  ///< stop early once f <= target_f
    /// Optional typed per-iteration observer; also the data source for the
    /// telemetry records tagged `telemetry_label`.
    IterationCallback iter_callback;
    const char* telemetry_label = "gradient_descent";  ///< must be a string literal
};

/// Minimizes a smooth objective subject to box constraints.  Runs exactly
/// `max_iterations` evaluations unless `target_f`/`max_evaluations` stop it
/// early; `OptimResult::f` is the objective at the last *evaluated* point
/// (the returned `x` has one further un-evaluated step applied, exactly as
/// the historical GRAPE gradient-descent loop did).
OptimResult gradient_descent_minimize(const Objective& objective, std::vector<double> x0,
                                      const Bounds& bounds,
                                      const GradientDescentOptions& options = {});

}  // namespace qoc::optim
