/// \file solver_loop.hpp
/// \brief Shared per-iteration bookkeeping for every solver.
///
/// Each optimizer used to hand-roll the same three chores: build an
/// `IterationRecord` (gated on callback/telemetry), time-stamp it, and check
/// the `target_f` / `max_evaluations` budgets in a fixed order.  `SolverLoop`
/// owns all three so the contracts are enforced identically for L-BFGS-B,
/// gradient descent and Nelder-Mead -- a solver cannot get the stop-reason
/// precedence or the telemetry gating subtly wrong.

#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "optim/problem.hpp"

namespace qoc::optim {

/// Per-solve bookkeeping: construct AFTER the initial objective evaluation
/// (so `wall_time_s` excludes the warmup eval, matching the historical
/// L-BFGS-B behaviour), then call `emit` once per outer iteration and
/// `budget_stop` wherever the solver checks its budgets.
class SolverLoop {
public:
    /// `telemetry_label` must be a string literal (or otherwise outlive the
    /// loop); it names the solver in `optimizer.iteration` telemetry records.
    SolverLoop(const char* telemetry_label, const IterationCallback& callback);

    /// Builds and delivers one `IterationRecord` -- invokes the user callback
    /// and emits the telemetry record.  No-op (and no clock read) when
    /// neither a callback nor telemetry is active.
    void emit(int iteration, double cost, double grad_norm, double step, int n_fun_evals) const;

    /// Budget checks shared by every solver, in canonical precedence order:
    /// `target_f` first (reaching the user's goal beats running out of
    /// budget), then `max_evaluations`.  Convergence tests (pg_tol, simplex
    /// spread, ...) are solver-specific and stay with the solver, checked
    /// BEFORE this.
    std::optional<StopReason> budget_stop(const std::optional<double>& target_f, double f,
                                          int evaluations, int max_evaluations) const;

private:
    const char* label_;
    const IterationCallback& callback_;
    // qoc-lint-allow(determinism-wall-clock): wall-time telemetry only; never feeds the numerics
    std::chrono::steady_clock::time_point t_start_;
};

}  // namespace qoc::optim
