/// \file lbfgsb.hpp
/// \brief Bound-constrained limited-memory BFGS (L-BFGS-B).
///
/// From-scratch implementation of the algorithm of Byrd, Lu, Nocedal and Zhu
/// (SIAM J. Sci. Comput. 16(5), 1995): limited-memory compact quasi-Newton
/// model, generalized Cauchy point over the piecewise-linear projected path,
/// direct primal subspace minimization over the free variables, and a strong
/// Wolfe line search.  This is the optimizer the paper refers to as
/// "second-order GRAPE": QuTiP's `pulseoptim` drives SciPy's
/// `fmin_l_bfgs_b`, which implements the same algorithm.
///
/// A solve sizes every workspace once (an m x n ring of correction pairs,
/// their cached products, in-place LUs of the 2m x 2m middle systems), so
/// an iteration performs no heap allocation (DESIGN.md §14).

#pragma once

#include <functional>
#include <optional>

#include "optim/problem.hpp"

namespace qoc::optim {

/// Tuning knobs for LbfgsB.  Defaults mirror SciPy's `fmin_l_bfgs_b`.
struct LbfgsBOptions {
    int memory = 10;            ///< number of (s, y) correction pairs kept (>= 0)
    int max_iterations = 500;
    int max_evaluations = 5000;
    double pg_tol = 1e-9;       ///< max-norm of the projected gradient
    double f_tol = 2.2e-14;     ///< relative objective-decrease tolerance
    std::optional<double> target_f;  ///< stop early once f <= target_f
    /// Optional typed per-iteration observer; also the data source for the
    /// `qoc::obs` telemetry records tagged `telemetry_label`.
    IterationCallback iter_callback;
    const char* telemetry_label = "lbfgsb";  ///< must be a string literal
};

/// Minimizes a smooth objective subject to box constraints.
class LbfgsB {
public:
    explicit LbfgsB(LbfgsBOptions options = {}) : opts_(options) {}

    /// Runs the optimization from `x0` (clipped into the box first).
    OptimResult minimize(const Objective& objective, std::vector<double> x0,
                         const Bounds& bounds) const;

private:
    LbfgsBOptions opts_;
};

/// One-call convenience wrapper.
OptimResult lbfgsb_minimize(const Objective& objective, std::vector<double> x0,
                            const Bounds& bounds, const LbfgsBOptions& options = {});

}  // namespace qoc::optim
