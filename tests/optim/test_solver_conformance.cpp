/// Solver-conformance suite: one parameterized test battery that each of
/// the optimizer entry points (`lbfgsb_minimize`, `gradient_descent_minimize`,
/// `nelder_mead_minimize`) must pass.  A solver added to `kSolvers` below is
/// held to the same contracts:
///
///  * convex quadratic bowl -> converges to the minimizer;
///  * box bounds are respected by EVERY evaluated point, and an exterior
///    minimizer lands on the box face;
///  * the analytic Rosenbrock gradient passes check_gradient, and the
///    line-searching solver drives Rosenbrock to the optimum;
///  * repeated solves are bitwise deterministic;
///  * iteration records are emitted.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "optim/gradient_check.hpp"
#include "optim/gradient_descent.hpp"
#include "optim/lbfgsb.hpp"
#include "optim/nelder_mead.hpp"

namespace qoc::optim {
namespace {

/// Both objective flavours of one test function: gradient-based solvers
/// consume `objective`, the derivative-free one `scalar`.
struct SolverProblem {
    Objective objective;     ///< f(x) + gradient
    ScalarObjective scalar;  ///< f(x) only
};

/// The knobs the suite sets, mapped by each entry onto its typed options.
/// The budgets are generous so even the first-order solvers converge on the
/// bowl.
struct SolverBudget {
    int max_iterations = 2000;
    int max_evaluations = 50000;
    IterationCallback iter_callback;
};

OptimResult solve_lbfgsb(const SolverProblem& p, std::vector<double> x0, const Bounds& b,
                         const SolverBudget& o) {
    LbfgsBOptions opts;
    opts.max_iterations = o.max_iterations;
    opts.max_evaluations = o.max_evaluations;
    opts.iter_callback = o.iter_callback;
    return lbfgsb_minimize(p.objective, std::move(x0), b, opts);
}

OptimResult solve_gradient_descent(const SolverProblem& p, std::vector<double> x0,
                                   const Bounds& b, const SolverBudget& o) {
    GradientDescentOptions opts;
    opts.max_iterations = o.max_iterations;
    opts.max_evaluations = o.max_evaluations;
    opts.iter_callback = o.iter_callback;
    return gradient_descent_minimize(p.objective, std::move(x0), b, opts);
}

OptimResult solve_nelder_mead(const SolverProblem& p, std::vector<double> x0, const Bounds& b,
                              const SolverBudget& o) {
    NelderMeadOptions opts;
    opts.max_iterations = o.max_iterations;
    opts.max_evaluations = o.max_evaluations;
    opts.iter_callback = o.iter_callback;
    return nelder_mead_minimize(p.scalar, std::move(x0), b, opts);
}

struct SolverEntry {
    const char* name;
    bool line_search;  ///< held to reaching the Rosenbrock optimum
    OptimResult (*solve)(const SolverProblem&, std::vector<double>, const Bounds&,
                         const SolverBudget&);
};

/// Prints a parameter as its quoted name, so test listings read
/// `GetParam() = "lbfgsb"`.
void PrintTo(const SolverEntry& e, std::ostream* os) { *os << '"' << e.name << '"'; }

const SolverEntry kSolvers[] = {
    {"lbfgsb", true, solve_lbfgsb},
    {"gradient_descent", false, solve_gradient_descent},
    {"nelder_mead", false, solve_nelder_mead},
};

/// Shifted convex bowl f(x) = sum (x_i - c_i)^2 with minimizer c.
SolverProblem bowl_problem(const std::vector<double>& c) {
    SolverProblem p;
    p.objective = [c](const std::vector<double>& x, std::vector<double>& grad) {
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - c[i];
            f += d * d;
            grad[i] = 2.0 * d;
        }
        return f;
    };
    p.scalar = [c](const std::vector<double>& x) {
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - c[i];
            f += d * d;
        }
        return f;
    };
    return p;
}

double rosenbrock(const std::vector<double>& x, std::vector<double>* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (grad) {
        (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
        (*grad)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
}

SolverProblem rosenbrock_problem() {
    SolverProblem p;
    p.objective = [](const std::vector<double>& x, std::vector<double>& grad) {
        return rosenbrock(x, &grad);
    };
    p.scalar = [](const std::vector<double>& x) { return rosenbrock(x, nullptr); };
    return p;
}

class SolverConformance : public ::testing::TestWithParam<SolverEntry> {
protected:
    static OptimResult solve(const SolverProblem& p, std::vector<double> x0, const Bounds& b,
                             const SolverBudget& budget = {}) {
        return GetParam().solve(p, std::move(x0), b, budget);
    }
};

TEST_P(SolverConformance, ConvergesOnQuadraticBowl) {
    const std::vector<double> c = {0.7, -0.3, 0.25};
    const OptimResult r = solve(bowl_problem(c), {0.0, 0.0, 0.0}, Bounds::uniform(3, -2.0, 2.0));
    EXPECT_LT(r.f, 1e-8) << to_string(r.reason);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(r.x[i], c[i], 1e-4) << "component " << i;
    }
    EXPECT_GT(r.evaluations, 0);
}

TEST_P(SolverConformance, EveryEvaluatedPointRespectsTheBox) {
    // Minimizer outside the box: the solver must push to the face and never
    // evaluate an out-of-box point (1e-12 slack for projected arithmetic).
    const std::vector<double> c = {1.5, -1.5};
    const Bounds box = Bounds::uniform(2, -1.0, 1.0);
    SolverProblem p = bowl_problem(c);
    const Objective inner_obj = p.objective;
    const ScalarObjective inner_sc = p.scalar;
    auto check_in_box = [&box](const std::vector<double>& x) {
        for (std::size_t i = 0; i < x.size(); ++i) {
            EXPECT_GE(x[i], box.lower[i] - 1e-12) << "component " << i;
            EXPECT_LE(x[i], box.upper[i] + 1e-12) << "component " << i;
        }
    };
    p.objective = [&](const std::vector<double>& x, std::vector<double>& grad) {
        check_in_box(x);
        return inner_obj(x, grad);
    };
    p.scalar = [&](const std::vector<double>& x) {
        check_in_box(x);
        return inner_sc(x);
    };
    const OptimResult r = solve(p, {0.0, 0.0}, box);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], -1.0, 1e-4);
    EXPECT_TRUE(box.contains(r.x));
}

TEST_P(SolverConformance, RosenbrockGradientAndDescent) {
    const SolverProblem p = rosenbrock_problem();
    // The oracle itself: analytic gradient matches central differences.
    const GradientCheckResult gc = check_gradient(p.objective, {-1.2, 1.0});
    EXPECT_LT(gc.max_rel_error, 1e-5);

    // Every solver must make progress from the classic start; the
    // line-searching gradient solver must reach the (1, 1) optimum.  The
    // fixed-step first-order baseline and the simplex method are only held
    // to strict decrease (that is their historical behaviour).
    std::vector<double> g(2);
    const double f0 = p.objective({-1.2, 1.0}, g);
    const OptimResult r = solve(p, {-1.2, 1.0}, Bounds::uniform(2, -5.0, 5.0));
    EXPECT_LT(r.f, f0);
    if (GetParam().line_search) {
        EXPECT_LT(r.f, 1e-10) << to_string(r.reason);
        EXPECT_NEAR(r.x[0], 1.0, 1e-4);
        EXPECT_NEAR(r.x[1], 1.0, 1e-4);
    }
}

TEST_P(SolverConformance, RepeatedSolvesAreBitwiseDeterministic) {
    const std::vector<double> c = {0.4, -0.9, 0.1, 0.6};
    auto run = [&] {
        return solve(bowl_problem(c), {0.5, 0.5, -0.5, -0.5}, Bounds::uniform(4, -1.0, 1.0));
    };
    const OptimResult a = run();
    const OptimResult b = run();
    EXPECT_EQ(a.f, b.f);  // bitwise, not approx
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.evaluations, b.evaluations);
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]) << "i=" << i;
}

TEST_P(SolverConformance, EmitsIterationRecords) {
    SolverBudget budget;
    std::vector<IterationRecord> records;
    budget.iter_callback = [&records](const IterationRecord& rec) { records.push_back(rec); };

    const std::vector<double> c = {0.3, -0.2};
    const OptimResult r = solve(bowl_problem(c), {0.0, 0.0}, Bounds::uniform(2, -1.0, 1.0), budget);
    EXPECT_LT(r.f, 1e-8);

    ASSERT_FALSE(records.empty()) << "solver emitted no iteration records";
    int prev_iter = -1;  // solvers differ on 0- vs 1-based numbering
    int prev_evals = 0;
    for (const IterationRecord& rec : records) {
        EXPECT_GT(rec.iteration, prev_iter);
        EXPECT_GE(rec.n_fun_evals, prev_evals);
        EXPECT_TRUE(std::isfinite(rec.cost));
        prev_iter = rec.iteration;
        prev_evals = rec.n_fun_evals;
    }
    EXPECT_LE(prev_evals, r.evaluations);
}

INSTANTIATE_TEST_SUITE_P(Registry, SolverConformance, ::testing::ValuesIn(kSolvers),
                         [](const ::testing::TestParamInfo<SolverEntry>& pinfo) {
                             return std::string(pinfo.param.name);  // identifier-safe
                         });

}  // namespace
}  // namespace qoc::optim
