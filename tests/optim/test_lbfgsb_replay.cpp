/// Bitwise replay of the allocation-free L-BFGS-B engine against the
/// original implementation kept in lbfgsb_reference.hpp.  The rewrite only
/// moved workspaces and cached dot products; every expression and summation
/// order is the same, so the final point, the objective, the evaluation and
/// iteration counts, the stop reason and every iteration record (wall time
/// aside) must agree bit for bit.

#include "optim/lbfgsb_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "linalg/kron.hpp"
#include "optim/lbfgsb.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::optim {
namespace {

using linalg::Mat;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Run {
    OptimResult res;
    std::vector<IterationRecord> records;
};

template <typename Minimize>
Run run_with(Minimize minimize, LbfgsBOptions opts) {
    Run run;
    opts.iter_callback = [&](const IterationRecord& rec) { run.records.push_back(rec); };
    run.res = minimize(opts);
    return run;
}

/// Runs the production engine and the reference on the same problem and
/// requires bitwise-equal outcomes.  `make_objective` is called once per run
/// so stateful objectives start from the same state.  Returns the engine's
/// result.
template <typename MakeObjective>
OptimResult expect_replay(const std::string& label, MakeObjective make_objective,
                   const std::vector<double>& x0, const Bounds& bounds,
                   const LbfgsBOptions& opts) {
    const Run got = run_with(
        [&](const LbfgsBOptions& o) { return lbfgsb_minimize(make_objective(), x0, bounds, o); },
        opts);
    const Run want = run_with(
        [&](const LbfgsBOptions& o) {
            return reference::lbfgsb_minimize(make_objective(), x0, bounds, o);
        },
        opts);

    SCOPED_TRACE(label);
    EXPECT_EQ(got.res.reason, want.res.reason);
    EXPECT_EQ(got.res.iterations, want.res.iterations);
    EXPECT_EQ(got.res.evaluations, want.res.evaluations);
    EXPECT_EQ(bits(got.res.f), bits(want.res.f));
    EXPECT_EQ(bits(got.res.grad_norm), bits(want.res.grad_norm));
    EXPECT_EQ(got.res.x.size(), want.res.x.size());
    for (std::size_t i = 0; i < std::min(got.res.x.size(), want.res.x.size()); ++i) {
        EXPECT_EQ(bits(got.res.x[i]), bits(want.res.x[i])) << "x[" << i << "]";
    }
    EXPECT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < std::min(got.records.size(), want.records.size()); ++i) {
        const IterationRecord& a = got.records[i];
        const IterationRecord& b = want.records[i];
        EXPECT_EQ(a.iteration, b.iteration) << "record " << i;
        EXPECT_EQ(bits(a.cost), bits(b.cost)) << "record " << i;
        EXPECT_EQ(bits(a.grad_norm), bits(b.grad_norm)) << "record " << i;
        EXPECT_EQ(bits(a.step), bits(b.step)) << "record " << i;
        EXPECT_EQ(a.n_fun_evals, b.n_fun_evals) << "record " << i;
    }
    return got.res;
}

template <typename F>
void expect_replay_fn(const std::string& label, F f, const std::vector<double>& x0,
                      const Bounds& bounds, const LbfgsBOptions& opts = {}) {
    expect_replay(label, [&] { return Objective(f); }, x0, bounds, opts);
}

// --- the test_lbfgsb function gallery ---------------------------------------

double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
    const std::size_t n = x.size();
    g.assign(n, 0.0);
    double f = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double a = x[i + 1] - x[i] * x[i];
        const double b = 1.0 - x[i];
        f += 100.0 * a * a + b * b;
        g[i] += -400.0 * a * x[i] - 2.0 * b;
        g[i + 1] += 200.0 * a;
    }
    return f;
}

Objective quadratic(std::vector<double> c) {
    return [c = std::move(c)](const std::vector<double>& x, std::vector<double>& g) {
        g.assign(x.size(), 0.0);
        double f = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double w = 1.0 + static_cast<double>(i);
            f += 0.5 * w * (x[i] - c[i]) * (x[i] - c[i]);
            g[i] = w * (x[i] - c[i]);
        }
        return f;
    };
}

double beale(const std::vector<double>& x, std::vector<double>& g) {
    const double a = 1.5 - x[0] + x[0] * x[1];
    const double b = 2.25 - x[0] + x[0] * x[1] * x[1];
    const double c = 2.625 - x[0] + x[0] * x[1] * x[1] * x[1];
    g.assign(2, 0.0);
    g[0] = 2.0 * a * (x[1] - 1.0) + 2.0 * b * (x[1] * x[1] - 1.0) +
           2.0 * c * (x[1] * x[1] * x[1] - 1.0);
    g[1] = 2.0 * a * x[0] + 2.0 * b * 2.0 * x[0] * x[1] + 2.0 * c * 3.0 * x[0] * x[1] * x[1];
    return a * a + b * b + c * c;
}

double himmelblau(const std::vector<double>& x, std::vector<double>& g) {
    const double a = x[0] * x[0] + x[1] - 11.0;
    const double b = x[0] + x[1] * x[1] - 7.0;
    g = {4.0 * x[0] * a + 2.0 * b, 2.0 * a + 4.0 * x[1] * b};
    return a * a + b * b;
}

double ill_conditioned(const std::vector<double>& x, std::vector<double>& g) {
    g.resize(x.size());
    double f = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double w = std::pow(10.0, static_cast<double>(i) * 1.5);
        f += 0.5 * w * x[i] * x[i];
        g[i] = w * x[i];
    }
    return f;
}

TEST(LbfgsBReplay, FunctionGallery) {
    expect_replay_fn("rosenbrock 2d", rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2),
                     {.max_iterations = 1000});
    expect_replay_fn("rosenbrock 10d", rosenbrock, std::vector<double>(10, -1.0),
                     Bounds::unbounded(10), {.max_iterations = 3000, .max_evaluations = 20000});
    expect_replay_fn("rosenbrock bounded", rosenbrock, {-1.0, -1.0},
                     Bounds::uniform(2, -2.0, 0.5), {.max_iterations = 2000});
    expect_replay_fn("quadratic", quadratic({1.0, -2.0, 3.0, 0.5}), {0.0, 0.0, 0.0, 0.0},
                     Bounds::unbounded(4));
    expect_replay_fn("beale", beale, {1.0, 1.0}, Bounds::uniform(2, -4.5, 4.5),
                     {.max_iterations = 1000});
    for (const auto& [x, y] : {std::pair{0.0, 0.0}, std::pair{4.0, 4.0}, std::pair{-4.0, 4.0},
                               std::pair{-4.0, -4.0}, std::pair{4.0, -4.0}, std::pair{1.0, -2.0}}) {
        expect_replay_fn("himmelblau", himmelblau, {x, y}, Bounds::uniform(2, -6.0, 6.0),
                         {.max_iterations = 500});
    }
    expect_replay_fn("ill-conditioned", ill_conditioned, {1.0, 1.0, 1.0, 1.0, 1.0},
                     Bounds::unbounded(5), {.max_iterations = 2000, .max_evaluations = 20000});
    LbfgsBOptions target;
    target.target_f = 1.0;
    expect_replay_fn("target_f", rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2), target);
    expect_replay_fn("max iterations", rosenbrock, {-1.2, 1.0}, Bounds::unbounded(2),
                     {.max_iterations = 2, .pg_tol = 0.0, .f_tol = 0.0});
    expect_replay_fn("at minimum", quadratic({1.0, 1.0}), {1.0, 1.0}, Bounds::unbounded(2));
    expect_replay_fn("pinned box", quadratic({1.0, 1.0}), {0.3, 0.3},
                     Bounds::uniform(2, 0.3, 0.3));
}

TEST(LbfgsBReplay, ActiveBoundBox) {
    expect_replay_fn("quadratic box", quadratic({1.0, -2.0, 3.0}), {0.5, 0.5, 0.5},
                     Bounds::uniform(3, 0.0, 2.0));
    expect_replay_fn("start outside", quadratic({0.0, 0.0}), {10.0, -10.0},
                     Bounds::uniform(2, -1.0, 1.0));
    Bounds mixed;
    mixed.lower = {-Bounds::kInf, 0.5};
    mixed.upper = {0.0, Bounds::kInf};
    expect_replay_fn("mixed finite/infinite", quadratic({1.0, -1.0}), {-1.0, 2.0}, mixed);
    // A 30-dimensional Rosenbrock in a box that cuts through the valley:
    // breakpoints along the Cauchy path and a subspace step over the
    // variables left free, every iteration.
    std::vector<double> x0(30);
    Bounds box = Bounds::uniform(30, -0.4, 0.7);
    for (std::size_t i = 0; i < x0.size(); ++i) {
        x0[i] = 0.6 * std::sin(1.3 * static_cast<double>(i));
        if (i % 4 == 0) box.upper[i] = 0.3;
    }
    expect_replay_fn("rosenbrock box", rosenbrock, x0, box, {.max_iterations = 400});
}

TEST(LbfgsBReplay, LineSearchFailureResetsTheModel) {
    // Exact gradients for the first evaluations, then sign-flipped ones: the
    // next search direction points uphill, the line search fails with
    // correction pairs in the model, the model is discarded and the retry
    // from steepest descent fails too.
    auto make = [] {
        auto calls = std::make_shared<int>(0);
        return Objective([calls](const std::vector<double>& x, std::vector<double>& g) {
            const double f = rosenbrock(x, g);
            if (++*calls > 8) {
                for (double& v : g) v = -v;
            }
            return f;
        });
    };
    const std::vector<double> x0(6, -0.5);
    const auto res = lbfgsb_minimize(make(), x0, Bounds::unbounded(6));
    EXPECT_EQ(res.reason, StopReason::kLineSearchFailed);
    expect_replay("line-search failure", make, x0, Bounds::unbounded(6), {});
}

TEST(LbfgsBReplay, MemoryRingWraps) {
    // More accepted pairs than the memory holds, so the ring overwrites its
    // oldest slot; memory 0 keeps only the theta scaling.
    for (int memory : {0, 1, 3, 10}) {
        const LbfgsBOptions opts{.memory = memory, .max_iterations = 80,
                                 .pg_tol = 0.0, .f_tol = 0.0};
        const auto res = lbfgsb_minimize(rosenbrock, std::vector<double>(12, -1.0),
                                         Bounds::unbounded(12), opts);
        EXPECT_GT(res.iterations, memory + 2) << "memory " << memory;
        expect_replay_fn("memory " + std::to_string(memory), rosenbrock,
                         std::vector<double>(12, -1.0), Bounds::unbounded(12), opts);
        expect_replay_fn("bounded memory " + std::to_string(memory), rosenbrock,
                         std::vector<double>(12, -1.0), Bounds::uniform(12, -1.5, 0.8), opts);
    }
}

// --- GRAPE problems ---------------------------------------------------------

void expect_grape_replay(const std::string& label, const control::GrapeProblem& p,
                         bool open_system, int max_iterations) {
    const control::ControlProblem cp(p, open_system);
    Bounds bounds = Bounds::uniform(cp.n_params(), p.amp_lower, p.amp_upper);
    const std::size_t n_ctrl = p.system.ctrls.size();
    if (!p.amp_lower_per_ctrl.empty()) {
        for (std::size_t k = 0; k < cp.n_ts(); ++k) {
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                bounds.lower[k * n_ctrl + j] = p.amp_lower_per_ctrl[j];
                bounds.upper[k * n_ctrl + j] = p.amp_upper_per_ctrl[j];
            }
        }
    }
    const std::vector<double> x0 = cp.flatten(p.initial_amps);
    auto make = [&] {
        return Objective([&cp](const std::vector<double>& x, std::vector<double>& g) {
            return cp.objective(x, g);
        });
    };
    const OptimResult res =
        expect_replay(label, make, x0, bounds, {.max_iterations = max_iterations});
    EXPECT_GT(res.iterations, 11) << label << ": the 10-pair ring never wrapped";
}

control::ControlAmplitudes ramp_amps(std::size_t slots, std::size_t ctrls, double scale) {
    control::ControlAmplitudes amps(slots, std::vector<double>(ctrls));
    for (std::size_t k = 0; k < slots; ++k) {
        for (std::size_t j = 0; j < ctrls; ++j) {
            amps[k][j] = scale * std::sin(0.37 * static_cast<double>(k + 1) +
                                          1.1 * static_cast<double>(j));
        }
    }
    return amps;
}

TEST(LbfgsBReplay, GrapeClosedQubit) {
    control::GrapeProblem p;
    p.system.drift = 0.1 * quantum::sigma_z();
    p.system.ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    p.target = quantum::gates::x();
    p.n_timeslots = 24;
    p.evo_time = 6.0;
    p.initial_amps = ramp_amps(24, 2, 0.2);
    expect_grape_replay("closed qubit n=48", p, false, 200);
}

TEST(LbfgsBReplay, GrapeTransmonIsometry) {
    control::GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = quantum::gates::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = 24;
    p.evo_time = 6.0;
    p.initial_amps = ramp_amps(24, 2, 0.25);
    expect_grape_replay("transmon isometry n=48", p, false, 200);
}

TEST(LbfgsBReplay, GrapeOpenQutrit) {
    control::GrapeProblem p;
    p.system.drift = quantum::liouvillian(quantum::duffing_drift(3, 0.0, -2.0),
                                          {0.05 * quantum::annihilation(3)});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::drive_x(3)),
                      quantum::liouvillian_hamiltonian(0.5 * quantum::drive_y(3))};
    Mat x3(3, 3);
    x3(0, 1) = 1.0;
    x3(1, 0) = 1.0;
    x3(2, 2) = 1.0;
    p.target = quantum::unitary_superop(x3);
    p.fidelity = control::FidelityType::kTraceDiff;
    p.n_timeslots = 16;
    p.evo_time = 4.0;
    p.initial_amps = ramp_amps(16, 2, 0.3);
    expect_grape_replay("open 9x9 n=32", p, true, 60);
}

TEST(LbfgsBReplay, GrapeFourControlsPerControlBounds) {
    const Mat id = Mat::identity(2);
    control::GrapeProblem p;
    p.system.drift = 0.2 * linalg::kron(quantum::sigma_z(), quantum::sigma_z());
    p.system.ctrls = {linalg::kron(quantum::sigma_x(), id), linalg::kron(quantum::sigma_y(), id),
                      linalg::kron(id, quantum::sigma_x()), linalg::kron(id, quantum::sigma_y())};
    p.target = quantum::gates::cx();
    p.n_timeslots = 48;
    p.evo_time = 12.0;
    p.amp_lower_per_ctrl = {-1.0, -0.5, -0.8, -0.25};
    p.amp_upper_per_ctrl = {1.0, 0.5, 0.6, 0.25};
    p.initial_amps = ramp_amps(48, 4, 0.2);
    expect_grape_replay("4 controls n=192", p, false, 150);
}

}  // namespace
}  // namespace qoc::optim
