/// GRAPE gradients must be bit-identical regardless of the task-pool size:
/// every slot of the objective writes disjoint storage through its own
/// pooled workspace, so parallelism must not change a single ULP.  Guards
/// against anyone "optimizing" the evaluator with a reduction or a shared
/// accumulator that reorders floating-point sums.
///
/// The adjoint gradient (one Frechet derivative per slot along the
/// back-propagated cost matrix) is also held to the forward form it
/// replaces -- one derivative per control through `expm_frechet_multi`:
/// equal objective values, gradients within 1e-12 relative.

#include "control/grape.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "control/control_problem.hpp"
#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::control {
namespace {

using quantum::drive_x;
using quantum::drive_y;
using quantum::duffing_drift;
using quantum::qubit_isometry;

/// Three-level transmon X-gate design, the same shape as the paper's
/// single-qubit benchmarks (subspace isometry + leakage level).
GrapeProblem transmon_problem(std::size_t n_ts) {
    GrapeProblem p;
    p.system.drift = duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * drive_x(3), 0.5 * drive_y(3)};
    p.target = quantum::gates::x();
    p.subspace_isometry = qubit_isometry(3);
    p.n_timeslots = n_ts;
    p.evo_time = static_cast<double>(n_ts) * 0.25;
    p.fidelity = FidelityType::kPsu;
    p.initial_amps.resize(n_ts);
    for (std::size_t k = 0; k < n_ts; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(n_ts);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

/// Open-system (Lindblad, kTraceDiff) variant exercising the Pade path.
GrapeProblem open_problem(std::size_t n_ts) {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(Mat(2, 2), {0.05 * quantum::sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::sigma_x())};
    p.target = quantum::unitary_superop(quantum::gates::x());
    p.n_timeslots = n_ts;
    p.evo_time = static_cast<double>(n_ts) * 0.3;
    p.fidelity = FidelityType::kTraceDiff;
    p.initial_amps.assign(n_ts, {0.35});
    return p;
}

/// Evaluates err + grad at a fixed task-pool size, restoring the previous
/// size afterwards.
double eval_with_threads(int n_threads, const GrapeProblem& p, std::vector<double>& grad) {
    runtime::ScopedPoolSize scoped(static_cast<std::size_t>(n_threads));
    return evaluate_fid_err_and_grad(p, p.initial_amps, grad);
}

TEST(GrapeDeterminism, ClosedGradientBitIdenticalAcrossThreadCounts) {
    const GrapeProblem p = transmon_problem(24);
    std::vector<double> g1, gn;
    const double e1 = eval_with_threads(1, p, g1);
    for (int threads : {2, 4, 8}) {
        const double en = eval_with_threads(threads, p, gn);
        EXPECT_EQ(e1, en) << "threads=" << threads;  // bitwise, not approx
        ASSERT_EQ(g1.size(), gn.size());
        for (std::size_t i = 0; i < g1.size(); ++i) {
            EXPECT_EQ(g1[i], gn[i]) << "threads=" << threads << " i=" << i;
        }
    }
}

TEST(GrapeDeterminism, OpenGradientBitIdenticalAcrossThreadCounts) {
    const GrapeProblem p = open_problem(16);
    std::vector<double> g1, gn;
    const double e1 = eval_with_threads(1, p, g1);
    const double en = eval_with_threads(4, p, gn);
    EXPECT_EQ(e1, en);
    ASSERT_EQ(g1.size(), gn.size());
    for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_EQ(g1[i], gn[i]) << "i=" << i;
}

TEST(GrapeDeterminism, RepeatedEvaluationReusesWorkspaceBitIdentically) {
    // Same evaluator-facing API called twice in a row: workspace reuse must
    // be stateless (second call sees dirty buffers and must not care).
    const GrapeProblem p = transmon_problem(16);
    std::vector<double> ga, gb;
    const double ea = evaluate_fid_err_and_grad(p, p.initial_amps, ga);
    const double eb = evaluate_fid_err_and_grad(p, p.initial_amps, gb);
    EXPECT_EQ(ea, eb);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) EXPECT_EQ(ga[i], gb[i]);
}

// --- adjoint gradient vs the forward multi-direction form -------------------

using linalg::cplx;

/// The forward-mode objective: per slot, e^{A_k} and L(A_k, E_j) for every
/// control j from one `expm_frechet_multi` call, each derivative read
/// through Tr(R_k L(A_k, E_j)) with R_k = fwd_{k-1} C bwd_k.
double forward_frechet_objective(const ControlProblem& cp, const std::vector<double>& x,
                                 std::vector<double>& grad) {
    const GrapeProblem& prob = cp.problem();
    const std::size_t n_ts = cp.n_ts(), n_ctrl = cp.n_ctrl();
    const std::size_t dim = prob.system.drift.rows();
    const cplx scale = cp.open_system() ? cplx{cp.dt(), 0.0} : (-cplx{0.0, 1.0} * cp.dt());
    std::vector<Mat> dirs;
    for (const Mat& c : prob.system.ctrls) dirs.push_back(scale * c);

    linalg::ExpmWorkspace ws;
    std::vector<Mat> props(n_ts);
    std::vector<std::vector<Mat>> dprops(n_ts, std::vector<Mat>(n_ctrl));
    Mat gen;
    for (std::size_t k = 0; k < n_ts; ++k) {
        cp.slot_exponent_into(&x[k * n_ctrl], gen);
        linalg::expm_frechet_multi(gen, dirs.data(), n_ctrl, props[k], dprops[k].data(), ws);
    }
    std::vector<Mat> fwd(n_ts), bwd(n_ts);
    fwd[0] = props[0];
    for (std::size_t k = 1; k < n_ts; ++k) linalg::gemm_into(props[k], fwd[k - 1], fwd[k]);
    bwd[n_ts - 1] = Mat::identity(dim);
    for (std::size_t k = n_ts - 1; k-- > 0;) linalg::gemm_into(bwd[k + 1], props[k + 1], bwd[k]);

    const Mat& evo = fwd.back();
    double total = cp.fid_err_of(evo);
    cplx g_overlap{0.0, 0.0};
    Mat c_adj;
    if (prob.fidelity == FidelityType::kTraceDiff) {
        c_adj = (prob.target - evo).adjoint();
    } else {
        g_overlap = linalg::hs_inner(cp.overlap_target(), evo);
        c_adj = cp.overlap_target().adjoint();
    }
    grad.assign(cp.n_params(), 0.0);
    for (std::size_t k = 0; k < n_ts; ++k) {
        Mat r = c_adj * bwd[k];
        if (k > 0) r = fwd[k - 1] * r;
        for (std::size_t j = 0; j < n_ctrl; ++j) {
            const cplx dg = linalg::trace_of_product(r, dprops[k][j]);
            double derr = 0.0;
            switch (prob.fidelity) {
                case FidelityType::kPsu:
                    derr = -2.0 * (std::conj(g_overlap) * dg).real() /
                           (cp.norm_dim() * cp.norm_dim());
                    break;
                case FidelityType::kSu: derr = -dg.real() / cp.norm_dim(); break;
                case FidelityType::kTraceDiff:
                    derr = -dg.real() / static_cast<double>(dim);
                    break;
            }
            grad[k * n_ctrl + j] = derr;
        }
    }
    if (prob.energy_penalty > 0.0) {
        const double w = prob.energy_penalty / static_cast<double>(cp.n_params());
        double penalty = 0.0;
        for (std::size_t i = 0; i < cp.n_params(); ++i) {
            penalty += w * x[i] * x[i];
            grad[i] += 2.0 * w * x[i];
        }
        total += penalty;
    }
    return total;
}

/// (Pade order, squarings) the engine picks for a generator of 1-norm
/// `nrm` (Higham 2005, Table 2.3 thresholds).
std::pair<int, int> pade_band(double nrm) {
    if (nrm <= 1.495585217958292e-2) return {3, 0};
    if (nrm <= 2.539398330063230e-1) return {5, 0};
    if (nrm <= 9.504178996162932e-1) return {7, 0};
    if (nrm <= 2.097847961257068e0) return {9, 0};
    int s = 0;
    for (double scaled = nrm; scaled > 5.371920351148152e0; scaled *= 0.5) ++s;
    return {13, s};
}

/// Bands hit by the slot generators of `x`.
std::set<std::pair<int, int>> bands_of(const ControlProblem& cp, const std::vector<double>& x) {
    std::set<std::pair<int, int>> bands;
    Mat gen;
    for (std::size_t k = 0; k < cp.n_ts(); ++k) {
        cp.slot_exponent_into(&x[k * cp.n_ctrl()], gen);
        bands.insert(pade_band(gen.norm_1()));
    }
    return bands;
}

/// Slot amplitudes along the fixed direction `dir`, one slot per target
/// generator 1-norm (found by bisection on the amplitude scale), so one
/// problem walks every Pade band.
ControlAmplitudes amps_for_norms(const ControlProblem& cp, const std::vector<double>& dir,
                                 const std::vector<double>& norms) {
    ControlAmplitudes amps;
    for (double target : norms) {
        double lo = 0.0, hi = 1.0;
        auto norm_at = [&](double c) {
            std::vector<double> u = dir;
            for (double& v : u) v *= c;
            return cp.slot_exponent(u).norm_1();
        };
        while (norm_at(hi) < target) hi *= 2.0;
        for (int it = 0; it < 80; ++it) {
            const double mid = 0.5 * (lo + hi);
            (norm_at(mid) < target ? lo : hi) = mid;
        }
        std::vector<double> u = dir;
        for (double& v : u) v *= 0.5 * (lo + hi);
        amps.push_back(u);
    }
    return amps;
}

/// One norm per band: orders 3, 5, 7, 9, 13, and 13 with s = 2 and s = 3.
const std::vector<double> kBandNorms = {0.01, 0.2, 0.8, 1.8, 4.5, 12.0, 30.0};

void expect_all_bands(const ControlProblem& cp, const std::vector<double>& x) {
    const auto bands = bands_of(cp, x);
    for (int m : {3, 5, 7, 9, 13}) {
        EXPECT_TRUE(std::any_of(bands.begin(), bands.end(),
                                [m](const auto& b) { return b.first == m; }))
            << "Pade order " << m << " not exercised";
    }
    EXPECT_TRUE(std::any_of(bands.begin(), bands.end(),
                            [](const auto& b) { return b.second >= 2; }))
        << "no slot with s >= 2 squarings";
}

/// Deterministic, non-symmetric amplitudes so no gradient entry vanishes by
/// symmetry.
std::vector<double> wiggle_point(std::size_t n, double amp) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = amp * std::sin(1.3 * static_cast<double>(i) + 0.4);
    }
    return x;
}

/// The evaluator's objective equals the forward form's under `==`, its
/// gradient agrees to 1e-12 relative (to the largest entry), and both are
/// bitwise equal at pool sizes 1 and 4.
void expect_adjoint_matches_forward(const GrapeProblem& p, const std::vector<double>& x) {
    const ControlProblem cp(p);
    std::vector<double> g_ref;
    const double e_ref = forward_frechet_objective(cp, x, g_ref);

    std::vector<double> g1, g4;
    double e1 = 0.0, e4 = 0.0;
    {
        runtime::ScopedPoolSize scoped(1);
        e1 = cp.objective(x, g1);
    }
    {
        runtime::ScopedPoolSize scoped(4);
        e4 = cp.objective(x, g4);
    }
    EXPECT_EQ(e1, e_ref);
    EXPECT_EQ(e1, e4);
    ASSERT_EQ(g1.size(), g_ref.size());
    ASSERT_EQ(g1.size(), g4.size());
    double scale = 0.0;
    for (double g : g_ref) scale = std::max(scale, std::abs(g));
    ASSERT_GT(scale, 1e-6) << "degenerate test point: gradient is ~0";
    double worst = 0.0;
    for (std::size_t i = 0; i < g1.size(); ++i) {
        worst = std::max(worst, std::abs(g1[i] - g_ref[i]) / scale);
        EXPECT_LE(std::abs(g1[i] - g_ref[i]), 1e-12 * scale)
            << "i=" << i << " adjoint=" << g1[i] << " forward=" << g_ref[i];
        EXPECT_EQ(g1[i], g4[i]) << "i=" << i;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3e", worst);
    ::testing::Test::RecordProperty("max_rel_grad_diff", buf);
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetClosedPsuEveryPadeBand) {
    GrapeProblem p;
    p.system.drift = 0.005 * quantum::sigma_z();
    p.system.ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    p.target = quantum::gates::h();
    p.n_timeslots = kBandNorms.size();
    p.evo_time = static_cast<double>(p.n_timeslots);
    p.fidelity = FidelityType::kPsu;
    p.initial_amps.assign(p.n_timeslots, {0.0, 0.0});
    p.initial_amps = amps_for_norms(ControlProblem(p), {0.8, -0.6}, kBandNorms);
    const ControlProblem cp(p);
    const std::vector<double> x = cp.flatten(p.initial_amps);
    expect_all_bands(cp, x);
    expect_adjoint_matches_forward(p, x);
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetOpenTraceDiffEveryPadeBand) {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(0.02 * quantum::sigma_z(),
                                          {0.05 * quantum::sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::sigma_x()),
                      quantum::liouvillian_hamiltonian(0.5 * quantum::sigma_y())};
    p.target = quantum::unitary_superop(quantum::gates::x());
    p.n_timeslots = kBandNorms.size();
    p.evo_time = 0.1 * static_cast<double>(p.n_timeslots);
    p.fidelity = FidelityType::kTraceDiff;
    p.initial_amps.assign(p.n_timeslots, {0.0, 0.0});
    p.initial_amps = amps_for_norms(ControlProblem(p), {0.6, 0.8}, kBandNorms);
    const ControlProblem cp(p);
    const std::vector<double> x = cp.flatten(p.initial_amps);
    expect_all_bands(cp, x);
    expect_adjoint_matches_forward(p, x);
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetClosedSuOneControl) {
    GrapeProblem p;
    p.system.drift = 0.2 * quantum::sigma_z();
    p.system.ctrls = {0.5 * quantum::sigma_x()};
    p.target = quantum::gates::rx(1.0);
    p.fidelity = FidelityType::kSu;
    p.n_timeslots = 10;
    p.evo_time = 6.0;
    p.initial_amps.assign(p.n_timeslots, {0.0});
    expect_adjoint_matches_forward(p, wiggle_point(10, 0.8));
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetSubspaceThreeLevel) {
    GrapeProblem p = transmon_problem(20);
    p.energy_penalty = 0.05;
    expect_adjoint_matches_forward(p, wiggle_point(40, 0.6));
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetStateTransfer) {
    GrapeProblem p;
    p.system.drift = 0.1 * quantum::sigma_z();
    p.system.ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    p.target = quantum::gates::x();  // ignored
    p.state_transfer =
        GrapeProblem::StateTransfer{quantum::basis_ket(2, 0), quantum::basis_ket(2, 1)};
    p.n_timeslots = 12;
    p.evo_time = 5.0;
    p.initial_amps.assign(p.n_timeslots, {0.0, 0.0});
    expect_adjoint_matches_forward(p, wiggle_point(24, 0.5));
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetOpenThreeLevelSuperop) {
    // d = 9: the qutrit Liouvillian of the paper's open-system designs.
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(quantum::duffing_drift(3, 0.0, -2.0),
                                          {0.05 * quantum::annihilation(3)});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::drive_x(3)),
                      quantum::liouvillian_hamiltonian(0.5 * quantum::drive_y(3))};
    Mat x3(3, 3);  // X on the qubit subspace, identity on leakage
    x3(0, 1) = 1.0;
    x3(1, 0) = 1.0;
    x3(2, 2) = 1.0;
    p.target = quantum::unitary_superop(x3);
    p.fidelity = FidelityType::kTraceDiff;
    p.n_timeslots = 12;
    p.evo_time = 6.0;
    p.initial_amps.assign(p.n_timeslots, {0.0, 0.0});
    expect_adjoint_matches_forward(p, wiggle_point(24, 0.7));
}

TEST(GrapeDeterminism, AdjointGradientMatchesForwardFrechetFourControlsTwoQubit) {
    // The CX design's shape: 4x4 closed generators, four drive controls.
    using linalg::kron;
    const Mat id = quantum::identity2();
    GrapeProblem p;
    p.system.drift = 0.3 * kron(quantum::sigma_z(), quantum::sigma_z());
    p.system.ctrls = {0.5 * kron(quantum::sigma_x(), id), 0.5 * kron(quantum::sigma_y(), id),
                      0.5 * kron(id, quantum::sigma_x()), 0.5 * kron(id, quantum::sigma_y())};
    p.target = quantum::gates::cx();
    p.fidelity = FidelityType::kPsu;
    p.n_timeslots = 10;
    p.evo_time = 8.0;
    p.initial_amps.assign(p.n_timeslots, {0.0, 0.0, 0.0, 0.0});
    expect_adjoint_matches_forward(p, wiggle_point(40, 0.9));
}

}  // namespace
}  // namespace qoc::control
