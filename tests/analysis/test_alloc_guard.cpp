/// Allocation-budget regression tests.
///
/// PR 1 made the GRAPE evaluator and the matvec kernels allocation-free on
/// shape reuse; PR 2 did the same for the RB propagation loop.  Nothing
/// enforced it -- a stray temporary in `gemm_into` would silently cost ~30%
/// of GRAPE wall time.  These tests pin the property with a real meter:
///
///  * the `*_into` kernels perform EXACTLY ZERO heap allocations after the
///    one-time shape warmup;
///  * steady-state GRAPE iterations and RB seeds stay within small committed
///    allocation budgets, and their counts are run-to-run deterministic.
///
/// Budgets are measured on the seed machine and include ~2x headroom; if a
/// test trips, a hot path gained an allocation -- find it before raising the
/// budget.  With contracts compiled in, the optimizer-level tests skip: the
/// invariant checks allocate scratch (residual matrices, Choi forms) by
/// design, and perf-facing guarantees only apply to release-style builds.

#include "analysis/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <vector>

#include "contracts/contracts.hpp"
#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "device/calibration.hpp"
#include "device/executor.hpp"
#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "pulse/waveform.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "rb/rb.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

#include <optional>

namespace qoc {
namespace {

using linalg::Mat;
using testing::AllocMeter;

/// Pins the task pool to size 1 so workspace-lease creation and task
/// submission cannot leak into a measured region (counts stay exactly
/// reproducible; size 1 is the pure-inline, zero-allocation fast path).
class AllocGuardTest : public ::testing::Test {
protected:
    void SetUp() override { serial_.emplace(1); }
    void TearDown() override { serial_.reset(); }

private:
    std::optional<runtime::ScopedPoolSize> serial_;
};

Mat random_like(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    Mat m(rows, cols);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            m(i, j) = {static_cast<double>(s >> 40) * 1e-7, static_cast<double>(s >> 44) * 1e-7};
        }
    }
    return m;
}

TEST_F(AllocGuardTest, MeterCatchesInjectedAllocation) {
    // Self-test: the interposer must see an allocation a hot loop sneaks in.
    AllocMeter m;
    double sink = 0.0;
    for (int i = 0; i < 4; ++i) {
        std::vector<double> injected(64, 1.0);  // the "bug"
        sink += injected[0];
    }
    EXPECT_GE(m.delta(), 4u);
    EXPECT_GT(sink, 0.0);
}

TEST_F(AllocGuardTest, GemmIntoIsAllocationFreeAfterWarmup) {
    const Mat a = random_like(24, 24, 1);
    const Mat b = random_like(24, 24, 2);
    Mat out;
    linalg::gemm_into(a, b, out);  // warmup: sizes the output once
    AllocMeter m;
    for (int i = 0; i < 16; ++i) linalg::gemm_into(a, b, out);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, GemvIntoIsAllocationFreeAfterWarmup) {
    const Mat a = random_like(36, 36, 3);
    const Mat x = random_like(36, 1, 4);
    Mat out;
    linalg::gemv_into(a, x, out);
    AllocMeter m;
    for (int i = 0; i < 16; ++i) linalg::gemv_into(a, x, out);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, ApplySuperopIntoIsAllocationFreeAfterWarmup) {
    const Mat s = quantum::unitary_superop(quantum::gates::h());
    const Mat v = random_like(4, 1, 5);
    Mat out;
    quantum::apply_superop_into(s, v, out);
    AllocMeter m;
    for (int i = 0; i < 16; ++i) quantum::apply_superop_into(s, v, out);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, WorkspacePoolLeaseReuseAllocationFreeAfterWarmup) {
    // The runtime arena's steady state: acquire pops the LIFO free list,
    // release pushes within reserved capacity -- zero heap traffic after
    // the first lease created (and sized) the single workspace.
    struct Scratch {
        Mat m;
    };
    runtime::WorkspacePool<Scratch> pool;
    {
        auto lease = pool.acquire();  // warmup: creates + sizes the workspace
        lease->m = random_like(16, 16, 7);
    }
    AllocMeter meter;
    for (int i = 0; i < 64; ++i) {
        auto lease = pool.acquire();
        lease->m(0, 0) = {static_cast<double>(i), 0.0};
    }
    EXPECT_EQ(meter.delta(), 0u);
    EXPECT_EQ(pool.created(), 1u) << "sequential leases must reuse one workspace";
}

#if defined(QOC_CONTRACTS_ENABLED)

TEST_F(AllocGuardTest, GrapeSteadyStateIterationBudget) {
    GTEST_SKIP() << "contracts compiled in: invariant checks allocate scratch by design";
}
TEST_F(AllocGuardTest, RbRunAllocDeterministicAndBudgeted) {
    GTEST_SKIP() << "contracts compiled in: invariant checks allocate scratch by design";
}
TEST_F(AllocGuardTest, GrapeObjectiveAllocationFreeAfterWarmup) {
    GTEST_SKIP() << "contracts compiled in: invariant checks allocate scratch by design";
}

#else  // !QOC_CONTRACTS_ENABLED

/// Per-iteration allocation ceiling for steady-state GRAPE (L-BFGS-B
/// bookkeeping + result-history growth; the evaluator itself is zero-alloc).
/// Measured 107 on the seed machine; ~2x headroom.
constexpr std::uint64_t kGrapeIterAllocBudget = 256;

/// Total ceiling for one small run_rb_1q (3 lengths x 2 seeds, warm caches).
/// Dominated by the Levenberg-Marquardt decay fit, whose iteration count --
/// and hence allocation count -- depends on the sampled survivals, so the
/// bound is coarse; the propagation loop itself is pinned to zero below.
/// Measured 3544 on the seed machine; ~2x headroom.
constexpr std::uint64_t kRb1qRunAllocBudget = 8192;

control::GrapeProblem small_transmon_problem() {
    control::GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = quantum::gates::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = 16;
    p.evo_time = 4.0;
    p.fidelity = control::FidelityType::kPsu;
    p.initial_amps.resize(p.n_timeslots);
    for (std::size_t k = 0; k < p.n_timeslots; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(p.n_timeslots);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

TEST_F(AllocGuardTest, GrapeSteadyStateIterationBudget) {
    const control::GrapeProblem p = small_transmon_problem();
    optim::LbfgsBOptions opts;
    opts.max_iterations = 12;
    opts.pg_tol = 0.0;  // run all iterations
    opts.f_tol = 0.0;

    std::vector<std::uint64_t> marks;
    marks.reserve(64);  // keep the callback itself allocation-free
    opts.iter_callback = [&](const optim::IterationRecord&) {
        marks.push_back(testing::alloc_count());
    };
    control::grape_unitary(p, opts);
    ASSERT_GE(marks.size(), 8u);

    // Skip the first iterations (workspace setup, history-vector growth);
    // steady state must stay within the committed budget.
    std::uint64_t worst = 0;
    for (std::size_t i = 4; i < marks.size(); ++i) {
        worst = std::max(worst, marks[i] - marks[i - 1]);
    }
    RecordProperty("worst_steady_iter_allocs", static_cast<int>(worst));
    EXPECT_LE(worst, kGrapeIterAllocBudget)
        << "a steady-state GRAPE iteration gained heap allocations";
}

/// Open-system twin of `small_transmon_problem`: the qutrit Liouvillian
/// (9x9 generators) with kTraceDiff fidelity.
control::GrapeProblem small_open_problem() {
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
    p.initial_amps.assign(p.n_timeslots, {0.3, -0.2});
    return p;
}

TEST_F(AllocGuardTest, GrapeObjectiveAllocationFreeAfterWarmup) {
    // The evaluator's promise: after the first calls at a problem shape,
    // objective() (propagate + adjoint gradient + fidelity) allocates
    // NOTHING -- closed and open, also when consecutive points move slots
    // between Pade orders.
    for (const control::GrapeProblem& p : {small_transmon_problem(), small_open_problem()}) {
        const control::ControlProblem cp(p);
        const std::vector<double> x0 = cp.flatten(p.initial_amps);
        std::vector<double> x1 = x0;
        for (std::size_t i = 0; i < x1.size(); ++i) x1[i] = (i % 3 == 0) ? 1.0 : -0.05;
        std::vector<double> grad;
        cp.objective(x0, grad);  // warmup: sizes every workspace
        cp.objective(x1, grad);
        AllocMeter m;
        double sink = 0.0;
        for (int rep = 0; rep < 4; ++rep) {
            sink += cp.objective(x0, grad);
            sink += cp.objective(x1, grad);
        }
        EXPECT_EQ(m.delta(), 0u) << (cp.open_system() ? "open" : "closed");
        EXPECT_GT(sink, 0.0);
    }
}

TEST_F(AllocGuardTest, RbPropagationLoopAllocationFree) {
    // The per-seed hot loop of the matvec RB engine: one superop matvec per
    // Clifford.  After buffer warmup it must allocate NOTHING, whatever the
    // sequence length.
    const device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q group;
    const rb::GateSet1Q gates(exec, defaults, 0, group);

    Mat v = linalg::vec(exec.ground_state_1q());
    Mat w = v;
    quantum::apply_superop_into(gates.clifford_superop(0), v, w);
    quantum::apply_superop_into(gates.clifford_superop(1), w, v);

    AllocMeter m;
    for (int rep = 0; rep < 8; ++rep) {
        for (std::size_t c = 0; c < rb::Clifford1Q::kSize; ++c) {
            quantum::apply_superop_into(gates.clifford_superop(c), v, w);
            std::swap(v, w);  // buffer ping-pong, allocation-free
        }
    }
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, ExecutorPropagationLoopAllocationFreeAfterWarmup) {
    // The executor's per-sample loop as the Rabi sweep (a 9 x 1 state) and
    // the CX calibration (a 16 x 2 block) drive it: generator axpys,
    // SIMD expm and one block product per sample.  After one stream has
    // sized the workspace it must allocate NOTHING, whatever the amplitudes.
    const device::PulseExecutor exec{device::ibmq_montreal()};
    const double beta = device::default_drag_beta(exec.config(), 0, 160);
    auto drag = [beta](double amp) {
        return pulse::drag_waveform(160, {amp, 0.0}, beta).samples();
    };
    // Warm up at the sweep's largest amplitude: it reaches the highest Pade
    // order the sweep needs.
    const auto warm = drag(0.4);
    const std::vector<std::vector<std::complex<double>>> sweep = {drag(0.05), drag(0.2),
                                                                  drag(0.35)};
    const Mat start_1q = linalg::vec(exec.ground_state_1q());
    Mat state = start_1q;
    device::PropagationWorkspace ws_1q;
    exec.propagate_1q(warm, 0, state, ws_1q, device::PropagatorReuse::kNone);

    auto cr = [](double u) {
        return pulse::gaussian_square_waveform(400, {u, 0.0}, 0.7).samples();
    };
    const std::vector<std::complex<double>> idle(400, {0.0, 0.0});
    const auto cr_warm = cr(0.9);
    const auto cr_run = cr(0.6);
    Mat start_2q(16, 2);
    start_2q(0, 0) = 1.0;   // vec(|00><00|)
    start_2q(10, 1) = 1.0;  // vec(|10><10|)
    Mat block = start_2q;
    device::PropagationWorkspace ws_2q;
    exec.propagate_2q(idle, idle, cr_warm, block, ws_2q, device::PropagatorReuse::kNone);

    AllocMeter m;
    for (const auto& samples : sweep) {
        state = start_1q;  // copy-assign into the same shape
        exec.propagate_1q(samples, 0, state, ws_1q, device::PropagatorReuse::kNone);
    }
    block = start_2q;
    exec.propagate_2q(idle, idle, cr_run, block, ws_2q, device::PropagatorReuse::kNone);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, RbRunAllocDeterministicAndBudgeted) {
    const device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q group;
    const rb::GateSet1Q gates(exec, defaults, 0, group);

    auto run_once = [&] {
        rb::RbOptions opts;
        opts.lengths = {1, 10, 20};
        opts.seeds_per_length = 2;
        opts.shots = 64;
        AllocMeter m;
        rb::run_rb_1q(exec, gates, 0, opts);
        return m.delta();
    };

    run_once();  // warm static/lazy state before measuring
    const std::uint64_t a = run_once();
    const std::uint64_t a_again = run_once();
    EXPECT_EQ(a, a_again) << "RB allocation count must be run-to-run deterministic";
    RecordProperty("allocs_per_small_rb_run", static_cast<int>(a));
    EXPECT_LE(a, kRb1qRunAllocBudget) << "the RB path gained heap allocations";
}

#endif  // QOC_CONTRACTS_ENABLED

}  // namespace
}  // namespace qoc
