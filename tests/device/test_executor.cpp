#include "device/executor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <numbers>
#include <random>
#include <string>

#include "device/calibration.hpp"
#include "linalg/kron.hpp"
#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::device {
namespace {

using pulse::drag_waveform;
using pulse::drive_channel;
using pulse::Play;
using pulse::Schedule;
using pulse::ShiftPhase;

/// A clean device: no drift, generous coherence for unit-test determinism.
BackendConfig clean_device() {
    BackendConfig b = ibmq_montreal();
    for (auto& q : b.qubits) {
        q.t1 = 1e9;  // effectively closed system
        q.t2 = 1e9;
        q.readout_p01 = 0.0;
        q.readout_p10 = 0.0;
    }
    b.cr.zz_static = 0.0;
    b.cr.classical_crosstalk = 0.0;
    return b;
}

TEST(Executor, IdleGroundStateStaysPut) {
    PulseExecutor exec(ibmq_montreal());
    const Mat sup = exec.idle_superop_1q(1000, 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_NEAR(rho(0, 0).real(), 1.0, 1e-9);
}

TEST(Executor, ExcitedStateDecaysAtT1) {
    BackendConfig cfg = ibmq_montreal();
    PulseExecutor exec(cfg);
    const std::size_t n_dt = 45000;  // 10 us
    const double t = n_dt * cfg.dt;
    const Mat sup = exec.idle_superop_1q(n_dt, 0);
    Mat rho1(cfg.levels, cfg.levels);
    rho1(1, 1) = 1.0;
    const Mat rho = quantum::apply_superop(sup, rho1);
    EXPECT_NEAR(rho(1, 1).real(), std::exp(-t / cfg.qubit(0).t1), 1e-6);
}

TEST(Executor, CoherenceDecaysAtT2) {
    BackendConfig cfg = ibmq_montreal();
    PulseExecutor exec(cfg);
    const std::size_t n_dt = 45000;
    const double t = n_dt * cfg.dt;
    const Mat sup = exec.idle_superop_1q(n_dt, 0);
    Mat rho(cfg.levels, cfg.levels);
    rho(0, 0) = 0.5;
    rho(1, 1) = 0.5;
    rho(0, 1) = 0.5;
    rho(1, 0) = 0.5;
    const Mat out = quantum::apply_superop(sup, rho);
    EXPECT_NEAR(std::abs(out(0, 1)), 0.5 * std::exp(-t / cfg.qubit(0).t2), 1e-6);
}

TEST(Executor, CalibratedPiPulseFlipsQubit) {
    PulseExecutor exec(clean_device());
    const auto rabi = rabi_calibrate(exec, 0);
    const double beta = default_drag_beta(exec.config(), 0, 160);
    const auto wf = drag_waveform(160, {rabi.pi_amplitude, 0.0}, beta);
    const Mat sup = exec.waveform_superop_1q(wf.samples(), 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_GT(rho(1, 1).real(), 0.999);
}

TEST(Executor, DragBeatsPlainGaussian) {
    // The DRAG quadrature cancels the third-level-induced phase error: the
    // pi pulse transfers more population to |1> than the plain Gaussian.
    PulseExecutor exec(clean_device());
    const auto rabi = rabi_calibrate(exec, 0);
    const double beta = default_drag_beta(exec.config(), 0, 160);

    const auto drag = drag_waveform(160, {rabi.pi_amplitude, 0.0}, beta);
    const auto plain = drag_waveform(160, {rabi.pi_amplitude, 0.0}, 0.0);
    const Mat rho_drag = quantum::apply_superop(exec.waveform_superop_1q(drag.samples(), 0),
                                                exec.ground_state_1q());
    const Mat rho_plain = quantum::apply_superop(exec.waveform_superop_1q(plain.samples(), 0),
                                                 exec.ground_state_1q());
    const double err_drag = 1.0 - rho_drag(1, 1).real();
    const double err_plain = 1.0 - rho_plain(1, 1).real();
    EXPECT_LT(err_drag, 0.5 * err_plain);
}

TEST(Executor, RzSuperopMatchesIdealRotation) {
    PulseExecutor exec(clean_device());
    const double theta = 0.7;
    const Mat sup = exec.rz_superop_1q(theta);
    // On the qubit subspace it must act as RZ(theta).
    Mat rho(3, 3);
    rho(0, 0) = 0.5;
    rho(1, 1) = 0.5;
    rho(0, 1) = 0.5;
    rho(1, 0) = 0.5;
    const Mat out = quantum::apply_superop(sup, rho);
    EXPECT_NEAR(std::arg(out(1, 0)), theta, 1e-12);
    EXPECT_NEAR(std::abs(out(0, 1)), 0.5, 1e-12);
}

TEST(Executor, VirtualZEquivalence) {
    // Gate-level circuit rz(pi/2) sx rz(pi/2) must act as Hadamard: check via
    // state preparation |0> -> |+>.
    PulseExecutor exec(clean_device());
    const auto defaults = build_default_gates(exec);
    pulse::QuantumCircuit qc(1);
    qc.h(0);
    const Mat rho = simulate_circuit_1q(exec, qc, defaults, 0);
    // Tolerance covers the *intentional* default-sx amplitude miscalibration
    // (DefaultGateOptions::sx_amp_relative_error) plus calibration shot noise.
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 0.06);
    EXPECT_NEAR(rho(0, 1).real(), 0.5, 0.06);  // +X coherence of |+>
}

TEST(Executor, ScheduleFrameCorrectionMatchesGateComposition) {
    // The same circuit executed (a) by gate-superop composition and (b) by
    // lowering to a schedule with ShiftPhases and integrating samples must
    // produce the same state.
    PulseExecutor exec(clean_device());
    const auto defaults = build_default_gates(exec);
    pulse::QuantumCircuit qc(1);
    qc.rz(0, 0.4).sx(0).rz(0, -1.1).x(0).rz(0, 2.2);
    const Mat via_gates = simulate_circuit_1q(exec, qc, defaults, 0);

    const pulse::Schedule sched = pulse::circuit_to_schedule(qc, defaults);
    const Mat sup = exec.schedule_superop_1q(sched, 0);
    const Mat via_schedule = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_TRUE(via_gates.approx_equal(via_schedule, 1e-9));
}

TEST(Executor, MeasurementConfusionMatrix) {
    BackendConfig cfg = clean_device();
    cfg.qubits[0].readout_p10 = 0.1;
    cfg.qubits[0].readout_p01 = 0.2;
    PulseExecutor exec(cfg);
    EXPECT_NEAR(exec.p1_after_readout(exec.ground_state_1q(), 0), 0.1, 1e-12);
    Mat rho1(cfg.levels, cfg.levels);
    rho1(1, 1) = 1.0;
    EXPECT_NEAR(exec.p1_after_readout(rho1, 0), 0.8, 1e-12);
}

TEST(Executor, MeasurementShotsDeterministicPerSeed) {
    PulseExecutor exec(ibmq_montreal());
    const Mat rho = exec.ground_state_1q();
    const Counts a = exec.measure_1q(rho, 0, 1024, 42);
    const Counts b = exec.measure_1q(rho, 0, 1024, 42);
    EXPECT_EQ(a.histogram, b.histogram);
    EXPECT_EQ(a.shots, 1024);
    EXPECT_NEAR(a.probability("0") + a.probability("1"), 1.0, 1e-12);
}

TEST(Executor, TwoQubitIdlePreservesGround) {
    PulseExecutor exec(ibmq_montreal());
    const Mat sup = exec.idle_superop_2q(500);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_2q());
    EXPECT_NEAR(rho(0, 0).real(), 1.0, 1e-9);
}

TEST(Executor, CrPulseEntanglesConditionally) {
    // A ZX90-calibrated CR pulse rotates the target in opposite directions
    // for the two control states.
    PulseExecutor exec(clean_device());
    const auto defaults = build_default_gates(exec);
    ASSERT_TRUE(defaults.has("cx", {0, 1}));

    pulse::QuantumCircuit qc(2);
    qc.cx(0, 1);
    // |00> -> |00| (control off: target returns to 0).
    Mat rho = simulate_circuit_2q(exec, qc, defaults);
    EXPECT_GT(rho(0, 0).real(), 0.98);

    pulse::QuantumCircuit qc2(2);
    qc2.x(0).cx(0, 1);
    rho = simulate_circuit_2q(exec, qc2, defaults);
    EXPECT_GT(rho(3, 3).real(), 0.95);  // |11>
}

TEST(Executor, DefaultCxFidelityReasonable) {
    PulseExecutor exec(ibmq_montreal());
    const auto defaults = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_2q(defaults.get("cx", {0, 1}));
    const double f = quantum::average_gate_fidelity_superop(quantum::gates::cx(), sup);
    // Realistic default CX: better than 0.97, worse than perfect.
    EXPECT_GT(f, 0.97);
    EXPECT_LT(f, 0.99999);
}

TEST(Executor, DefaultXFidelityAtPaperScale) {
    PulseExecutor exec(ibmq_montreal());
    const auto defaults = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_1q(defaults.get("x", {0}), 0);
    // Compare against X extended by identity on the leakage level.
    Mat x_full = Mat::identity(3);
    x_full.set_block(0, 0, quantum::gates::x());
    const double f = quantum::average_gate_fidelity_superop(x_full, sup);
    const double err = 1.0 - f;
    // Paper scale: default 1Q error a few 1e-4.
    EXPECT_GT(err, 1e-5);
    EXPECT_LT(err, 5e-3);
}

/// The two-qubit readout as a histogram filled shot by shot through a
/// string-keyed map, with the executor's confusion arithmetic: the replay
/// the executor's tally must match bit for bit.
std::map<std::string, int> map_replay_2q(const BackendConfig& cfg,
                                         const std::array<double, 4>& true_p, int shots,
                                         std::uint64_t seed) {
    double norm = true_p[0] + true_p[1] + true_p[2] + true_p[3];
    if (norm <= 0.0) norm = 1.0;
    auto flip = [&](std::size_t q, int read, int truth) {
        const auto& p = cfg.qubit(q);
        if (truth == 0) return read == 1 ? p.readout_p10 : 1.0 - p.readout_p10;
        return read == 0 ? p.readout_p01 : 1.0 - p.readout_p01;
    };
    std::array<double, 4> read_p{};
    for (int r0 = 0; r0 < 2; ++r0)
        for (int r1 = 0; r1 < 2; ++r1)
            for (int t0 = 0; t0 < 2; ++t0)
                for (int t1 = 0; t1 < 2; ++t1)
                    read_p[r0 * 2 + r1] +=
                        (true_p[t0 * 2 + t1] / norm) * flip(0, r0, t0) * flip(1, r1, t1);
    std::mt19937_64 rng(seed);
    std::discrete_distribution<int> dist(read_p.begin(), read_p.end());
    static const char* labels[4] = {"00", "01", "10", "11"};
    std::map<std::string, int> hist;
    for (int s = 0; s < shots; ++s) hist[labels[dist(rng)]]++;
    return hist;
}

TEST(Measure2qDeterminism, TallyMatchesMapReplay) {
    BackendConfig noiseless = ibmq_montreal();
    for (auto& q : noiseless.qubits) q.readout_p01 = q.readout_p10 = 0.0;
    const std::array<double, 4> populations[] = {
        {0.25, 0.25, 0.25, 0.25}, {0.7, 0.1, 0.15, 0.05}, {1.0, 0.0, 0.0, 0.0},
        {0.0, 0.5, 0.5, 0.0},     {0.0, 0.0, 0.0, 1.0}};
    for (const BackendConfig& cfg : {ibmq_montreal(), noiseless}) {
        const PulseExecutor exec(cfg);
        for (const auto& pop : populations) {
            Mat rho(4, 4);
            for (std::size_t k = 0; k < 4; ++k) rho(k, k) = pop[k];
            const Mat vec_rho = linalg::vec(rho);
            for (std::uint64_t seed : {1u, 7u, 42u, 2021u}) {
                for (int shots : {1, 100, 8192}) {
                    const auto replay = map_replay_2q(cfg, pop, shots, seed);
                    const Counts c = exec.measure_2q(rho, shots, seed);
                    EXPECT_EQ(c.histogram, replay) << "seed " << seed << " shots " << shots;
                    EXPECT_EQ(c.shots, shots);
                    EXPECT_EQ(exec.measure_2q_vec(vec_rho, shots, seed).histogram, replay);
                }
            }
        }
    }
}

TEST(Measure2qDeterminism, ZeroPopulationLeavesItsKeyAbsent) {
    // Without readout error a state with no |01> and |10> population never
    // reads them: those keys must not appear, not even with a zero count.
    BackendConfig cfg = ibmq_montreal();
    for (auto& q : cfg.qubits) q.readout_p01 = q.readout_p10 = 0.0;
    const PulseExecutor exec(cfg);
    Mat rho(4, 4);
    rho(0, 0) = 0.5;
    rho(3, 3) = 0.5;
    const Counts c = exec.measure_2q(rho, 8192, 5);
    EXPECT_EQ(c.histogram.size(), 2u);
    EXPECT_EQ(c.histogram.count("01"), 0u);
    EXPECT_EQ(c.histogram.count("10"), 0u);
    EXPECT_EQ(c.histogram.at("00") + c.histogram.at("11"), 8192);
}

}  // namespace
}  // namespace qoc::device
