#include "device/calibration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <variant>

#include "pulse/waveform.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::device {
namespace {

TEST(Rabi, RecoversPiAmplitude) {
    // On a clean device the pi amplitude must satisfy
    // amp * Omega_max * gaussian_area = pi (small DRAG corrections aside).
    BackendConfig cfg = ibmq_montreal();
    for (auto& q : cfg.qubits) {
        q.t1 = 1e9;
        q.t2 = 1e9;
        q.readout_p01 = 0.0;
        q.readout_p10 = 0.0;
    }
    PulseExecutor exec(cfg);
    RabiOptions opts;
    opts.shots = 100000;  // nearly noise-free calibration
    const auto rabi = rabi_calibrate(exec, 0, opts);

    const double area = 0.25 * 160 * cfg.dt * std::sqrt(2.0 * M_PI);  // sigma*sqrt(2pi)
    const double expected = M_PI / (cfg.qubit(0).omega_max * area);
    EXPECT_NEAR(rabi.pi_amplitude, expected, 0.05 * expected);
}

TEST(Rabi, TracksAmplitudeScaleDrift) {
    // If the device applies 5% more drive than commanded, the calibrated
    // amplitude must come out ~5% lower -- that is the point of daily
    // recalibration.
    BackendConfig cfg = ibmq_montreal();
    PulseExecutor nominal_exec(cfg);
    const double amp_nominal = rabi_calibrate(nominal_exec, 0).pi_amplitude;

    cfg.qubits[0].amp_scale = 1.05;
    PulseExecutor drifted_exec(cfg);
    const double amp_drifted = rabi_calibrate(drifted_exec, 0).pi_amplitude;
    EXPECT_NEAR(amp_drifted / amp_nominal, 1.0 / 1.05, 0.01);
}

TEST(Rabi, SweepDataExposed) {
    PulseExecutor exec(ibmq_montreal());
    const auto rabi = rabi_calibrate(exec, 0);
    EXPECT_EQ(rabi.sweep_amps.size(), rabi.sweep_p1.size());
    EXPECT_GT(rabi.sweep_amps.size(), 10u);
    // P1 starts near 0 at tiny amplitude.
    EXPECT_LT(rabi.sweep_p1.front(), 0.2);
}

TEST(DefaultGates, MapContainsBasisGates) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    EXPECT_TRUE(map.has("x", {0}));
    EXPECT_TRUE(map.has("sx", {0}));
    EXPECT_TRUE(map.has("x", {1}));
    EXPECT_TRUE(map.has("cx", {0, 1}));
    EXPECT_FALSE(map.has("cx", {1, 0}));
}

TEST(DefaultGates, XPreparesExcitedState) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_1q(map.get("x", {0}), 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    EXPECT_GT(rho(1, 1).real(), 0.995);
}

TEST(DefaultGates, SxPreparesEqualSuperposition) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    const Mat sup = exec.schedule_superop_1q(map.get("sx", {0}), 0);
    const Mat rho = quantum::apply_superop(sup, exec.ground_state_1q());
    // The default sx deliberately carries a few-percent amplitude error
    // (see DefaultGateOptions::sx_amp_relative_error).
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 0.06);
    EXPECT_NEAR(rho(1, 1).real(), 0.5, 0.06);
}

TEST(DefaultGates, DragBetaPositiveForNegativeAnharmonicity) {
    const auto cfg = ibmq_montreal();
    const double beta = default_drag_beta(cfg, 0, 160);
    EXPECT_GT(beta, 0.0);
    EXPECT_LT(beta, 0.2);
    // Shorter pulses need proportionally larger beta.
    EXPECT_GT(default_drag_beta(cfg, 0, 80), beta);
}

/// Conditional target rotation about X of a pair superop, control prepared
/// in |c> and target in |0>: atan2(-<Y>, <Z>) of the target's reduced state.
double conditional_angle(const Mat& superop, int control_state) {
    const Mat rho0 = quantum::ket_to_dm(quantum::basis_ket_bits({control_state, 0}));
    const Mat target = quantum::partial_trace(quantum::apply_superop(superop, rho0), 2, 2, 0);
    const auto bloch = quantum::bloch_vector(target);
    return std::atan2(-bloch.y, bloch.z);
}

TEST(DefaultGates, CxEchoIsCalibratedToZx90) {
    // The default CX is local pre-rotations (the first gate_duration_dt)
    // followed by the calibrated CR echo; the echo's conditional rotations
    // must differ by pi to within the calibration loop's convergence.
    const DefaultGateOptions opts;
    for (const BackendConfig& cfg : {ibmq_montreal(), ibmq_toronto()}) {
        PulseExecutor exec(cfg);
        const pulse::Schedule cx = build_default_gates(exec, opts).get("cx", {0, 1});
        pulse::Schedule echo("cr_echo");
        for (const auto& [t, inst] : cx.instructions()) {
            if (t >= opts.gate_duration_dt && std::holds_alternative<pulse::Play>(inst)) {
                echo.insert(t - opts.gate_duration_dt, inst);
            }
        }
        ASSERT_EQ(echo.total_duration(), opts.cx_duration_dt + 2 * opts.gate_duration_dt);
        const Mat sup = exec.schedule_superop_2q(echo);
        double diff = conditional_angle(sup, 0) - conditional_angle(sup, 1);
        if (diff < 0.0) diff += 2.0 * M_PI;
        EXPECT_LT(std::abs(diff - M_PI), 1e-9) << cfg.name;
    }
}

TEST(DefaultGates, PiAmplitudesPinnedToRecordedBits) {
    // The Rabi sweeps behind the default gates, pinned bit for bit: values
    // recorded when every sweep sample still formed its Pade propagator.
    // The action of the exponential differs from that route by ~1e-14 in
    // P1, which flips no shot, so the fit and every default pulse built on
    // it must come out identical.
    struct Golden {
        BackendConfig cfg;
        double pi_amp[2];
    };
    const Golden goldens[] = {
        {ibmq_montreal(), {0x1.2d07847dc8d8p-3, 0x1.2e9bea84ce727p-3}},
        {ibmq_toronto(), {0x1.2d0dd8160c7ddp-3, 0x1.2ea60675bc32ap-3}},
    };
    const DefaultGateOptions opts;
    for (const Golden& g : goldens) {
        const PulseExecutor exec(g.cfg);
        const auto map = build_default_gates(exec, opts);
        for (std::size_t q = 0; q < 2; ++q) {
            RabiOptions rabi;
            rabi.pulse_duration_dt = opts.gate_duration_dt;
            rabi.shots = opts.calibration_shots;
            rabi.seed = opts.seed + 100 * q;
            EXPECT_EQ(rabi_calibrate(exec, q, rabi).pi_amplitude, g.pi_amp[q])
                << g.cfg.name << " qubit " << q;
            // The x default plays exactly the DRAG pulse of that amplitude.
            const double beta =
                opts.drag_beta_scale * default_drag_beta(g.cfg, q, opts.gate_duration_dt);
            const auto expected = pulse::drag_waveform(opts.gate_duration_dt,
                                                       {g.pi_amp[q], 0.0}, beta,
                                                       opts.drag_sigma_fraction);
            const auto& play =
                std::get<pulse::Play>(map.get("x", {q}).instructions().front().second);
            EXPECT_EQ(play.waveform.samples(), expected.samples())
                << g.cfg.name << " qubit " << q;
        }
    }
}

TEST(DefaultGates, DefaultDurationMatchesIbm) {
    PulseExecutor exec(ibmq_montreal());
    const auto map = build_default_gates(exec);
    EXPECT_EQ(map.get("x", {0}).total_duration(), 160u);  // 160 dt ~ 35.5 ns
}

}  // namespace
}  // namespace qoc::device
