#include "experiments/gate_designer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "control/pulse_shapes.hpp"
#include "linalg/kron.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

namespace qoc::experiments {

namespace {
using control::ControlAmplitudes;
using quantum::drive_x;
using quantum::drive_y;
}  // namespace

pulse::Schedule amps_to_schedule(const ControlAmplitudes& amps, std::size_t ctrl_i,
                                 std::size_t ctrl_q, std::size_t duration_dt,
                                 const pulse::Channel& channel, const std::string& name) {
    const std::size_t n_ts = amps.size();
    std::vector<double> i_slots(n_ts, 0.0), q_slots(n_ts, 0.0);
    for (std::size_t k = 0; k < n_ts; ++k) {
        i_slots[k] = amps[k].at(ctrl_i);
        if (ctrl_q != SIZE_MAX) q_slots[k] = amps[k].at(ctrl_q);
    }
    const auto i_samples = control::resample_zoh(i_slots, duration_dt);
    const auto q_samples = control::resample_zoh(q_slots, duration_dt);
    pulse::Schedule sched(name);
    sched.insert(0, pulse::Play{pulse::iq_waveform(i_samples, q_samples, name, /*clip=*/true),
                                channel});
    return sched;
}

DesignedGate design_1q_gate(const BackendConfig& nominal, std::size_t qubit,
                            const std::string& gate_name, const GateDesignSpec& spec) {
    const auto& q = nominal.qubit(qubit);
    const double evo_time = static_cast<double>(spec.duration_dt) * nominal.dt;
    const double half_omega = 0.5 * q.omega_max;

    control::PulseOptimSpec ps;
    ps.n_timeslots = spec.n_timeslots;
    ps.evo_time = evo_time;
    ps.initial_pulse = spec.seed;
    ps.random_seed = spec.random_seed;
    ps.max_iterations = spec.max_iterations;
    ps.target_fid_err = spec.target_fid_err;
    // Hardware amplitude constraint (paper Section 3.1: amplitudes within
    // +-1); with both quadratures in play the per-quadrature box must fit
    // inside the unit disc.
    const double bound =
        std::min(spec.amp_bound, spec.use_y_control ? 1.0 / std::sqrt(2.0) : 1.0);
    ps.amp_lower = -bound;
    ps.amp_upper = bound;
    // Area-matched seed: scale the envelope so its rotation area equals the
    // target angle.  GRAPE then starts near the physical solution, which
    // both guarantees convergence and keeps the pulse energy minimal.
    const double target_angle =
        2.0 * std::acos(std::min(1.0, 0.5 * std::abs(spec.target.trace())));
    const std::vector<double> env = control::gaussian_pulse(spec.n_timeslots);
    const double env_area =
        control::pulse_area(env, evo_time / static_cast<double>(spec.n_timeslots));
    const double area_scale = target_angle / (q.omega_max * env_area);
    ps.initial_scale = std::min({spec.initial_scale, 0.9 * bound, area_scale});
    ps.energy_penalty = spec.energy_penalty;

    switch (spec.model) {
        case DesignModel::kTwoLevelClosed:
        case DesignModel::kTwoLevelOpen: {
            ps.h_drift = Mat(2, 2);  // rotating frame at nominal frequency
            ps.h_ctrls = {half_omega * drive_x(2)};
            if (spec.use_y_control) ps.h_ctrls.push_back(half_omega * drive_y(2));
            ps.u_target = spec.target;
            if (spec.model == DesignModel::kTwoLevelOpen) {
                // T1 decay channel (the paper's decoherence superoperator
                // L1 = sqrt(gamma1) sigma_-; dephasing from the reported T2).
                ps.collapse_ops.push_back(std::sqrt(1.0 / q.t1) * quantum::sigma_minus());
                const double gphi = std::max(0.0, 1.0 / q.t2 - 0.5 / q.t1);
                if (gphi > 0.0) {
                    ps.collapse_ops.push_back(std::sqrt(gphi / 2.0) * quantum::sigma_z());
                }
            }
            break;
        }
        case DesignModel::kThreeLevelClosed: {
            ps.h_drift = quantum::duffing_drift(3, 0.0, q.anharmonicity);
            ps.h_ctrls = {half_omega * drive_x(3)};
            if (spec.use_y_control) ps.h_ctrls.push_back(half_omega * drive_y(3));
            ps.u_target = spec.target;
            ps.subspace_isometry = quantum::qubit_isometry(3);
            break;
        }
        case DesignModel::kThreeLevelOpen: {
            ps.h_drift = quantum::duffing_drift(3, 0.0, q.anharmonicity);
            ps.h_ctrls = {half_omega * drive_x(3)};
            if (spec.use_y_control) ps.h_ctrls.push_back(half_omega * drive_y(3));
            // TRACEDIFF needs a full-space target with physically reachable
            // sector phases: the SU(2) representative of the gate on the
            // qubit subspace (a resonant drive generates det = +1 rotations,
            // e.g. RX(pi) = -iX rather than X), and on the leakage level the
            // free anharmonic phase e^{-i alpha T} it accumulates anyway.
            const linalg::cplx det2 =
                spec.target(0, 0) * spec.target(1, 1) - spec.target(0, 1) * spec.target(1, 0);
            const linalg::cplx su_phase = std::sqrt(det2);
            Mat target3 = Mat::identity(3);
            target3.set_block(0, 0, (1.0 / su_phase) * spec.target);
            target3(2, 2) = std::exp(linalg::cplx{0.0, -q.anharmonicity * evo_time});
            ps.u_target = target3;
            ps.collapse_ops.push_back(std::sqrt(1.0 / q.t1) * quantum::annihilation(3));
            const double gphi = std::max(0.0, 1.0 / q.t2 - 0.5 / q.t1);
            if (gphi > 0.0) {
                ps.collapse_ops.push_back(std::sqrt(2.0 * gphi) * quantum::number_op(3));
            }
            break;
        }
    }

    DesignedGate out;
    out.gate_name = gate_name;
    out.duration_dt = spec.duration_dt;
    out.optim = control::pulse_optim(ps);
    out.model_fid_err = out.optim.final_fid_err;
    const std::size_t ctrl_q = spec.use_y_control ? 1 : SIZE_MAX;
    out.schedule = amps_to_schedule(out.optim.final_amps, 0, ctrl_q, spec.duration_dt,
                                    pulse::drive_channel(qubit), gate_name + "_optimized");
    return out;
}

DesignedCx design_cx_gate(const BackendConfig& nominal, const CxDesignSpec& spec) {
    using quantum::op_on_qubit;
    using quantum::sigma_x;
    using quantum::sigma_y;
    using quantum::sigma_z;
    namespace g = quantum::gates;

    const double evo_time = static_cast<double>(spec.duration_dt) * nominal.dt;
    const auto& cr = nominal.cr;

    control::PulseOptimSpec ps;
    ps.n_timeslots = spec.n_timeslots;
    ps.evo_time = evo_time;
    ps.initial_pulse = spec.seed;
    ps.initial_scale = spec.initial_scale;
    ps.random_seed = spec.random_seed;
    ps.max_iterations = spec.max_iterations;
    ps.target_fid_err = spec.target_fid_err;
    const double bound = std::min(spec.amp_bound, 1.0 / std::sqrt(2.0));
    ps.amp_lower = -bound;
    ps.amp_upper = bound;
    ps.energy_penalty = spec.energy_penalty;
    ps.u_target = g::cx();

    // Drift: static ZZ (number-number form, matching the executor).
    const Mat n_op{{0.0, 0.0}, {0.0, 1.0}};
    ps.h_drift = cr.zz_static * (op_on_qubit(n_op, 0, 2) * op_on_qubit(n_op, 1, 2));
    if (spec.idealized_controls) {
        // The paper's Eq. 3 keeps the qubit Z terms in the CR drift; without
        // them the {XI, IX, ZX} control algebra cannot synthesize CX at all.
        ps.h_drift += (0.5 * 0.125) * op_on_qubit(quantum::sigma_z(), 0, 2) +
                      (0.5 * 0.100) * op_on_qubit(quantum::sigma_z(), 1, 2);
    }

    const double w0 = 0.5 * nominal.qubit(0).omega_max;
    const double w1 = 0.5 * nominal.qubit(1).omega_max;
    const Mat zx = op_on_qubit(sigma_z(), 0, 2) * op_on_qubit(sigma_x(), 1, 2);
    const Mat zy = op_on_qubit(sigma_z(), 0, 2) * op_on_qubit(sigma_y(), 1, 2);

    if (spec.idealized_controls) {
        // The paper's Eq.-3 reading: XI, IX, ZX as independent control knobs.
        ps.h_ctrls = {w0 * op_on_qubit(sigma_x(), 0, 2), w1 * op_on_qubit(sigma_x(), 1, 2),
                      0.5 * cr.zx_rate * zx};
    } else {
        // Channel-faithful and energy-frugal: drive only U0 (the CR channel,
        // with its ZX + IX + crosstalk mixing) and D1 (target locals).  The
        // control-qubit local rotation that completes CNOT is virtual:
        //   CX = ZX90 . (RZ(-pi/2) (x) RX(-pi/2)),
        // so the pulse target is M = ZX90 . (I (x) RX(-pi/2)) and the
        // schedule carries a ShiftPhase(+pi/2) on D0 for the RZ(-pi/2).
        ps.h_ctrls = {
            w1 * op_on_qubit(sigma_x(), 1, 2),
            w1 * op_on_qubit(sigma_y(), 1, 2),
            0.5 * (cr.zx_rate * zx + cr.ix_rate * op_on_qubit(sigma_x(), 1, 2) +
                   cr.classical_crosstalk * op_on_qubit(sigma_x(), 0, 2)),
            0.5 * (cr.zx_rate * zy + cr.ix_rate * op_on_qubit(sigma_y(), 1, 2) +
                   cr.classical_crosstalk * op_on_qubit(sigma_y(), 0, 2)),
        };
        ps.u_target = g::zx90() * linalg::kron(Mat::identity(2),
                                               g::rx(-std::numbers::pi / 2.0));
        // The target drive D1 only needs small local rotations; capping it
        // tightly keeps the optimizer out of high-power basins it would
        // otherwise use for weak commutator-level crosstalk cancellation.
        const double d1_bound = 0.06;
        ps.amp_lower_per_ctrl = {-d1_bound, -d1_bound, -bound, -bound};
        ps.amp_upper_per_ctrl = {d1_bound, d1_bound, bound, bound};

        // Physically structured seed: an area-matched CR envelope on U0
        // (half-angle pi/4 of ZX) and a small area-matched RX(-pi/2) on D1;
        // quadratures start at zero.  Seeding every control with the same
        // big envelope strands the optimizer in a high-power basin.
        std::vector<double> env;
        switch (spec.seed) {
            case control::InitialPulseType::kSine:
                env = control::sine_pulse(spec.n_timeslots);
                break;
            case control::InitialPulseType::kGaussian:
                env = control::gaussian_pulse(spec.n_timeslots);
                break;
            default:
                env = control::gaussian_square_pulse(spec.n_timeslots);
                break;
        }
        const double slot_dt = evo_time / static_cast<double>(spec.n_timeslots);
        const double env_area = control::pulse_area(env, slot_dt);
        const double u0_amp = (std::numbers::pi / 4.0) / (0.5 * cr.zx_rate * env_area);
        const double d1_amp = (-std::numbers::pi / 4.0) / (0.5 * w1 * env_area);
        control::ControlAmplitudes seed_amps(spec.n_timeslots, std::vector<double>(4, 0.0));
        for (std::size_t k = 0; k < spec.n_timeslots; ++k) {
            seed_amps[k][0] = d1_amp * env[k];  // D1 I
            seed_amps[k][2] = u0_amp * env[k];  // U0 I
        }
        ps.explicit_initial_amps = std::move(seed_amps);
    }

    DesignedCx out;
    out.duration_dt = spec.duration_dt;
    out.optim = control::pulse_optim(ps);
    out.model_fid_err = out.optim.final_fid_err;

    pulse::Schedule sched("cx_optimized");
    if (spec.idealized_controls) {
        // Map XI -> D0, IX -> D1, ZX -> U0 (the hardware approximation the
        // paper had to live with; the U0 channel also produces IX/XI, which
        // is part of why its custom CX barely improved).
        auto d0 = amps_to_schedule(out.optim.final_amps, 0, SIZE_MAX, spec.duration_dt,
                                   pulse::drive_channel(0), "cx_d0");
        auto d1 = amps_to_schedule(out.optim.final_amps, 1, SIZE_MAX, spec.duration_dt,
                                   pulse::drive_channel(1), "cx_d1");
        auto u0 = amps_to_schedule(out.optim.final_amps, 2, SIZE_MAX, spec.duration_dt,
                                   pulse::control_channel(0), "cx_u0");
        for (const auto& [t, inst] : d0.instructions()) sched.insert(t, inst);
        for (const auto& [t, inst] : d1.instructions()) sched.insert(t, inst);
        for (const auto& [t, inst] : u0.instructions()) sched.insert(t, inst);
    } else {
        sched.insert(0, pulse::ShiftPhase{std::numbers::pi / 2.0, pulse::drive_channel(0)});
        auto d1 = amps_to_schedule(out.optim.final_amps, 0, 1, spec.duration_dt,
                                   pulse::drive_channel(1), "cx_d1");
        auto u0 = amps_to_schedule(out.optim.final_amps, 2, 3, spec.duration_dt,
                                   pulse::control_channel(0), "cx_u0");
        for (const auto& [t, inst] : d1.instructions()) sched.insert(t, inst);
        for (const auto& [t, inst] : u0.instructions()) sched.insert(t, inst);
    }
    out.schedule = std::move(sched);
    return out;
}

}  // namespace qoc::experiments
