#include "device/calibration.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/pulse_shapes.hpp"
#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "quantum/states.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

namespace qoc::device {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

double default_drag_beta(const BackendConfig& config, std::size_t qubit,
                         std::size_t duration_dt) {
    // DRAG coefficient in the -1/(2 alpha) convention: Q(t) = -dI/dt/(2 alpha)
    // (the variant that cancels the AC-Stark phase error, which dominates the
    // gate error at these durations; verified optimal on this model by a
    // beta sweep).  The waveform generator's quadrature is normalized to
    // unit peak and the peak of dG/dt for a Gaussian of width sigma is
    // e^{-1/2}/sigma, so beta = e^{-1/2} / (2 sigma_ns |alpha|), positive
    // for the transmon's alpha < 0.
    const double sigma_ns = 0.25 * static_cast<double>(duration_dt) * config.dt;
    const double alpha = config.qubit(qubit).anharmonicity;
    if (alpha == 0.0) return 0.0;
    return std::exp(-0.5) / (2.0 * sigma_ns * std::abs(alpha));
}

namespace {

/// One Rabi sweep: which qubit, with what options.
struct RabiJob {
    std::size_t qubit = 0;
    RabiOptions opts;
};

/// Measures every point of every sweep in `jobs` as one parallel_for over
/// all points of all jobs.  A point propagates vec(rho0) alone: a k = 1
/// block whose amplitude never recurs, so it takes the action of each
/// sample's exponential instead of a shared propagator.  It draws its shots
/// from its own seed `opts.seed + i`, so the results are bitwise independent
/// of the pool size.  Tasks lease their propagation scratch from one pool.
std::vector<RabiResult> rabi_sweeps(const PulseExecutor& device,
                                    const std::vector<RabiJob>& jobs) {
    const std::size_t d = device.config().levels;
    std::vector<RabiResult> results(jobs.size());
    std::vector<std::pair<std::size_t, std::size_t>> points;  // (job, sweep index)
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const RabiOptions& opts = jobs[j].opts;
        results[j].sweep_amps.resize(opts.n_points);
        results[j].sweep_p1.resize(opts.n_points);
        for (std::size_t i = 0; i < opts.n_points; ++i) {
            results[j].sweep_amps[i] = opts.max_amplitude * static_cast<double>(i + 1) /
                                       static_cast<double>(opts.n_points);
            points.emplace_back(j, i);
        }
    }
    const Mat vec_rho0 = linalg::vec(device.ground_state_1q());
    runtime::WorkspacePool<PropagationWorkspace> workspaces;
    runtime::TaskPool::global().parallel_for(0, points.size(), [&](std::size_t p) {
        const auto [j, i] = points[p];
        const RabiJob& job = jobs[j];
        const double beta =
            default_drag_beta(device.config(), job.qubit, job.opts.pulse_duration_dt);
        const auto wf = pulse::drag_waveform(job.opts.pulse_duration_dt,
                                             {results[j].sweep_amps[i], 0.0}, beta);
        Mat state = vec_rho0;
        const auto lease = workspaces.acquire();
        device.propagate_1q(wf.samples(), job.qubit, state, *lease, PropagatorReuse::kNone);
        const Counts c = device.measure_1q(linalg::unvec(state, d), job.qubit, job.opts.shots,
                                           job.opts.seed + i);
        results[j].sweep_p1[i] = c.probability("1");
    });
    return results;
}

/// Fits P1(amp) = A cos(2 pi f amp + phi) + B to a measured sweep and fills
/// in the pi amplitude.
void fit_rabi(const BackendConfig& cfg, std::size_t qubit, const RabiOptions& opts,
              RabiResult& result) {
    // Expected oscillation frequency from the nominal model: rotation angle
    // theta(amp) = amp * Omega_max * gaussian_area, P1 = (1 - cos theta)/2.
    const double area_ns =
        control::pulse_area(control::gaussian_pulse(opts.pulse_duration_dt), cfg.dt);
    const double rad_per_amp = cfg.qubit(qubit).omega_max * area_ns;
    const double f0 = rad_per_amp / kTwoPi;

    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::cos(kTwoPi * p[1] * result.sweep_amps[i] + p[2]) + p[3];
    };
    const auto fit = optim::levmar_fit(model, opts.n_points, result.sweep_p1,
                                       {-0.5, f0, 0.0, 0.5});
    result.fit_frequency = fit.params[1];
    // First maximum of P1: cos(2 pi f a + phi) = -1 -> a = (pi - phi)/(2 pi f).
    result.pi_amplitude = (std::numbers::pi - fit.params[2]) / (kTwoPi * fit.params[1]);
    // Propagate frequency + phase uncertainty to the amplitude.
    const double df = fit.stderrs[1], dphi = fit.stderrs[2];
    result.fit_stderr = std::abs(result.pi_amplitude) *
                            std::sqrt(std::pow(df / fit.params[1], 2)) +
                        dphi / (kTwoPi * fit.params[1]);
    if (!(result.pi_amplitude > 0.0) || result.pi_amplitude > 1.0) {
        throw std::runtime_error("rabi_calibrate: calibration failed (pi amplitude " +
                                 std::to_string(result.pi_amplitude) + ")");
    }
}

/// Conditional target-rotation angle about X read off column `control_state`
/// of a propagated 16 x 2 block, whose columns start as vec(|c 0><c 0|) for
/// c = 0, 1: theta = atan2(-<Y>, <Z>) of the target's reduced state.
double conditional_angle(const Mat& block, std::size_t control_state) {
    const Mat rho = linalg::unvec(block.col(control_state), 4);
    const Mat target = quantum::partial_trace(rho, 2, 2, 0);
    const auto bloch = quantum::bloch_vector(target);
    return std::atan2(-bloch.y, bloch.z);
}

}  // namespace

RabiResult rabi_calibrate(const PulseExecutor& device, std::size_t qubit,
                          const RabiOptions& opts) {
    obs::Span span("device.rabi_calibrate");
    RabiResult result = std::move(rabi_sweeps(device, {{qubit, opts}}).front());
    fit_rabi(device.config(), qubit, opts, result);
    return result;
}

pulse::InstructionScheduleMap build_default_gates(const PulseExecutor& device,
                                                  const DefaultGateOptions& opts) {
    obs::Span span("device.build_default_gates");
    const BackendConfig& cfg = device.config();
    pulse::InstructionScheduleMap map;

    // --- single-qubit defaults: Rabi-calibrated DRAG x and sx ---------------
    // The sweeps of all qubits run as one fan-out of their points.
    std::vector<RabiJob> jobs(cfg.qubits.size());
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        jobs[q].qubit = q;
        jobs[q].opts.pulse_duration_dt = opts.gate_duration_dt;
        jobs[q].opts.shots = opts.calibration_shots;
        jobs[q].opts.seed = opts.seed + 100 * q;
    }
    std::vector<RabiResult> rabis;
    {
        obs::Span rabi_span("device.rabi_calibrate");
        rabis = rabi_sweeps(device, jobs);
        for (std::size_t q = 0; q < jobs.size(); ++q) fit_rabi(cfg, q, jobs[q].opts, rabis[q]);
    }
    std::vector<double> pi_amp(cfg.qubits.size(), 0.0);
    for (std::size_t q = 0; q < cfg.qubits.size(); ++q) {
        const RabiResult& rabi = rabis[q];
        pi_amp[q] = rabi.pi_amplitude;
        const double beta =
            opts.drag_beta_scale * default_drag_beta(cfg, q, opts.gate_duration_dt);

        pulse::Schedule x_sched("x_d" + std::to_string(q));
        x_sched.insert(0, pulse::Play{pulse::drag_waveform(opts.gate_duration_dt,
                                                           {rabi.pi_amplitude, 0.0}, beta,
                                                           opts.drag_sigma_fraction),
                                      pulse::drive_channel(q)});
        map.add("x", {q}, x_sched);

        const double sx_amp =
            0.5 * rabi.pi_amplitude * (1.0 + opts.sx_amp_relative_error);
        pulse::Schedule sx_sched("sx_d" + std::to_string(q));
        sx_sched.insert(0, pulse::Play{pulse::drag_waveform(opts.gate_duration_dt,
                                                            {sx_amp, 0.0}, beta,
                                                            opts.drag_sigma_fraction),
                                       pulse::drive_channel(q)});
        map.add("sx", {q}, sx_sched);
    }

    // --- two-qubit default: calibrated echoed-CR CX -------------------------
    // The echo  CR(+u) . X0 . CR(-u) . X0  cancels the IX and classical-
    // crosstalk terms and doubles ZX, leaving (ideally) exp(-i Theta ZX)
    // with Theta = zx_rate * u * area_half.  CX then follows from
    // CX = ZX90 * (RZ(-pi/2) (x) RX(-pi/2)) up to global phase.
    if (cfg.qubits.size() >= 2) {
        const std::size_t half_dt = opts.cx_duration_dt / 2;
        const double area_half_ns = control::pulse_area(
            control::gaussian_square_pulse(half_dt, opts.cx_width_fraction), cfg.dt);
        double u_amp = (std::numbers::pi / 4.0) / (cfg.cr.zx_rate * area_half_ns);
        if (u_amp > 0.95) {
            throw std::runtime_error("build_default_gates: CR pulse too short for ZX90");
        }
        const double beta0 =
            opts.drag_beta_scale * default_drag_beta(cfg, 0, opts.gate_duration_dt);
        const double beta1 =
            opts.drag_beta_scale * default_drag_beta(cfg, 1, opts.gate_duration_dt);
        const std::size_t xdur = opts.gate_duration_dt;

        auto build_echo = [&](double u) {
            pulse::Schedule echo("cr_echo");
            std::size_t t = 0;
            echo.insert(t, pulse::Play{pulse::gaussian_square_waveform(
                                           half_dt, {u, 0.0}, opts.cx_width_fraction),
                                       pulse::control_channel(0)});
            t += half_dt;
            echo.insert(t, pulse::Play{pulse::drag_waveform(xdur, {pi_amp[0], 0.0}, beta0,
                                                            opts.drag_sigma_fraction),
                                       pulse::drive_channel(0)});
            t += xdur;
            echo.insert(t, pulse::Play{pulse::gaussian_square_waveform(
                                           half_dt, {-u, 0.0}, opts.cx_width_fraction),
                                       pulse::control_channel(0)});
            t += half_dt;
            echo.insert(t, pulse::Play{pulse::drag_waveform(xdur, {pi_amp[0], 0.0}, beta0,
                                                            opts.drag_sigma_fraction),
                                       pulse::drive_channel(0)});
            return echo;
        };

        // Calibrate u so the conditional-rotation difference is pi (ZX90).
        // Only the two states conditional_angle reads are propagated: control
        // in |0> and |1>, target in |0> (a 16 x 2 block).  The echo's X
        // pulses recur every iteration, so they go through the cache.
        {
            obs::Span cx_span("device.cx_calibrate");
            Mat start(16, 2);
            for (std::size_t c = 0; c < 2; ++c) {
                start.set_block(0, c, linalg::vec(quantum::ket_to_dm(quantum::basis_ket_bits(
                                          {static_cast<int>(c), 0}))));
            }
            PropagationWorkspace ws;
            Mat block;
            for (int iter = 0; iter < 4; ++iter) {
                const pulse::Schedule echo = build_echo(u_amp);
                const std::size_t n_dt = echo.total_duration();
                block = start;
                device.propagate_2q(echo.channel_samples(pulse::drive_channel(0), n_dt),
                                    echo.channel_samples(pulse::drive_channel(1), n_dt),
                                    echo.channel_samples(pulse::control_channel(0), n_dt),
                                    block, ws, PropagatorReuse::kShared);
                double diff = conditional_angle(block, 0) - conditional_angle(block, 1);
                // Unwrap into (0, 2 pi) -- the physical angle grows with u.
                if (diff < 0.0) diff += 2.0 * std::numbers::pi;
                if (std::abs(diff - std::numbers::pi) < 1e-12) break;
                u_amp = std::min(u_amp * std::numbers::pi / diff, 0.95);
            }
        }

        pulse::Schedule cx("cx_default_echo_cr");
        // Local pre-rotations: RZ(-pi/2) on control (virtual), RX(-pi/2) on
        // target (negative-amplitude half-pi DRAG).
        cx.insert(0, pulse::ShiftPhase{std::numbers::pi / 2.0, pulse::drive_channel(0)});
        cx.insert(0, pulse::Play{pulse::drag_waveform(xdur, {-0.5 * pi_amp[1], 0.0}, beta1,
                                                      opts.drag_sigma_fraction),
                                 pulse::drive_channel(1)});
        const pulse::Schedule echo = build_echo(u_amp);
        for (const auto& [t, inst] : echo.instructions()) cx.insert(xdur + t, inst);
        map.add("cx", {0, 1}, cx);
    }
    return map;
}

}  // namespace qoc::device
