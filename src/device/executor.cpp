#include "device/executor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "util/fnv1a.hpp"

namespace qoc::device {

namespace {
using linalg::cplx;
using quantum::annihilation;
using quantum::number_op;
constexpr cplx kI{0.0, 1.0};

/// Pure-dephasing rate from T1/T2: 1/T2 = 1/(2 T1) + Gamma_phi.
double dephasing_rate(double t1, double t2) {
    return std::max(0.0, 1.0 / t2 - 0.5 / t1);
}

/// Tag distinguishing two-qubit keys from per-qubit 1q keys in the shared
/// propagator cache (1q keys use the qubit index itself).
constexpr std::uint64_t kKey2q = ~std::uint64_t{0};

/// Entry cap for the propagator cache.  Only kShared streams fill it: the
/// default x/sx/cx superops, the CX calibration's echo (whose X pulses recur
/// every iteration) and designed pulses under IRB -- about 1,700 entries per
/// executor on the paper tables.  kNone streams (the Rabi sweep's state
/// propagation) never form a propagator to publish.  The cap only guards
/// pathological waveforms (past it, propagators are computed but not
/// published, so references already handed out stay valid).
constexpr std::size_t kPropCacheMax = 8192;

std::uint64_t sample_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `y += a x` over all entries (shapes must agree).
void axpy(Mat& y, double a, const Mat& x) {
    cplx* yd = y.data().data();
    const cplx* xd = x.data().data();
    for (std::size_t i = 0, n = y.data().size(); i < n; ++i) yd[i] += a * xd[i];
}
}  // namespace

std::size_t PulseExecutor::PropKeyHash::operator()(const PropKey& k) const {
    return static_cast<std::size_t>(util::fnv1a_words(k.w.data(), k.w.size()));
}

double Counts::probability(const std::string& bitstring) const {
    const auto it = histogram.find(bitstring);
    if (it == histogram.end() || shots == 0) return 0.0;
    return static_cast<double>(it->second) / static_cast<double>(shots);
}

PulseExecutor::PulseExecutor(BackendConfig config) : config_(std::move(config)) {
    if (config_.qubits.empty()) throw std::invalid_argument("PulseExecutor: no qubits");
    const double dt = config_.dt;

    // The drive-amplitude-noise dissipator of a drive H_q = x Hx + y Hy with
    // rate eta is eta D[x Hx + y Hy] = eta (x^2 D[Hx] + y^2 D[Hy] + x y Dxy),
    // Dxy = D[Hx + Hy] - D[Hx] - D[Hy]: quadratic in the sample.
    auto noise_terms = [dt](std::size_t coord, double eta, const Mat& hx, const Mat& hy) {
        AffineGenerator::Noise n;
        n.coord = coord;
        const Mat dx = quantum::lindblad_dissipator(hx);
        const Mat dy = quantum::lindblad_dissipator(hy);
        n.xy = (dt * eta) * (quantum::lindblad_dissipator(hx + hy) - dx - dy);
        n.xx = (dt * eta) * dx;
        n.yy = (dt * eta) * dy;
        return n;
    };

    // Single qubit, `levels`-dim Duffing transmon:
    //   H = alpha n(n-1)/2 + delta n + x Hx + y Hy,  s = x + i y,
    //   Hx = c (a^dag + a),  Hy = i c (a^dag - a),  c = Omega_max amp_scale / 2.
    const std::size_t d = config_.levels;
    const Mat a = annihilation(d);
    const Mat n_op = number_op(d);
    Mat anharm(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        const double n = static_cast<double>(k);
        anharm(k, k) = cplx{0.5 * n * (n - 1.0), 0.0};
    }
    for (const QubitParams& p : config_.qubits) {
        const Mat h0 = p.anharmonicity * anharm + p.detuning * n_op;
        std::vector<Mat> collapse{std::sqrt(1.0 / p.t1) * a};
        const double gphi = dephasing_rate(p.t1, p.t2);
        if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * n_op);
        const double c = 0.5 * p.omega_max * p.amp_scale;
        const Mat hx = c * (a.adjoint() + a);
        const Mat hy = (kI * c) * (a.adjoint() - a);

        AffineGenerator g;
        g.l0 = dt * quantum::liouvillian(h0, collapse);
        g.linear = {dt * quantum::liouvillian_hamiltonian(hx),
                    dt * quantum::liouvillian_hamiltonian(hy)};
        if (p.drive_amp_noise > 0.0) g.noise.push_back(noise_terms(0, p.drive_amp_noise, hx, hy));
        g.record_norms();
        gen_1q_.push_back(std::move(g));
    }

    // Two-qubit pair model (2 levels each), coordinates (D0, D1, U0):
    //   H = delta_0 n_0 + delta_1 n_1 + zz n_0 n_1
    //     + sum_q (rate_q / 2)(x_q X_q + y_q Y_q)
    //     + (x_u, y_u) . (zx ZX + ix IX + crosstalk XI, the same with Y) / 2.
    // The CR drive phase rotates the target axis X -> Y (paper Eq. 3).
    if (config_.qubits.size() >= 2) {
        using quantum::op_on_qubit;
        using quantum::sigma_x;
        using quantum::sigma_y;
        using quantum::sigma_z;
        const Mat n_q = Mat{{0.0, 0.0}, {0.0, 1.0}};
        const Mat n0 = op_on_qubit(n_q, 0, 2);
        const Mat n1 = op_on_qubit(n_q, 1, 2);
        const Mat h_static = config_.qubit(0).detuning * n0 + config_.qubit(1).detuning * n1 +
                             config_.cr.zz_static * (n0 * n1);
        std::vector<Mat> collapse;
        for (std::size_t q = 0; q < 2; ++q) {
            const auto& p = config_.qubit(q);
            collapse.push_back(std::sqrt(1.0 / p.t1) * op_on_qubit(quantum::sigma_minus(), q, 2));
            const double gphi = dephasing_rate(p.t1, p.t2);
            if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * op_on_qubit(n_q, q, 2));
        }
        gen_2q_.l0 = dt * quantum::liouvillian(h_static, collapse);
        for (std::size_t q = 0; q < 2; ++q) {
            const auto& p = config_.qubit(q);
            const double half_rate = 0.5 * p.omega_max * p.amp_scale;
            const Mat hx = half_rate * op_on_qubit(sigma_x(), q, 2);
            const Mat hy = half_rate * op_on_qubit(sigma_y(), q, 2);
            gen_2q_.linear.push_back(dt * quantum::liouvillian_hamiltonian(hx));
            gen_2q_.linear.push_back(dt * quantum::liouvillian_hamiltonian(hy));
            if (p.drive_amp_noise > 0.0) {
                gen_2q_.noise.push_back(noise_terms(2 * q, p.drive_amp_noise, hx, hy));
            }
        }
        const auto& cr = config_.cr;
        for (const Mat& axis : {sigma_x(), sigma_y()}) {
            const Mat hu = (0.5 * cr.zx_rate) * linalg::kron(sigma_z(), axis) +
                           (0.5 * cr.ix_rate) * op_on_qubit(axis, 1, 2) +
                           (0.5 * cr.classical_crosstalk) * op_on_qubit(axis, 0, 2);
            gen_2q_.linear.push_back(dt * quantum::liouvillian_hamiltonian(hu));
        }
        gen_2q_.record_norms();
    }
}

void PulseExecutor::AffineGenerator::record_norms() {
    l0_norm = l0.norm_1();
    linear_norm.clear();
    for (const Mat& l : linear) linear_norm.push_back(l.norm_1());
    for (Noise& n : noise) {
        n.xx_norm = n.xx.norm_1();
        n.yy_norm = n.yy.norm_1();
        n.xy_norm = n.xy.norm_1();
    }
}

double PulseExecutor::AffineGenerator::norm_bound(const std::array<double, 6>& x) const {
    double bound = l0_norm;
    for (std::size_t k = 0; k < linear.size(); ++k) bound += std::abs(x[k]) * linear_norm[k];
    for (const Noise& n : noise) {
        const double xq = x[n.coord], yq = x[n.coord + 1];
        bound += xq * xq * n.xx_norm + yq * yq * n.yy_norm + std::abs(xq * yq) * n.xy_norm;
    }
    return bound;
}

void PulseExecutor::AffineGenerator::evaluate_into(const std::array<double, 6>& x,
                                                   Mat& out) const {
    out = l0;  // copy-assign: no allocation on shape reuse
    for (std::size_t k = 0; k < linear.size(); ++k) {
        if (x[k] != 0.0) axpy(out, x[k], linear[k]);
    }
    for (const Noise& n : noise) {
        const double xq = x[n.coord], yq = x[n.coord + 1];
        if (xq != 0.0) axpy(out, xq * xq, n.xx);
        if (yq != 0.0) axpy(out, yq * yq, n.yy);
        if (xq != 0.0 && yq != 0.0) axpy(out, xq * yq, n.xy);
    }
}

Mat PulseExecutor::sample_generator_1q(std::complex<double> sample, std::size_t qubit) const {
    Mat out;
    gen_1q_.at(qubit).evaluate_into({sample.real(), sample.imag(), 0.0, 0.0, 0.0, 0.0}, out);
    return out;
}

Mat PulseExecutor::sample_generator_2q(std::complex<double> d0, std::complex<double> d1,
                                       std::complex<double> u0) const {
    if (gen_2q_.linear.empty()) throw std::logic_error("sample_generator_2q: single-qubit device");
    Mat out;
    gen_2q_.evaluate_into({d0.real(), d0.imag(), d1.real(), d1.imag(), u0.real(), u0.imag()},
                          out);
    return out;
}

const Mat& PulseExecutor::sample_propagator(const AffineGenerator& gen, std::uint64_t tag,
                                            const std::array<double, 6>& x,
                                            PropagationWorkspace& ws,
                                            PropagatorReuse reuse) const {
    const bool shared = reuse == PropagatorReuse::kShared;
    const PropKey key{{tag, sample_bits(x[0]), sample_bits(x[1]), sample_bits(x[2]),
                       sample_bits(x[3]), sample_bits(x[4]), sample_bits(x[5])}};
    if (shared) {
        {
            std::lock_guard<std::mutex> lock(prop_cache_mutex_);
            const auto it = prop_cache_.find(key);
            if (it != prop_cache_.end()) {
                obs::count(obs::Cnt::kPropCacheHits);
                return it->second;
            }
        }
        obs::count(obs::Cnt::kPropCacheMisses);
    }
    // Computed outside the lock; two threads racing on the same key produce
    // bitwise-identical matrices, so whichever insert wins is
    // indistinguishable.
    gen.evaluate_into(x, ws.gen);
    linalg::expm_into(ws.gen, ws.prop, ws.expm);
    if (!shared) return ws.prop;
    std::lock_guard<std::mutex> lock(prop_cache_mutex_);
    if (prop_cache_.size() >= kPropCacheMax) return ws.prop;
    const Mat& inserted = prop_cache_.try_emplace(key, ws.prop).first->second;
    obs::set_gauge("executor.prop_cache.entries", static_cast<double>(prop_cache_.size()));
    return inserted;
}

void PulseExecutor::propagate(const AffineGenerator& gen, std::uint64_t tag,
                              std::span<const std::vector<std::complex<double>>* const> streams,
                              Mat& block, PropagationWorkspace& ws,
                              PropagatorReuse reuse) const {
    std::size_t n = 0;
    for (const auto* s : streams) n = std::max(n, s->size());
    std::array<double, 6> x{}, prev{};
    auto coordinates = [&](std::size_t t) {
        for (std::size_t c = 0; c < streams.size(); ++c) {
            const auto& s = *streams[c];
            const cplx v = t < s.size() ? s[t] : cplx{};
            x[2 * c] = v.real();
            x[2 * c + 1] = v.imag();
        }
    };
    if (reuse == PropagatorReuse::kNone && block.cols() <= kActionMaxCols) {
        // Action route: one (m, s) for the stream, from the largest bound.
        double bound = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            coordinates(t);
            bound = std::max(bound, gen.norm_bound(x));
        }
        const linalg::TaylorDegree deg = linalg::expm_action_degree(bound);
        for (std::size_t t = 0; t < n; ++t) {
            coordinates(t);
            if (t == 0 || x != prev) {
                gen.evaluate_into(x, ws.gen);
                prev = x;
            }
            linalg::expm_action_into(ws.gen, deg, block, ws.action);
        }
        return;
    }
    const Mat* prop = nullptr;
    for (std::size_t t = 0; t < n; ++t) {
        coordinates(t);
        // Flat-top and piecewise-constant stretches repeat a sample: reuse
        // the propagator without a lookup.
        if (prop == nullptr || x != prev) {
            prop = &sample_propagator(gen, tag, x, ws, reuse);
            prev = x;
        }
        linalg::gemm_into(*prop, block, ws.next);
        std::swap(block, ws.next);
    }
}

void PulseExecutor::propagate_1q(const std::vector<std::complex<double>>& samples,
                                 std::size_t qubit, Mat& block, PropagationWorkspace& ws,
                                 PropagatorReuse reuse) const {
    const std::vector<std::complex<double>>* streams[] = {&samples};
    propagate(gen_1q_.at(qubit), static_cast<std::uint64_t>(qubit), streams, block, ws, reuse);
}

void PulseExecutor::propagate_2q(const std::vector<std::complex<double>>& d0,
                                 const std::vector<std::complex<double>>& d1,
                                 const std::vector<std::complex<double>>& u0, Mat& block,
                                 PropagationWorkspace& ws, PropagatorReuse reuse) const {
    if (gen_2q_.linear.empty()) throw std::logic_error("propagate_2q: single-qubit device");
    const std::vector<std::complex<double>>* streams[] = {&d0, &d1, &u0};
    propagate(gen_2q_, kKey2q, streams, block, ws, reuse);
}

Mat PulseExecutor::waveform_superop_1q(const std::vector<std::complex<double>>& samples,
                                       std::size_t qubit) const {
    Mat total = Mat::identity(config_.levels * config_.levels);
    PropagationWorkspace ws;
    propagate_1q(samples, qubit, total, ws, PropagatorReuse::kShared);
    return total;
}

namespace {
/// Net ShiftPhase accumulated on a channel over a whole schedule.
double net_frame_phase(const pulse::Schedule& sched, const pulse::Channel& ch) {
    double phase = 0.0;
    for (const auto& [t0, inst] : sched.instructions()) {
        if (const auto* sp = std::get_if<pulse::ShiftPhase>(&inst)) {
            if (sp->channel == ch) phase += sp->phase;
        }
    }
    return phase;
}
}  // namespace

Mat PulseExecutor::schedule_superop_1q(const pulse::Schedule& sched, std::size_t qubit) const {
    obs::Span span("executor.schedule_superop_1q");
    const std::size_t n_dt = sched.total_duration();
    const auto samples = sched.channel_samples(pulse::drive_channel(qubit), n_dt);
    Mat total = waveform_superop_1q(samples, qubit);
    // Virtual-Z bookkeeping: a net frame shift phi is equivalent to the gate
    // F(phi) U F(-phi) followed by carrying phi forward; closing the frame
    // makes the schedule's action equal the intended circuit unitary:
    // U_circuit = F(phi)^dag U_sched, with F(phi) = e^{i phi n}.
    const double phi = net_frame_phase(sched, pulse::drive_channel(qubit));
    if (phi != 0.0) total = rz_superop_1q(-phi) * total;
    // Lindblad propagation (Eq. 1) composed over the waveform must stay a
    // trace-preserving channel; tolerance absorbs the per-sample roundoff
    // accumulated across long schedules.
    contracts::check_trace_preserving(total, "schedule_superop_1q", 1e-7);
    return total;
}

Mat PulseExecutor::idle_superop_1q(std::size_t duration_dt, std::size_t qubit) const {
    return linalg::expm(static_cast<double>(duration_dt) * sample_generator_1q({}, qubit));
}

Mat PulseExecutor::rz_superop_1q(double theta) const {
    const std::size_t d = config_.levels;
    Mat u(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        u(k, k) = std::exp(kI * (theta * static_cast<double>(k)));
    }
    return quantum::unitary_superop(u);
}

Mat PulseExecutor::layer_superop_2q(const std::vector<std::complex<double>>& d0,
                                    const std::vector<std::complex<double>>& d1,
                                    const std::vector<std::complex<double>>& u0) const {
    Mat total = Mat::identity(16);
    PropagationWorkspace ws;
    propagate_2q(d0, d1, u0, total, ws, PropagatorReuse::kShared);
    return total;
}

Mat PulseExecutor::schedule_superop_2q(const pulse::Schedule& sched) const {
    obs::Span span("executor.schedule_superop_2q");
    const std::size_t n_dt = sched.total_duration();
    Mat total = layer_superop_2q(sched.channel_samples(pulse::drive_channel(0), n_dt),
                                 sched.channel_samples(pulse::drive_channel(1), n_dt),
                                 sched.channel_samples(pulse::control_channel(0), n_dt));
    // Close the virtual-Z frames of both qubits (see schedule_superop_1q).
    for (std::size_t q = 0; q < 2; ++q) {
        const double phi = net_frame_phase(sched, pulse::drive_channel(q));
        if (phi != 0.0) total = rz_superop_2q(-phi, q) * total;
    }
    contracts::check_trace_preserving(total, "schedule_superop_2q", 1e-7);
    return total;
}

Mat PulseExecutor::idle_superop_2q(std::size_t duration_dt) const {
    return linalg::expm(static_cast<double>(duration_dt) * sample_generator_2q({}, {}, {}));
}

Mat PulseExecutor::rz_superop_2q(double theta, std::size_t qubit) const {
    Mat u(2, 2);
    u(0, 0) = 1.0;
    u(1, 1) = std::exp(kI * theta);
    return quantum::unitary_superop(quantum::op_on_qubit(u, qubit, 2));
}

Mat PulseExecutor::ground_state_1q() const {
    return quantum::ket_to_dm(quantum::basis_ket(config_.levels, 0));
}

Mat PulseExecutor::ground_state_2q() const {
    return quantum::ket_to_dm(quantum::basis_ket(4, 0));
}

double PulseExecutor::p1_after_readout(const Mat& rho, std::size_t qubit) const {
    const auto& p = config_.qubit(qubit);
    double p1 = 0.0;
    for (std::size_t k = 1; k < rho.rows(); ++k) p1 += rho(k, k).real();  // leakage reads "1"
    const double p0 = 1.0 - p1;
    return p1 * (1.0 - p.readout_p01) + p0 * p.readout_p10;
}

double PulseExecutor::p1_after_readout_vec(const Mat& vec_rho, std::size_t qubit) const {
    // Column-stacking vec puts rho(k, k) at index k * (d + 1); same summation
    // order as p1_after_readout, so the result is bitwise identical.
    const std::size_t d = config_.levels;
    if (vec_rho.cols() != 1 || vec_rho.rows() != d * d) {
        throw std::invalid_argument("p1_after_readout_vec: expected levels^2 x 1 vector");
    }
    const auto& p = config_.qubit(qubit);
    double p1 = 0.0;
    for (std::size_t k = 1; k < d; ++k) p1 += vec_rho(k * (d + 1), 0).real();
    const double p0 = 1.0 - p1;
    return p1 * (1.0 - p.readout_p01) + p0 * p.readout_p10;
}

Counts PulseExecutor::measure_1q(const Mat& rho, std::size_t qubit, int shots,
                                 std::uint64_t seed) const {
    const double p1 = p1_after_readout(rho, qubit);
    std::mt19937_64 rng(seed);
    std::binomial_distribution<int> binom(shots, p1);
    const int ones = binom(rng);
    Counts c;
    c.shots = shots;
    if (ones > 0) c.histogram["1"] = ones;
    if (shots - ones > 0) c.histogram["0"] = shots - ones;
    return c;
}

Counts PulseExecutor::measure_2q(const Mat& rho, int shots, std::uint64_t seed) const {
    // True populations over |q0 q1>.
    std::array<double, 4> true_p{};
    for (std::size_t k = 0; k < 4; ++k) true_p[k] = std::max(0.0, rho(k, k).real());
    return measure_2q_populations(true_p, shots, seed);
}

Counts PulseExecutor::measure_2q_vec(const Mat& vec_rho, int shots, std::uint64_t seed) const {
    if (vec_rho.cols() != 1 || vec_rho.rows() != 16) {
        throw std::invalid_argument("measure_2q_vec: expected 16 x 1 vector");
    }
    std::array<double, 4> true_p{};
    for (std::size_t k = 0; k < 4; ++k) {
        true_p[k] = std::max(0.0, vec_rho(k * 5, 0).real());  // vec diagonal
    }
    return measure_2q_populations(true_p, shots, seed);
}

Counts PulseExecutor::measure_2q_populations(const std::array<double, 4>& true_p, int shots,
                                             std::uint64_t seed) const {
    double norm = true_p[0] + true_p[1] + true_p[2] + true_p[3];
    if (norm <= 0.0) norm = 1.0;

    // Per-qubit confusion applied independently.
    auto flip = [&](std::size_t q, int read, int truth) {
        const auto& p = config_.qubit(q);
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
    std::array<int, 4> tally{};
    for (int s = 0; s < shots; ++s) ++tally[static_cast<std::size_t>(dist(rng))];
    Counts c;
    c.shots = shots;
    // Only drawn outcomes get a key, as in a histogram filled shot by shot.
    static const char* labels[4] = {"00", "01", "10", "11"};
    for (std::size_t k = 0; k < 4; ++k) {
        if (tally[k] > 0) c.histogram.emplace(labels[k], tally[k]);
    }
    return c;
}

namespace {

/// Gate-level composition of a 1-qubit circuit into a total superoperator.
Mat compose_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                       const pulse::InstructionScheduleMap& defaults, std::size_t qubit) {
    const std::size_t d2 = exec.config().levels * exec.config().levels;
    Mat total = Mat::identity(d2);
    std::map<std::string, Mat> cache;

    auto apply_gate = [&](const pulse::GateOp& op, auto&& self) -> void {
        if (op.name == "rz") {
            total = exec.rz_superop_1q(*op.param) * total;
            return;
        }
        const std::string key = op.name;
        if (circuit.calibrations().has(op.name, op.qubits)) {
            auto it = cache.find("cal:" + key);
            if (it == cache.end()) {
                it = cache.emplace("cal:" + key,
                                   exec.schedule_superop_1q(
                                       circuit.calibrations().get(op.name, op.qubits), qubit))
                         .first;
            }
            total = it->second * total;
            return;
        }
        if (defaults.has(op.name, op.qubits)) {
            auto it = cache.find("def:" + key);
            if (it == cache.end()) {
                it = cache.emplace("def:" + key,
                                   exec.schedule_superop_1q(defaults.get(op.name, op.qubits),
                                                            qubit))
                         .first;
            }
            total = it->second * total;
            return;
        }
        if (op.name == "h") {
            self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
            self(pulse::GateOp{"sx", op.qubits, std::nullopt}, self);
            self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
            return;
        }
        throw std::runtime_error("run_circuit_1q: no schedule for gate '" + op.name + "'");
    };

    for (const auto& op : circuit.ops()) apply_gate(op, apply_gate);
    return total;
}

Mat compose_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                       const pulse::InstructionScheduleMap& defaults) {
    Mat total = Mat::identity(16);
    std::map<std::string, Mat> cache;

    auto schedule_for = [&](const pulse::GateOp& op) -> const pulse::Schedule& {
        if (circuit.calibrations().has(op.name, op.qubits)) {
            return circuit.calibrations().get(op.name, op.qubits);
        }
        return defaults.get(op.name, op.qubits);
    };

    auto apply_gate = [&](const pulse::GateOp& op, auto&& self) -> void {
        if (op.name == "rz") {
            total = exec.rz_superop_2q(*op.param, op.qubits[0]) * total;
            return;
        }
        const bool is_cal = circuit.calibrations().has(op.name, op.qubits);
        if (!is_cal && !defaults.has(op.name, op.qubits)) {
            if (op.name == "h") {
                self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
                self(pulse::GateOp{"sx", op.qubits, std::nullopt}, self);
                self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
                return;
            }
            throw std::runtime_error("run_circuit_2q: no schedule for gate '" + op.name + "'");
        }
        std::string key = (is_cal ? "cal:" : "def:") + op.name + ":q";
        for (auto q : op.qubits) key += std::to_string(q);
        auto it = cache.find(key);
        if (it == cache.end()) {
            const pulse::Schedule& sched = schedule_for(op);
            Mat sup(16, 16);
            if (op.qubits.size() == 2) {
                sup = exec.schedule_superop_2q(sched);
            } else {
                // Single-qubit gate on one side of the pair: drive that
                // qubit's channel; the other qubit idles (decoheres).
                const std::size_t n_dt = sched.total_duration();
                const std::vector<std::complex<double>> zeros(n_dt, {0.0, 0.0});
                const auto samples =
                    sched.channel_samples(pulse::drive_channel(op.qubits[0]), n_dt);
                sup = (op.qubits[0] == 0) ? exec.layer_superop_2q(samples, zeros, zeros)
                                          : exec.layer_superop_2q(zeros, samples, zeros);
            }
            it = cache.emplace(std::move(key), std::move(sup)).first;
        }
        total = it->second * total;
    };

    for (const auto& op : circuit.ops()) apply_gate(op, apply_gate);
    return total;
}

}  // namespace

Mat simulate_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults, std::size_t qubit) {
    const Mat total = compose_circuit_1q(exec, circuit, defaults, qubit);
    return quantum::apply_superop(total, exec.ground_state_1q());
}

Counts run_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, std::size_t qubit,
                      int shots, std::uint64_t seed) {
    const Mat rho = simulate_circuit_1q(exec, circuit, defaults, qubit);
    return exec.measure_1q(rho, qubit, shots, seed);
}

Mat simulate_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults) {
    const Mat total = compose_circuit_2q(exec, circuit, defaults);
    return quantum::apply_superop(total, exec.ground_state_2q());
}

Counts run_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, int shots,
                      std::uint64_t seed) {
    const Mat rho = simulate_circuit_2q(exec, circuit, defaults);
    return exec.measure_2q(rho, shots, seed);
}

}  // namespace qoc::device
