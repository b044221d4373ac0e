/// \file executor.hpp
/// \brief Pulse-level noisy execution: integrates the Lindblad master
///        equation (paper Eq. 1) sample-by-sample for schedules played on a
///        simulated transmon backend.  This is the stand-in for running jobs
///        on IBM Q hardware through OpenPulse.
///
/// Single-qubit execution uses a `levels`-dimensional Duffing transmon in
/// the drive rotating frame:
///   H(t) = delta n + (alpha/2) n (n - 1)
///        + (Omega_max * amp_scale / 2) (s(t) a^dag + s*(t) a)
/// with T1 (collapse `a/sqrt(T1)`) and pure dephasing from T2.  Two-qubit
/// execution models the pair with the effective cross-resonance Hamiltonian
/// (paper Eq. 3): drive channels give local X/Y terms; the control channel
/// U0 produces ZX + IX (+ classical-crosstalk XI) terms; a static ZZ runs
/// throughout.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/backend_config.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "pulse/circuit.hpp"
#include "pulse/schedule.hpp"

namespace qoc::device {

using linalg::Mat;

/// Measurement outcome histogram.
struct Counts {
    std::map<std::string, int> histogram;  ///< bitstring -> shots
    int shots = 0;

    /// Probability of a bitstring (0 when absent).
    double probability(const std::string& bitstring) const;
};

/// Per-thread scratch of the executor's sample-propagation loop.  Reusing one
/// across streams of the same block shape keeps the loop allocation-free
/// after the first stream, on either route (Pade propagators or the action
/// of the exponential); one workspace must not be shared between threads.
struct PropagationWorkspace {
    Mat gen;                             ///< dt * L(s) of the current sample
    Mat prop;                            ///< its propagator e^{dt L(s)} (propagator route)
    Mat next;                            ///< product buffer, swapped with the block
    linalg::ExpmWorkspace expm;          ///< Pade scratch (propagator route)
    linalg::ExpmActionWorkspace action;  ///< Taylor scratch (action route)
};

/// Whether a stream's per-sample propagators are shared, which also picks
/// how the stream is propagated.
enum class PropagatorReuse {
    /// Look up and publish Pade propagators e^{dt L(s)} in the executor's
    /// amplitude cache: gate schedules and the CX calibration replay their
    /// amplitudes.
    kShared,
    /// Share nothing: sweep points whose amplitudes occur once.  A block of
    /// at most `kActionMaxCols` columns (a state, or a pair of states) then
    /// takes the action e^{dt L(s)} block directly, without forming the
    /// propagator; a wider block (a superoperator) still multiplies Pade
    /// propagators.
    kNone,
};

/// Widest block that a `PropagatorReuse::kNone` stream advances by the
/// action of the exponential.  One action costs about m matvecs per column
/// against one Pade expm (~6 d^2 x d^2 products) and one product for the
/// propagator route, so the action only wins on thin blocks.
inline constexpr std::size_t kActionMaxCols = 2;

class PulseExecutor {
public:
    explicit PulseExecutor(BackendConfig config);

    const BackendConfig& config() const { return config_; }

    /// Superoperator (dim^2 x dim^2, dim = config.levels) of a complex
    /// sample stream played on `qubit`'s drive channel.
    Mat waveform_superop_1q(const std::vector<std::complex<double>>& samples,
                            std::size_t qubit) const;

    /// Superoperator of a single-qubit gate schedule (reads the qubit's
    /// drive-channel samples; internal ShiftPhases are resolved).
    Mat schedule_superop_1q(const pulse::Schedule& sched, std::size_t qubit) const;

    /// Free evolution (decoherence only) for `duration_dt` samples.
    Mat idle_superop_1q(std::size_t duration_dt, std::size_t qubit) const;

    /// Exact virtual-Z superoperator e^{+i theta n} on the transmon
    /// (equals RZ(theta) on the qubit subspace up to global phase).
    Mat rz_superop_1q(double theta) const;

    /// Two-qubit (2x2 levels) superoperator of simultaneous sample streams
    /// on D0, D1 and U0.  Streams are zero-padded to a common length.
    Mat layer_superop_2q(const std::vector<std::complex<double>>& d0,
                         const std::vector<std::complex<double>>& d1,
                         const std::vector<std::complex<double>>& u0) const;

    /// Superoperator of a two-qubit gate schedule (channels D0, D1, U0).
    Mat schedule_superop_2q(const pulse::Schedule& sched) const;

    Mat idle_superop_2q(std::size_t duration_dt) const;

    /// Virtual Z on one qubit of the pair.
    Mat rz_superop_2q(double theta, std::size_t qubit) const;

    /// The executor's one propagation loop.  Advances a `levels^2 x k` block
    /// through the sample stream on `qubit`'s drive channel in place:
    /// block <- P(s_n) ... P(s_1) block, with P(s) = e^{dt L(s)}.  The columns
    /// are k vectorized (column-stacking) density matrices, or the identity
    /// when building a superoperator.  `reuse` and k pick the route (see
    /// `PropagatorReuse`).
    void propagate_1q(const std::vector<std::complex<double>>& samples, std::size_t qubit,
                      Mat& block, PropagationWorkspace& ws, PropagatorReuse reuse) const;

    /// Pair analogue of `propagate_1q` on a 16 x k block, for simultaneous
    /// streams on D0, D1 and U0 (zero-padded to a common length).
    void propagate_2q(const std::vector<std::complex<double>>& d0,
                      const std::vector<std::complex<double>>& d1,
                      const std::vector<std::complex<double>>& u0, Mat& block,
                      PropagationWorkspace& ws, PropagatorReuse reuse) const;

    /// dt * L(s): the Lindblad generator of one sample period with drive
    /// sample `sample` on `qubit`, evaluated from the affine form built at
    /// construction (see `AffineGenerator`).
    Mat sample_generator_1q(std::complex<double> sample, std::size_t qubit) const;

    /// dt * L(d0, d1, u0) of the pair.
    Mat sample_generator_2q(std::complex<double> d0, std::complex<double> d1,
                            std::complex<double> u0) const;

    /// Readout of a 1-qubit (levels-dim) density matrix: collapses the
    /// populations to {0, 1} (level >= 2 reads as 1), applies the confusion
    /// matrix, samples `shots` outcomes.
    Counts measure_1q(const Mat& rho, std::size_t qubit, int shots, std::uint64_t seed) const;

    /// Readout of a 2-qubit density matrix (4x4), bitstring "q0q1".
    Counts measure_2q(const Mat& rho, int shots, std::uint64_t seed) const;

    /// `measure_2q` on a vectorized (16x1, column-stacking) density matrix,
    /// reading the populations straight off the vec diagonal -- the readout
    /// companion of the RB engine's matvec propagation (no unvec round trip).
    Counts measure_2q_vec(const Mat& vec_rho, int shots, std::uint64_t seed) const;

    /// Ideal readout probabilities P(read 1) for a 1-qubit state (confusion
    /// applied, no shot noise) -- used by deterministic tests.
    double p1_after_readout(const Mat& rho, std::size_t qubit) const;

    /// `p1_after_readout` on a vectorized (levels^2 x 1) density matrix.
    double p1_after_readout_vec(const Mat& vec_rho, std::size_t qubit) const;

    /// Ground state (levels-dim density matrix).
    Mat ground_state_1q() const;
    /// |00><00| on the pair.
    Mat ground_state_2q() const;

private:
    /// dt * L as a function of the real drive coordinates x_k (Re and Im of
    /// each channel's sample: 2 for a qubit, 6 for the pair's D0, D1, U0):
    ///   dt L = L0 + sum_k x_k L_k
    ///        + sum_q (x_q^2 Lxx_q + y_q^2 Lyy_q + x_q y_q Lxy_q).
    /// The last sum is the drive-amplitude-noise dissipator of each driven
    /// qubit q, quadratic in its sample (x_q, y_q); its rate and dt are
    /// folded into the three matrices.  Built once per executor, so a sample
    /// costs a handful of axpys instead of a Liouvillian rebuild.  The
    /// 1-norm of every term is kept too, so a bound on ||dt L(x)||_1 costs a
    /// few multiplies.
    struct AffineGenerator {
        struct Noise {
            std::size_t coord = 0;  ///< index of x_q; y_q is coord + 1
            Mat xx, yy, xy;
            double xx_norm = 0.0, yy_norm = 0.0, xy_norm = 0.0;  ///< 1-norms
        };
        Mat l0;
        std::vector<Mat> linear;  ///< L_k, one per coordinate
        std::vector<Noise> noise;
        double l0_norm = 0.0;             ///< ||L0||_1
        std::vector<double> linear_norm;  ///< ||L_k||_1

        /// Fills the 1-norm fields from the matrices.
        void record_norms();
        void evaluate_into(const std::array<double, 6>& x, Mat& out) const;
        /// Triangle-inequality bound on ||dt L(x)||_1.
        double norm_bound(const std::array<double, 6>& x) const;
    };

    /// Cache key for an amplitude -> single-sample propagator entry: a tag
    /// (1q qubit index, or kKey2q) plus the raw bit patterns of the drive
    /// coordinates.  Exact bit equality keeps cached propagators bitwise
    /// identical to recomputation.
    struct PropKey {
        std::array<std::uint64_t, 7> w;
        bool operator==(const PropKey& o) const { return w == o.w; }
    };
    struct PropKeyHash {
        std::size_t operator()(const PropKey& k) const;
    };

    /// The loop behind `propagate_1q/2q`: `streams` are the channels whose
    /// samples give coordinates (x_0, x_1), (x_2, x_3), ... of `gen`.  A
    /// `kNone` stream on at most `kActionMaxCols` columns takes one Taylor
    /// degree (m, s) for all its samples, from the largest `norm_bound`.
    void propagate(const AffineGenerator& gen, std::uint64_t tag,
                   std::span<const std::vector<std::complex<double>>* const> streams,
                   Mat& block, PropagationWorkspace& ws, PropagatorReuse reuse) const;

    /// Single-dt propagator at coordinates `x`.  With kShared it comes from
    /// the cache when present, else it is computed into `ws.prop` and
    /// published; the returned reference then stays valid for the lifetime
    /// of the executor (entries are never erased).  With kNone it is
    /// `ws.prop`.
    const Mat& sample_propagator(const AffineGenerator& gen, std::uint64_t tag,
                                 const std::array<double, 6>& x, PropagationWorkspace& ws,
                                 PropagatorReuse reuse) const;

    Counts measure_2q_populations(const std::array<double, 4>& true_p, int shots,
                                  std::uint64_t seed) const;

    BackendConfig config_;
    std::vector<AffineGenerator> gen_1q_;  ///< one per qubit
    AffineGenerator gen_2q_;               ///< the (0, 1) pair; empty below 2 qubits
    // Amplitude -> propagator cache shared across schedule builds: x/sx/cx
    // schedules and the CX calibration's echo replay the same sample values,
    // so the per-sample expm is paid once per distinct amplitude per
    // executor.  Only kShared streams read or fill it.
    mutable std::unordered_map<PropKey, Mat, PropKeyHash> prop_cache_;
    mutable std::mutex prop_cache_mutex_;
};

/// Runs a single-qubit circuit on the executor: lowers gates to superops
/// (calibrations first, then `defaults`, rz virtual) in order, applies the
/// final frame correction, measures.
Counts run_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, std::size_t qubit,
                      int shots, std::uint64_t seed);

/// Final density matrix of a single-qubit circuit (before readout).
Mat simulate_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults, std::size_t qubit);

/// Runs a two-qubit circuit (gates on qubits {0}, {1} or {0,1}).
Counts run_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, int shots,
                      std::uint64_t seed);

/// Final density matrix of a two-qubit circuit.
Mat simulate_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults);

}  // namespace qoc::device
