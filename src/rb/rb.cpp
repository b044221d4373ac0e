#include "rb/rb.hpp"

#include "contracts/matrix_checks.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>

#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "quantum/states.hpp"
#include "runtime/ordered.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

namespace qoc::rb {

namespace {

double survival_sem(const std::vector<double>& vals, double mean) {
    if (vals.size() < 2) return 0.0;
    double s = 0.0;
    for (double v : vals) s += (v - mean) * (v - mean);
    return std::sqrt(s / static_cast<double>(vals.size() - 1) /
                     static_cast<double>(vals.size()));
}

}  // namespace

void fit_rb_curve(RbCurve& curve, double dimension) {
    obs::Span span("rb.fit");
    const std::size_t n = curve.points.size();
    if (n < 3) throw std::invalid_argument("fit_rb_curve: need at least 3 lengths");
    std::vector<double> y(n), sigma(n);
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = curve.points[i].mean_survival;
        sigma[i] = std::max(curve.points[i].sem, 1e-4);
    }
    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(curve.points[i].length)) + p[2];
    };
    // Seed alpha from the first/last points.
    const double y0 = y.front(), y1 = y.back();
    const double m0 = static_cast<double>(curve.points.front().length);
    const double m1 = static_cast<double>(curve.points.back().length);
    const double b_guess = 1.0 / dimension;
    double alpha_guess = 0.999;
    if (y0 > b_guess && y1 > b_guess && m1 > m0) {
        alpha_guess = std::pow((y1 - b_guess) / (y0 - b_guess), 1.0 / (m1 - m0));
        alpha_guess = std::clamp(alpha_guess, 0.5, 0.999999);
    }
    const auto fit = optim::levmar_fit(model, n, y, {1.0 - b_guess, alpha_guess, b_guess}, sigma);
    curve.a = fit.params[0];
    curve.alpha = fit.params[1];
    curve.b = fit.params[2];
    curve.alpha_err = fit.stderrs[1];
    const double scale = (dimension - 1.0) / dimension;
    curve.epc = scale * (1.0 - curve.alpha);
    curve.epc_err = scale * curve.alpha_err;
}

// --- 1Q -----------------------------------------------------------------

GateSet1Q::GateSet1Q(const PulseExecutor& exec, const pulse::InstructionScheduleMap& gates,
                     std::size_t qubit, const Clifford1Q& group)
    : group_(group) {
    const std::size_t d = exec.config().levels;
    dim_ = d;
    const Mat x_super = exec.schedule_superop_1q(gates.get("x", {qubit}), qubit);
    const Mat sx_super = exec.schedule_superop_1q(gates.get("sx", {qubit}), qubit);

    cliff_super_.reserve(Clifford1Q::kSize);
    for (std::size_t i = 0; i < Clifford1Q::kSize; ++i) {
        Mat total = Mat::identity(d * d);
        for (const BasisGate& g : group_.decomposition(i)) {
            if (g.name == "rz") {
                total = exec.rz_superop_1q(*g.param) * total;
            } else if (g.name == "sx") {
                total = sx_super * total;
            } else if (g.name == "x") {
                total = x_super * total;
            } else {
                throw std::logic_error("GateSet1Q: unknown basis gate " + g.name);
            }
        }
        contracts::check_trace_preserving(total, "GateSet1Q: Clifford superop", 1e-7);
        cliff_super_.push_back(quantum::StructuredSuperOp::from_dense(total));
    }
}

namespace {

/// Per-thread state of the batched (structure-of-arrays) seed engine: a
/// d^2 x B block whose column j is seed s0+j's vec(rho), the pre-sampled
/// step-major sequence table, and the per-seed RNG engines parked after
/// their sequence draws so shot sampling continues each seed's stream.
struct BatchWorkspace {
    Mat x;       ///< d^2 x B seed block
    Mat x_next;  ///< apply output, swapped into `x`
    Mat v;       ///< d^2 x 1 per-seed extraction for measurement
    Mat net, net_next;                  ///< 2Q ideal-unitary tracking (presample)
    std::vector<std::size_t> seq;       ///< [step * B + seed] Clifford indices
    std::vector<std::size_t> rec;       ///< recovery index per seed
    std::vector<std::mt19937_64> rngs;  ///< per-seed stream after sequence draws
};

/// Width of the SoA seed blocks.  Per-seed results are invariant under the
/// partition (the simd kernel family computes each output element with the
/// same accumulation order on the batched, strided and single-vector paths
/// -- see simd_kernels.hpp), so the auto policy is free to spread seeds
/// evenly over the task pool without breaking 1-vs-N-thread bitwise
/// reproducibility.
std::size_t seed_block_width(std::size_t seeds, std::size_t requested) {
    if (seeds == 0) return 1;
    if (requested > 0) return std::min(requested, seeds);
    const std::size_t threads = runtime::TaskPool::global().size();
    const std::size_t even = (seeds + threads - 1) / threads;
    return std::min<std::size_t>(std::max<std::size_t>(even, 1), 32);
}

/// One Clifford step over a whole seed block.  When every seed drew the
/// same element (always true for IRB interleave steps, often for short
/// blocks) this is ONE batched d^2 x B apply; otherwise each column gets a
/// strided single-column apply.  Both paths produce bitwise-identical
/// columns, so the branch is purely a throughput decision.
template <typename StructuredOf>
void apply_block_step(const StructuredOf& structured_of, const std::size_t* idx,
                      std::size_t bw, Mat& x, Mat& x_next) {
    bool same = true;
    for (std::size_t j = 1; j < bw; ++j) {
        if (idx[j] != idx[0]) {
            same = false;
            break;
        }
    }
    if (same) {
        structured_of(idx[0]).apply_batch_into(x, x_next);
    } else {
        x_next.resize(x.rows(), x.cols());
        for (std::size_t j = 0; j < bw; ++j) {
            structured_of(idx[j]).apply_col(x.data().data() + j, x_next.data().data() + j, bw);
        }
    }
    std::swap(x, x_next);
}

/// Fills every column of the block with `vec_rho0`.
void fill_block(const Mat& vec_rho0, std::size_t bw, Mat& x) {
    const std::size_t d2 = vec_rho0.rows();
    x.resize(d2, bw);
    for (std::size_t r = 0; r < d2; ++r) {
        for (std::size_t j = 0; j < bw; ++j) x(r, j) = vec_rho0(r, 0);
    }
}

/// Copies column `j` of the block into the d^2 x 1 vector `v`.
void extract_column(const Mat& x, std::size_t j, Mat& v) {
    v.resize(x.rows(), 1);
    for (std::size_t r = 0; r < x.rows(); ++r) v(r, 0) = x(r, j);
}

/// Batched 1Q RB: sequences are pre-sampled per seed (seed s of length
/// index li draws from `mt19937_64(rng_seed + 7919 * (li * 1000 + s))`),
/// then the whole seed block advances with one structured apply per
/// Clifford step through `apply_block_step`.  The interleaved experiment
/// reuses the same random Clifford sequences as the reference (standard IRB
/// practice): paired sequences cancel most sampling noise in the alpha
/// ratio.
RbCurve rb_curve_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                    const RbOptions& opts, const Mat* interleave_super,
                    std::size_t interleave_index) {
    const Clifford1Q& group = gates.group();
    const Mat vec_rho0 = linalg::vec(exec.ground_state_1q());
    quantum::StructuredSuperOp inter_struct;
    if (interleave_super != nullptr) {
        inter_struct = quantum::StructuredSuperOp::from_dense(*interleave_super);
    }
    const auto structured_of = [&gates](std::size_t i) -> const quantum::StructuredSuperOp& {
        return gates.clifford_structured(i);
    };

    runtime::WorkspacePool<BatchWorkspace> workspaces;
    const std::size_t bw_max = seed_block_width(opts.seeds_per_length, opts.seed_block);
    const std::size_t n_blocks = (opts.seeds_per_length + bw_max - 1) / bw_max;

    RbCurve curve;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> survivals(opts.seeds_per_length);

        runtime::TaskPool::global().parallel_for(0, n_blocks, [&](std::size_t blk) {
            obs::Span span("rb.seq_block_1q");
            const std::size_t s0 = blk * bw_max;
            const std::size_t bw = std::min(bw_max, opts.seeds_per_length - s0);
            auto lease = workspaces.acquire();
            BatchWorkspace& w = *lease;

            // Pre-sample the block's sequences.  Per seed the draws happen
            // in one fixed order (sequence indices first, shot sampling
            // afterwards from the same engine), so sequences and shot noise
            // pair up between the reference and the interleaved run.
            w.seq.resize(m * bw);
            w.rec.resize(bw);
            w.rngs.clear();
            std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
            for (std::size_t j = 0; j < bw; ++j) {
                std::mt19937_64 rng(opts.rng_seed + 7919 * (li * 1000 + (s0 + j)));
                std::size_t net = group.identity_index();
                for (std::size_t k = 0; k < m; ++k) {
                    const std::size_t c = dist(rng);
                    w.seq[k * bw + j] = c;
                    net = group.multiply(c, net);
                    if (interleave_super != nullptr) net = group.multiply(interleave_index, net);
                }
                w.rec[j] = group.inverse(net);
                w.rngs.push_back(rng);
            }

            fill_block(vec_rho0, bw, w.x);
            for (std::size_t k = 0; k < m; ++k) {
                apply_block_step(structured_of, &w.seq[k * bw], bw, w.x, w.x_next);
                if (interleave_super != nullptr) {
                    inter_struct.apply_batch_into(w.x, w.x_next);
                    std::swap(w.x, w.x_next);
                }
            }
            apply_block_step(structured_of, w.rec.data(), bw, w.x, w.x_next);

            for (std::size_t j = 0; j < bw; ++j) {
                extract_column(w.x, j, w.v);
                contracts::check_density_vec(w.v, "RB 1Q: state after recovery", 1e-6);
                const double p0 = 1.0 - exec.p1_after_readout_vec(w.v, qubit);
                contracts::check_probability(p0, "RB 1Q: survival probability", 1e-6);
                std::binomial_distribution<int> shots_dist(opts.shots, std::clamp(p0, 0.0, 1.0));
                survivals[s0 + j] = static_cast<double>(shots_dist(w.rngs[j])) /
                                    static_cast<double>(opts.shots);
                obs::emit_rb_seed(interleave_super ? "irb1q" : "rb1q", m,
                                  static_cast<std::int64_t>(s0 + j), survivals[s0 + j]);
            }
        });
        RbPoint pt;
        pt.length = m;
        pt.mean_survival = runtime::ordered_mean(survivals);
        pt.sem = survival_sem(survivals, pt.mean_survival);
        curve.points.push_back(pt);
    }
    fit_rb_curve(curve, 2.0);
    return curve;
}

}  // namespace

RbCurve run_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                  const RbOptions& options) {
    return rb_curve_1q(exec, gates, qubit, options, nullptr, 0);
}

IrbResult run_irb_1q_with_reference(const PulseExecutor& exec, const GateSet1Q& gates,
                                    std::size_t qubit, const RbCurve& reference,
                                    const Mat& interleaved_superop,
                                    std::size_t interleaved_clifford,
                                    const RbOptions& options) {
    IrbResult res;
    res.reference = reference;
    res.interleaved =
        rb_curve_1q(exec, gates, qubit, options, &interleaved_superop, interleaved_clifford);
    const double ratio = res.interleaved.alpha / res.reference.alpha;
    res.gate_error = 0.5 * (1.0 - ratio);
    // Propagate both alpha uncertainties.
    const double rel = std::sqrt(std::pow(res.interleaved.alpha_err / res.interleaved.alpha, 2) +
                                 std::pow(res.reference.alpha_err / res.reference.alpha, 2));
    res.gate_error_err = 0.5 * ratio * rel;
    return res;
}

IrbResult run_irb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                     const Mat& interleaved_superop, std::size_t interleaved_clifford,
                     const RbOptions& options) {
    return run_irb_1q_with_reference(exec, gates, qubit,
                                     rb_curve_1q(exec, gates, qubit, options, nullptr, 0),
                                     interleaved_superop, interleaved_clifford, options);
}

// --- 2Q -----------------------------------------------------------------

GateSet2Q::GateSet2Q(const PulseExecutor& exec, const pulse::InstructionScheduleMap& gates,
                     const Clifford2Q& group)
    : group_(group),
      exec_(exec),
      cliff_cache_(Clifford2Q::kSize),
      cliff_once_(std::make_unique<std::once_flag[]>(Clifford2Q::kSize)) {
    for (std::size_t q = 0; q < 2; ++q) {
        const pulse::Schedule& xs = gates.get("x", {q});
        const pulse::Schedule& sxs = gates.get("sx", {q});
        const std::size_t nx = xs.total_duration();
        const std::size_t nsx = sxs.total_duration();
        const std::vector<std::complex<double>> zx(nx), zsx(nsx);
        const auto x_samples = xs.channel_samples(pulse::drive_channel(q), nx);
        const auto sx_samples = sxs.channel_samples(pulse::drive_channel(q), nsx);
        if (q == 0) {
            x_super_[0] = exec.layer_superop_2q(x_samples, zx, zx);
            sx_super_[0] = exec.layer_superop_2q(sx_samples, zsx, zsx);
        } else {
            x_super_[1] = exec.layer_superop_2q(zx, x_samples, zx);
            sx_super_[1] = exec.layer_superop_2q(zsx, sx_samples, zsx);
        }
    }
    cx_super_ = exec.schedule_superop_2q(gates.get("cx", {0, 1}));
}

Mat GateSet2Q::compose_superop(std::size_t i) const {
    Mat total = Mat::identity(16);
    for (const TwoQubitGate& g : group_.decomposition(i)) {
        if (g.name == "rz") {
            total = exec_.rz_superop_2q(*g.param, g.qubits[0]) * total;
        } else if (g.name == "sx") {
            total = sx_super_[g.qubits[0]] * total;
        } else if (g.name == "x") {
            total = x_super_[g.qubits[0]] * total;
        } else if (g.name == "cx") {
            total = cx_super_ * total;
        } else {
            throw std::logic_error("GateSet2Q: unknown gate " + g.name);
        }
    }
    contracts::check_trace_preserving(total, "GateSet2Q: Clifford superop", 1e-7);
    return total;
}

const Mat& GateSet2Q::clifford_superop(std::size_t i) const {
    return clifford_structured(i).dense();
}

const quantum::StructuredSuperOp& GateSet2Q::clifford_structured(std::size_t i) const {
    bool miss = false;
    std::call_once(cliff_once_[i], [&] {
        miss = true;
        cliff_cache_[i] = quantum::StructuredSuperOp::from_dense(compose_superop(i));
    });
    if (miss) {
        obs::count(obs::Cnt::kCliffMemoMisses);
    } else {
        obs::count(obs::Cnt::kCliffMemoHits);
    }
    return cliff_cache_[i];
}

void GateSet2Q::precompute_all() const {
    runtime::TaskPool::global().parallel_for(
        0, Clifford2Q::kSize, [&](std::size_t i) { clifford_superop(i); });
}

namespace {

/// Batched 2Q RB; mirrors rb_curve_1q's block engine (seed streams
/// `mt19937_64(rng_seed + 6271 * (li * 1000 + s))`).  The ideal-unitary net
/// tracking and the `group.find` recovery lookup happen during
/// pre-sampling.
RbCurve rb_curve_2q(const PulseExecutor& exec, const GateSet2Q& gates, const RbOptions& opts,
                    const Mat* interleave_super, std::size_t interleave_index) {
    const Clifford2Q& group = gates.group();
    const Mat vec_rho0 = linalg::vec(exec.ground_state_2q());
    const Mat interleave_ideal =
        interleave_super ? group.unitary(interleave_index) : Mat::identity(4);
    quantum::StructuredSuperOp inter_struct;
    if (interleave_super != nullptr) {
        inter_struct = quantum::StructuredSuperOp::from_dense(*interleave_super);
    }
    const auto structured_of = [&gates](std::size_t i) -> const quantum::StructuredSuperOp& {
        return gates.clifford_structured(i);
    };

    // Long runs revisit most of the 11520-element group; filling the superop
    // cache eagerly (in parallel) beats lazy misses inside the sequence loop.
    std::size_t total_steps = 0;
    for (std::size_t m : opts.lengths) total_steps += m * opts.seeds_per_length;
    if (total_steps >= 2 * Clifford2Q::kSize) gates.precompute_all();

    runtime::WorkspacePool<BatchWorkspace> workspaces;
    const std::size_t bw_max = seed_block_width(opts.seeds_per_length, opts.seed_block);
    const std::size_t n_blocks = (opts.seeds_per_length + bw_max - 1) / bw_max;

    RbCurve curve;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> survivals(opts.seeds_per_length);

        runtime::TaskPool::global().parallel_for(0, n_blocks, [&](std::size_t blk) {
            obs::Span span("rb.seq_block_2q");
            const std::size_t s0 = blk * bw_max;
            const std::size_t bw = std::min(bw_max, opts.seeds_per_length - s0);
            auto lease = workspaces.acquire();
            BatchWorkspace& w = *lease;

            w.seq.resize(m * bw);
            w.rec.resize(bw);
            w.rngs.clear();
            for (std::size_t j = 0; j < bw; ++j) {
                std::mt19937_64 rng(opts.rng_seed + 6271 * (li * 1000 + (s0 + j)));
                w.net = Mat::identity(4);
                for (std::size_t k = 0; k < m; ++k) {
                    const std::size_t c = group.sample(rng);
                    w.seq[k * bw + j] = c;
                    linalg::gemm_into(group.unitary(c), w.net, w.net_next);
                    phase_normalize_inplace(w.net_next);
                    std::swap(w.net, w.net_next);
                    if (interleave_super != nullptr) {
                        linalg::gemm_into(interleave_ideal, w.net, w.net_next);
                        phase_normalize_inplace(w.net_next);
                        std::swap(w.net, w.net_next);
                    }
                }
                w.rec[j] = group.find(w.net.adjoint());
                w.rngs.push_back(rng);
            }

            fill_block(vec_rho0, bw, w.x);
            for (std::size_t k = 0; k < m; ++k) {
                apply_block_step(structured_of, &w.seq[k * bw], bw, w.x, w.x_next);
                if (interleave_super != nullptr) {
                    inter_struct.apply_batch_into(w.x, w.x_next);
                    std::swap(w.x, w.x_next);
                }
            }
            apply_block_step(structured_of, w.rec.data(), bw, w.x, w.x_next);

            for (std::size_t j = 0; j < bw; ++j) {
                extract_column(w.x, j, w.v);
                contracts::check_density_vec(w.v, "RB 2Q: state after recovery", 1e-6);
                const device::Counts counts = exec.measure_2q_vec(w.v, opts.shots, w.rngs[j]());
                survivals[s0 + j] = counts.probability("00");
                obs::emit_rb_seed(interleave_super ? "irb2q" : "rb2q", m,
                                  static_cast<std::int64_t>(s0 + j), survivals[s0 + j]);
            }
        });
        RbPoint pt;
        pt.length = m;
        pt.mean_survival = runtime::ordered_mean(survivals);
        pt.sem = survival_sem(survivals, pt.mean_survival);
        curve.points.push_back(pt);
    }
    fit_rb_curve(curve, 4.0);
    return curve;
}

}  // namespace

RbCurve run_rb_2q(const PulseExecutor& exec, const GateSet2Q& gates, const RbOptions& options) {
    return rb_curve_2q(exec, gates, options, nullptr, 0);
}

IrbResult run_irb_2q_with_reference(const PulseExecutor& exec, const GateSet2Q& gates,
                                    const RbCurve& reference, const Mat& interleaved_superop,
                                    std::size_t interleaved_clifford,
                                    const RbOptions& options) {
    IrbResult res;
    res.reference = reference;
    res.interleaved =
        rb_curve_2q(exec, gates, options, &interleaved_superop, interleaved_clifford);
    const double ratio = res.interleaved.alpha / res.reference.alpha;
    res.gate_error = 0.75 * (1.0 - ratio);
    const double rel = std::sqrt(std::pow(res.interleaved.alpha_err / res.interleaved.alpha, 2) +
                                 std::pow(res.reference.alpha_err / res.reference.alpha, 2));
    res.gate_error_err = 0.75 * ratio * rel;
    return res;
}

IrbResult run_irb_2q(const PulseExecutor& exec, const GateSet2Q& gates,
                     const Mat& interleaved_superop, std::size_t interleaved_clifford,
                     const RbOptions& options) {
    return run_irb_2q_with_reference(exec, gates, rb_curve_2q(exec, gates, options, nullptr, 0),
                                     interleaved_superop, interleaved_clifford, options);
}

}  // namespace qoc::rb
