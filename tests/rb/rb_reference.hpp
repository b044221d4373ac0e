/// Reference per-seed RB engines: one seed at a time, one dense superop
/// matvec per Clifford (`quantum::apply_superop_into(gates.clifford_superop(c),
/// ...)`), replaying the exact RNG streams of the batched seed engine in
/// rb.cpp / leakage_rb.cpp.  The batched engine must reproduce these curves
/// to floating-point association; the oracle tests hold the two together.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "linalg/kron.hpp"
#include "optim/levmar.hpp"
#include "quantum/superop.hpp"
#include "rb/leakage_rb.hpp"
#include "rb/rb.hpp"

namespace qoc::rb::reference {

using linalg::Mat;

/// Mean and standard error of the mean of one length's survivals.
inline RbPoint summarize(std::size_t length, const std::vector<double>& vals) {
    RbPoint pt;
    pt.length = length;
    double sum = 0.0;
    for (double v : vals) sum += v;
    pt.mean_survival = sum / static_cast<double>(vals.size());
    if (vals.size() >= 2) {
        double s = 0.0;
        for (double v : vals) s += (v - pt.mean_survival) * (v - pt.mean_survival);
        pt.sem = std::sqrt(s / static_cast<double>(vals.size() - 1) /
                           static_cast<double>(vals.size()));
    }
    return pt;
}

/// 1Q RB curve (or, with `interleave_super`, the interleaved IRB curve)
/// with the seed streams `mt19937_64(rng_seed + 7919 * (li * 1000 + s))`.
inline RbCurve rb_curve_1q(const device::PulseExecutor& exec, const GateSet1Q& gates,
                           std::size_t qubit, const RbOptions& opts,
                           const Mat* interleave_super = nullptr,
                           std::size_t interleave_index = 0) {
    const Clifford1Q& group = gates.group();
    const Mat vec_rho0 = linalg::vec(exec.ground_state_1q());
    RbCurve curve;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> survivals(opts.seeds_per_length);
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            std::mt19937_64 rng(opts.rng_seed + 7919 * (li * 1000 + s));
            std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
            Mat v = vec_rho0, v_next;
            std::size_t net = group.identity_index();
            for (std::size_t k = 0; k < m; ++k) {
                const std::size_t c = dist(rng);
                quantum::apply_superop_into(gates.clifford_superop(c), v, v_next);
                std::swap(v, v_next);
                net = group.multiply(c, net);
                if (interleave_super != nullptr) {
                    quantum::apply_superop_into(*interleave_super, v, v_next);
                    std::swap(v, v_next);
                    net = group.multiply(interleave_index, net);
                }
            }
            quantum::apply_superop_into(gates.clifford_superop(group.inverse(net)), v, v_next);
            const double p0 = 1.0 - exec.p1_after_readout_vec(v_next, qubit);
            std::binomial_distribution<int> shots(opts.shots, std::clamp(p0, 0.0, 1.0));
            survivals[s] = static_cast<double>(shots(rng)) / static_cast<double>(opts.shots);
        }
        curve.points.push_back(summarize(m, survivals));
    }
    fit_rb_curve(curve, 2.0);
    return curve;
}

/// 1Q IRB against the reference engine's own RB curve.
inline IrbResult irb_1q(const device::PulseExecutor& exec, const GateSet1Q& gates,
                        std::size_t qubit, const Mat& interleaved_superop,
                        std::size_t interleaved_clifford, const RbOptions& opts) {
    IrbResult res;
    res.reference = rb_curve_1q(exec, gates, qubit, opts);
    res.interleaved =
        rb_curve_1q(exec, gates, qubit, opts, &interleaved_superop, interleaved_clifford);
    res.gate_error = 0.5 * (1.0 - res.interleaved.alpha / res.reference.alpha);
    return res;
}

/// Leakage RB populations and the subspace-decay fit, with the seed streams
/// `mt19937_64(rng_seed + 104729 * (li * 1000 + s))`.
inline LeakageRbResult leakage_rb_1q(const device::PulseExecutor& exec, const GateSet1Q& gates,
                                     const RbOptions& opts) {
    const Clifford1Q& group = gates.group();
    const std::size_t d = gates.dim();
    const Mat vec_rho0 = linalg::vec(exec.ground_state_1q());
    LeakageRbResult res;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        double sum = 0.0;  // over seeds of each seed's leaked population
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            std::mt19937_64 rng(opts.rng_seed + 104729 * (li * 1000 + s));
            std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
            Mat v = vec_rho0, v_next;
            std::size_t net = group.identity_index();
            for (std::size_t k = 0; k < m; ++k) {
                const std::size_t c = dist(rng);
                quantum::apply_superop_into(gates.clifford_superop(c), v, v_next);
                std::swap(v, v_next);
                net = group.multiply(c, net);
            }
            quantum::apply_superop_into(gates.clifford_superop(group.inverse(net)), v, v_next);
            // rho(lvl, lvl) sits at vec index lvl * (d + 1) (column stacking).
            double leak = 0.0;
            for (std::size_t lvl = 2; lvl < d; ++lvl) leak += v_next(lvl * (d + 1), 0).real();
            sum += leak;
        }
        res.lengths.push_back(m);
        res.leakage_population.push_back(sum / static_cast<double>(opts.seeds_per_length));
    }
    // p_comp(m) = A lambda^m + (1 - p_inf), p_comp = 1 - leakage.
    std::vector<double> p_comp(res.lengths.size());
    for (std::size_t i = 0; i < p_comp.size(); ++i) p_comp[i] = 1.0 - res.leakage_population[i];
    const auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(res.lengths[i])) + p[2];
    };
    const auto fit = optim::levmar_fit(model, p_comp.size(), p_comp, {0.01, 0.999, 0.99});
    res.lambda = fit.params[1];
    res.p_leak_inf = 1.0 - fit.params[2];
    res.leakage_rate_per_clifford = (1.0 - res.lambda) * res.p_leak_inf;
    return res;
}

}  // namespace qoc::rb::reference
