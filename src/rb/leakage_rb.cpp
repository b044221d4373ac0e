#include "rb/leakage_rb.hpp"

#include <cmath>
#include <cstdint>

#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "rb/seed_engine.hpp"
#include "runtime/ordered.hpp"

namespace qoc::rb {

namespace {

/// The 1Q seed engine with seed streams `mt19937_64(rng_seed + 104729 *
/// (li * 1000 + s))` and the leakage population read from the diagonal of
/// vec(rho).
LeakageRbResult leakage_curve(const PulseExecutor& exec, const GateSet1Q& gates,
                              const RbOptions& opts) {
    const std::size_t d = gates.dim();
    const auto leaks = detail::run_seed_blocks_1q(
        exec, gates, opts, {"rb.leakage_block", 104729}, [d](const detail::FinishedSeed& f) {
            double leak = 0.0;
            for (std::size_t lvl = 2; lvl < d; ++lvl) {
                leak += f.block(lvl * (d + 1), f.col).real();
            }
            obs::emit_rb_seed("leakage_rb", f.length, static_cast<std::int64_t>(f.seed),
                              1.0 - leak);
            return leak;
        });
    LeakageRbResult res;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        res.lengths.push_back(opts.lengths[li]);
        res.leakage_population.push_back(runtime::ordered_mean(leaks[li]));
    }
    return res;
}

}  // namespace

LeakageRbResult run_leakage_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates,
                                  const RbOptions& opts) {
    detail::validate_options(opts, "run_leakage_rb_1q");
    LeakageRbResult res = leakage_curve(exec, gates, opts);

    // Fit p_comp(m) = A lambda^m + (1 - p_inf) where p_comp = 1 - leakage.
    std::vector<double> p_comp(res.lengths.size());
    for (std::size_t i = 0; i < p_comp.size(); ++i) {
        p_comp[i] = 1.0 - res.leakage_population[i];
    }
    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(res.lengths[i])) + p[2];
    };
    const auto fit =
        optim::levmar_fit(model, p_comp.size(), p_comp, {0.01, 0.999, 0.99});
    res.lambda = fit.params[1];
    res.p_leak_inf = 1.0 - fit.params[2];
    res.leakage_rate_per_clifford = (1.0 - res.lambda) * res.p_leak_inf;
    return res;
}

}  // namespace qoc::rb
