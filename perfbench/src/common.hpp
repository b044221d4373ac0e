/// \file common.hpp
/// \brief Shared plumbing of the perfbench workloads: run configuration,
///        operation accounting, timing, sample statistics and the metric
///        list every workload fills in.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "control/pulseoptim.hpp"
#include "obs/obs.hpp"
#include "trace.hpp"

namespace perfbench {

/// Command-line configuration of one benchmark invocation.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;   ///< measurement budget after set-up
    bool trace = false;      ///< traced run: per-layer metrics instead of end-to-end
    bool tiny = false;       ///< self-test size: one short pass, small inputs
    std::string claims_path;  ///< paper_gates verdict manifest
    std::string trace_out;    ///< where the traced run writes its spans ("" = skip)
};

/// Attempted / failed operation counts.  Every failed correctness check
/// counts the operation it belongs to as failed; the first few reasons are
/// printed to stderr.
class Ops {
public:
    void attempt() { ++attempted_; }
    /// Counts one attempted operation and, unless `ok`, one failure.
    void check(bool ok, const std::string& what) {
        ++attempted_;
        if (!ok) fail(what);
    }
    void fail(const std::string& what) {
        ++failed_;
        if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
    void merge(const Ops& other) {
        attempted_ += other.attempted_;
        failed_ += other.failed_;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spreads a run over every CPU the process may use.  On a shared VM the
/// virtual CPUs run at different speeds, and a busy thread stays on one of
/// them for a whole run; moving the benchmark's threads over the CPUs makes
/// every run sample all of them alike.  Slot s is allowed CPU s mod n.
/// Callers pick slots so that each operation visits every CPU over the
/// passes of a run (operation i of pass p on slot p + i).
class CpuRotation {
public:
    CpuRotation();
    /// Pins the calling thread to the CPU of `slot`.
    void pin(std::size_t slot) const;
    /// Lets the calling thread run on every allowed CPU again (a thread
    /// starts with its creator's pinning).
    void release() const;
    /// Re-creates the global task pool at its configured size (quiescent
    /// pool only), with its workers on every CPU but that of `slot`; the
    /// caller ends pinned to `slot`.
    void restart_pool(std::size_t slot) const;

private:
    std::vector<int> cpus_;
};

/// Linear-interpolation quantile (numpy's default) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Obs counter and histogram totals at one instant; the difference of two
/// snapshots taken around a pass gives that pass's exact counts.
struct ObsSnapshot {
    std::array<std::uint64_t, static_cast<std::size_t>(qoc::obs::Cnt::kCount)> counters{};
    std::array<qoc::obs::HistSnapshot, static_cast<std::size_t>(qoc::obs::Hist::kCount)> hists{};

    static ObsSnapshot take();
    ObsSnapshot since(const ObsSnapshot& before) const;
    std::uint64_t count(qoc::obs::Cnt c) const {
        return counters[static_cast<std::size_t>(c)];
    }
    const qoc::obs::HistSnapshot& hist(qoc::obs::Hist h) const {
        return hists[static_cast<std::size_t>(h)];
    }
};

/// What a workload's traced passes measured inside the library, beyond the
/// spans: optimizer outcomes and service request outcomes.
struct LayerRecords {
    std::vector<double> design_open_ms;    ///< open-system design wall times
    std::vector<double> design_closed_ms;  ///< closed-system design wall times
    std::uint64_t optim_iterations = 0;
    std::uint64_t optim_evaluations = 0;
    std::uint64_t designs = 0;
    std::uint64_t designs_converged = 0;   ///< stopped by a convergence test
    std::uint64_t calibrations = 0;        ///< default-gate calibrations (device refreshes)
    std::vector<double> hit_us;            ///< client latency of kHit responses
    std::vector<double> design_ms;         ///< ... of kDesigned responses
    std::vector<double> revalidate_ms;     ///< ... of kRevalidated responses
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t shed = 0;
};

/// Everything one workload run produced.
struct WorkloadResult {
    Ops ops;
    std::vector<Metric> end_to_end;  ///< filled by untraced runs
    LayerRecords layer;              ///< filled by the first traced pass
    ObsSnapshot pass_counts;         ///< obs deltas of the first traced pass
    std::vector<double> setup_s;        ///< wall time of each set-up
    std::vector<double> pass_s;         ///< wall time of each untraced pass
    std::vector<double> traced_pass_s;  ///< wall time of each traced pass
};

/// Runs a workload's passes.  Before pass `i`, `setup(i)` prepares its
/// inputs; set-ups are timed into `res.setup_s` and are not part of any
/// pass, so `setup_s` is a median over the whole run.  `pass(rec)` runs one
/// pass.  Untraced: passes until `cfg.seconds` have elapsed (at least one;
/// exactly one at tiny size).  Traced: one untraced reference pass, then
/// traced passes with the obs metrics registry on until the budget is spent
/// (at least one).  Only the first traced pass gets a non-null `rec` and has
/// its obs deltas kept, so every count is the exact count of one pass.
template <class SetupFn, class PassFn>
void run_passes(const RunConfig& cfg, Tracer& tracer, WorkloadResult& res, SetupFn&& setup,
                PassFn&& pass) {
    const auto t0 = Clock::now();
    std::uint64_t index = 0;
    const auto one = [&](LayerRecords* rec) {
        const bool traced = tracer.enabled();
        tracer.set_enabled(false);
        const auto s0 = Clock::now();
        setup(index++);
        res.setup_s.push_back(seconds_since(s0));
        tracer.set_enabled(traced);
        const ObsSnapshot before = rec != nullptr ? ObsSnapshot::take() : ObsSnapshot{};
        Tracer::Span span(tracer, "pass", Layer::kPass);
        pass(rec);
        const double seconds = span.stop();
        if (rec != nullptr) res.pass_counts = ObsSnapshot::take().since(before);
        return seconds;
    };
    const auto more = [&] { return !cfg.tiny && seconds_since(t0) < cfg.seconds; };
    if (!cfg.trace) {
        do {
            res.pass_s.push_back(one(nullptr));
        } while (more());
        return;
    }
    res.pass_s.push_back(one(nullptr));
    qoc::obs::enable_metrics("");
    tracer.set_enabled(true);
    res.traced_pass_s.push_back(one(&res.layer));
    while (more()) res.traced_pass_s.push_back(one(nullptr));
    tracer.set_enabled(false);
}

/// Adds one optimizer result to `rec` (wall time from the solver's own
/// per-iteration records).
void record_design(LayerRecords& rec, const qoc::control::PulseOptimResult& r);

/// True when a design result is finite and did not end worse than it
/// began.  "Worse" is judged on the optimizer's objective (infidelity plus
/// the energy penalty): with the penalty on, an initial pulse that is
/// already exact may legitimately trade a little infidelity for energy.
bool design_ok(const qoc::control::PulseOptimResult& r);

/// Splitmix64 step: the benchmark's own fully specified input generator.
inline std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// One entry point per workload (see README.md for what each measures).
WorkloadResult run_paper_gates(const RunConfig& cfg, Tracer& tracer);
WorkloadResult run_design_sweep(const RunConfig& cfg, Tracer& tracer);
WorkloadResult run_fleet_service(const RunConfig& cfg, Tracer& tracer);

}  // namespace perfbench
