#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>

#include "runtime/task_pool.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

ObsSnapshot ObsSnapshot::take() {
    ObsSnapshot s;
    for (std::size_t i = 0; i < s.counters.size(); ++i) {
        s.counters[i] = qoc::obs::counter_value(static_cast<qoc::obs::Cnt>(i));
    }
    for (std::size_t i = 0; i < s.hists.size(); ++i) {
        s.hists[i] = qoc::obs::hist_snapshot(static_cast<qoc::obs::Hist>(i));
    }
    return s;
}

ObsSnapshot ObsSnapshot::since(const ObsSnapshot& before) const {
    ObsSnapshot d = *this;
    for (std::size_t i = 0; i < d.counters.size(); ++i) d.counters[i] -= before.counters[i];
    for (std::size_t i = 0; i < d.hists.size(); ++i) {
        d.hists[i].count -= before.hists[i].count;
        d.hists[i].sum -= before.hists[i].sum;
        for (std::size_t b = 0; b < d.hists[i].buckets.size(); ++b) {
            d.hists[i].buckets[b] -= before.hists[i].buckets[b];
        }
    }
    return d;
}

void record_design(LayerRecords& rec, const qoc::control::PulseOptimResult& r) {
    const double ms =
        r.iteration_records.empty() ? 0.0 : 1e3 * r.iteration_records.back().wall_time_s;
    (r.open_system ? rec.design_open_ms : rec.design_closed_ms).push_back(ms);
    rec.optim_iterations += static_cast<std::uint64_t>(r.iterations);
    rec.optim_evaluations += static_cast<std::uint64_t>(r.evaluations);
    ++rec.designs;
    using qoc::optim::StopReason;
    if (r.reason == StopReason::kConverged || r.reason == StopReason::kFtolReached ||
        r.reason == StopReason::kTargetReached) {
        ++rec.designs_converged;
    }
}

bool design_ok(const qoc::control::PulseOptimResult& r) {
    if (!std::isfinite(r.initial_fid_err) || !std::isfinite(r.final_fid_err)) return false;
    if (r.iteration_records.empty()) return r.final_fid_err <= r.initial_fid_err;
    const double first = r.iteration_records.front().cost;
    const double last = r.iteration_records.back().cost;
    return std::isfinite(first) && std::isfinite(last) && last <= first;
}

CpuRotation::CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
        }
    }
}

namespace {

void pin_calling_thread(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);  // best effort: unpinned on failure
}

}  // namespace

void CpuRotation::pin(std::size_t slot) const {
    if (cpus_.empty()) return;
    pin_calling_thread({cpus_[slot % cpus_.size()]});
}

void CpuRotation::release() const { pin_calling_thread(cpus_); }

void CpuRotation::restart_pool(std::size_t slot) const {
    // Workers inherit the affinity of the thread that creates them.
    std::vector<int> others;
    for (std::size_t i = 1; i < cpus_.size(); ++i) {
        others.push_back(cpus_[(slot + i) % cpus_.size()]);
    }
    pin_calling_thread(others.empty() ? cpus_ : others);
    qoc::runtime::TaskPool::set_global_pool_size(qoc::runtime::TaskPool::default_pool_size());
    pin(slot);
}

}  // namespace perfbench
