/// fleet_service: a drifting device fleet behind one `CalibrationService`
/// per pass.  Each day every device is refreshed (`register_device` on day
/// 0, `update_device` after), then two client threads drain the day's
/// requests from `service::fleet_workload` in a closed loop, each sending
/// its next request only when the previous one returned.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "runtime/task_pool.hpp"
#include "service/fleet_driver.hpp"

namespace perfbench {

namespace {

using namespace qoc;

constexpr std::size_t kClients = 2;

struct Sample {
    service::ResponseStatus status;
    double seconds;
};

/// True when a served pulse is usable: not shed, finite, every quadrature
/// within the design's amplitude bound.
bool response_ok(const service::PulseResponse& r, double amp_bound, std::string& why) {
    if (r.status == service::ResponseStatus::kShed) {
        why = "shed";
        return false;
    }
    if (!std::isfinite(r.pulse.model_fid_err)) {
        why = "non-finite model error";
        return false;
    }
    if (r.pulse.channels.empty()) {
        why = "no samples";
        return false;
    }
    const double lim = amp_bound * (1.0 + 1e-9);
    for (const auto& ch : r.pulse.channels) {
        for (const auto& s : ch.samples) {
            if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) {
                why = "non-finite sample";
                return false;
            }
            if (std::abs(s.real()) > lim || std::abs(s.imag()) > lim) {
                why = "sample beyond amp_bound";
                return false;
            }
        }
    }
    return true;
}

}  // namespace

WorkloadResult run_fleet_service(const RunConfig& cfg, Tracer& tracer) {
    WorkloadResult res;

    service::FleetOptions fleet;
    fleet.n_devices = 2;
    fleet.n_days = cfg.tiny ? 2 : 4;
    fleet.requests_per_day = cfg.tiny ? 16 : 600;
    // Drift tolerances of about one daily kick (the service defaults allow
    // ~10), so every day demotes entries and revalidation traffic is part
    // of the mix, not a rare event.
    fleet.service.tolerance.detuning_abs = 1.5e-4;
    fleet.service.tolerance.amp_rel = 0.004;
    fleet.service.tolerance.t1_rel = 0.06;
    fleet.service.tolerance.t2_rel = 0.06;

    // Set-up before every pass: a fresh fleet realization (drift and
    // workload seeds drawn from the benchmark seed and the pass index), its
    // request log and every day's device snapshots.  Cycling realizations
    // within a run averages over fleets instead of timing one of them.
    std::vector<io::RequestLogRecord> log;
    std::vector<std::vector<device::BackendConfig>> snapshots;  // [day][device]
    std::size_t pass_index = 0;
    const auto prepare = [&](std::uint64_t pass) {
        runtime::TaskPool::global();
        pass_index = pass;
        std::uint64_t state = cfg.seed * 0x9e3779b97f4a7c15ull + pass;
        fleet.drift_seed = splitmix64(state) % 100000;
        fleet.workload_seed = splitmix64(state) % 100000;
        log = service::fleet_workload(fleet);
        snapshots.assign(static_cast<std::size_t>(fleet.n_days), {});
        for (std::size_t d = 0; d < fleet.n_devices; ++d) {
            const device::DriftModel model(fleet.base, fleet.drift_seed + d, fleet.drift);
            for (int day = 0; day < fleet.n_days; ++day) {
                snapshots[static_cast<std::size_t>(day)].push_back(model.device_on_day(day));
            }
        }
    };

    // Refresh i of pass p runs on CPU slot p + i, like paper_gates' calls;
    // the clients are left to the scheduler (pinning them changes how they
    // contend on the service's locks).
    CpuRotation cpus;
    std::vector<double> refresh_s, request_s, designs_s;
    std::size_t days_hit_dominated = 0;
    std::mutex mu;  // guards `res.ops` and the sample vectors across clients

    run_passes(cfg, tracer, res, prepare, [&](LayerRecords* rec) {
        service::CalibrationService svc(fleet.service);
        const std::uint64_t pass_span = Tracer::current();
        days_hit_dominated = 0;
        std::size_t pos = 0;
        std::size_t slot = pass_index;
        for (int day = 0; day < fleet.n_days; ++day) {
            for (std::size_t d = 0; d < fleet.n_devices; ++d) {
                cpus.pin(slot++);
                const auto& snap = snapshots[static_cast<std::size_t>(day)][d];
                if (day == 0) {
                    Tracer::Span span(tracer, "CalibrationService::register_device",
                                      Layer::kDevice);
                    svc.register_device(d, snap);
                    refresh_s.push_back(span.stop());
                } else {
                    Tracer::Span span(tracer, "CalibrationService::update_device",
                                      Layer::kDevice);
                    svc.update_device(d, snap);
                    refresh_s.push_back(span.stop());
                }
                res.ops.attempt();
                if (rec != nullptr) ++rec->calibrations;
            }
            const std::size_t begin = pos;
            while (pos < log.size() && log[pos].day == day) ++pos;
            const std::size_t end = pos;

            std::atomic<std::size_t> next{begin};
            std::vector<Sample> samples;
            const auto client = [&] {
                cpus.release();
                Tracer::Adopt adopt(pass_span);
                std::vector<Sample> mine;
                mine.reserve(end - begin);
                Ops ops;  // merged once the day is drained: no lock per request
                for (std::size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
                    const auto& r = log[i];
                    service::PulseRequest req;
                    req.gate = r.gate;
                    req.qubit = r.qubit;
                    req.duration_dt = r.duration_dt;
                    req.n_timeslots = r.n_timeslots;
                    req.max_iterations = static_cast<int>(r.max_iterations);
                    req.design_seed = r.design_seed;
                    req.priority = static_cast<unsigned>(r.priority);
                    std::string why;
                    bool ok = false;
                    service::PulseResponse resp;
                    double s = 0.0;
                    try {
                        Tracer::Span span(tracer, "CalibrationService::request", Layer::kService);
                        resp = svc.request(r.device_id, req, r.index);
                        s = span.stop();
                        ok = response_ok(resp, fleet.service.amp_bound, why);
                    } catch (const std::exception& e) {
                        why = e.what();
                    }
                    mine.push_back({resp.status, s});
                    ops.attempt();
                    if (!ok) ops.fail("request " + std::to_string(r.index) + ": " + why);
                }
                std::lock_guard<std::mutex> lk(mu);
                res.ops.merge(ops);
                samples.insert(samples.end(), mine.begin(), mine.end());
            };
            std::vector<std::thread> clients;
            for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
            for (auto& t : clients) t.join();

            std::size_t hits = 0;
            for (const Sample& s : samples) {
                request_s.push_back(s.seconds);
                hits += s.status == service::ResponseStatus::kHit ? 1 : 0;
                if (s.status == service::ResponseStatus::kDesigned) designs_s.push_back(s.seconds);
                if (rec == nullptr) continue;
                ++rec->requests;
                switch (s.status) {
                    case service::ResponseStatus::kHit:
                        ++rec->hits;
                        rec->hit_us.push_back(1e6 * s.seconds);
                        break;
                    case service::ResponseStatus::kDesigned:
                        rec->design_ms.push_back(1e3 * s.seconds);
                        break;
                    case service::ResponseStatus::kRevalidated:
                        rec->revalidate_ms.push_back(1e3 * s.seconds);
                        break;
                    case service::ResponseStatus::kShed: ++rec->shed; break;
                }
            }
            days_hit_dominated += 2 * hits >= samples.size() ? 1 : 0;
        }
    });

    res.end_to_end = {
        {"setup_s", median(res.setup_s), "s"},
        {"paper_s", median(res.pass_s), "s"},
        {"claims_held", static_cast<double>(days_hit_dominated), "count"},
        {"designs_per_s", designs_s.empty() ? 0.0 : 1.0 / median(designs_s), "1/s"},
        {"request_us_p50", 1e6 * quantile(request_s, 0.5), "us"},
        {"request_ms_p99", 1e3 * quantile(request_s, 0.99), "ms"},
        {"refresh_s_p50", median(refresh_s), "s"},
    };
    std::printf("fleet_service: %zu device(s) x %d day(s) x %zu request(s)/day, %zu pass(es), "
                "%zu requests timed\n",
                fleet.n_devices, fleet.n_days, fleet.requests_per_day, res.pass_s.size(),
                request_s.size());
    return res;
}

}  // namespace perfbench
