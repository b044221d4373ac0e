/// qoc_perfbench: the repository benchmark's measuring program.
///
///   qoc_perfbench --workload <paper_gates|design_sweep|fleet_service>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 --claims <paper_claims.tsv> [--trace-out <file>]
///                 [--commit <id>] [--tiny]
///
/// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
/// (--trace 1) report the per-layer metrics, the layer table and the tracing
/// overhead.  The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// perfbench/run.py builds this program and sets the thread count each
/// workload is pinned to; see perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "runtime/task_pool.hpp"

namespace perfbench {

namespace {

using qoc::obs::Cnt;
using qoc::obs::Hist;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of a traced run (README.md lists what each should
/// move).  Wall times come from the benchmark's spans, counts from the obs
/// deltas and optimizer/service records of the first traced pass.
std::vector<Metric> layer_metrics(const WorkloadResult& res, const std::vector<SpanRecord>& spans,
                                  const LayerTable& table) {
    const LayerRecords& r = res.layer;
    const ObsSnapshot& c = res.pass_counts;
    const auto n = [&](Cnt k) { return static_cast<double>(c.count(k)); };
    const auto hist_p50 = [&](Hist h) { return qoc::obs::hist_quantile(c.hist(h), 0.5); };

    std::vector<double> calibrate;
    for (const char* name : {"device::build_default_gates", "CalibrationService::register_device",
                             "CalibrationService::update_device"}) {
        const auto s = span_seconds(spans, name);
        calibrate.insert(calibrate.end(), s.begin(), s.end());
    }
    const double expm_calls = n(Cnt::kExpmPade3) + n(Cnt::kExpmPade5) + n(Cnt::kExpmPade7) +
                              n(Cnt::kExpmPade9) + n(Cnt::kExpmPade13);
    const double passes = std::max<double>(1.0, static_cast<double>(table.passes));
    const auto self_s = [&](Layer l) {
        return table.rows[static_cast<std::size_t>(l)].self_s / passes;
    };
    const double overhead_s = median(res.traced_pass_s) - median(res.pass_s);

    return {
        // device
        {"device.calibrate_s_p50", median(calibrate), "s"},
        {"device.calibrations", static_cast<double>(r.calibrations), "count"},
        {"executor.prop_cache.hit_ratio",
         ratio(n(Cnt::kPropCacheHits), n(Cnt::kPropCacheHits) + n(Cnt::kPropCacheMisses)),
         "ratio"},
        // control / optim
        {"control.design_open_ms_p50", median(r.design_open_ms), "ms"},
        {"control.design_closed_ms_p50", median(r.design_closed_ms), "ms"},
        {"optim.iterations", static_cast<double>(r.optim_iterations), "count"},
        {"optim.evaluations", static_cast<double>(r.optim_evaluations), "count"},
        {"optim.converged_ratio",
         ratio(static_cast<double>(r.designs_converged), static_cast<double>(r.designs)),
         "ratio"},
        {"optim.dispatches", n(Cnt::kSolverDispatches), "count"},
        {"lbfgsb.line_search_evals_p50", hist_p50(Hist::kLbfgsbLineSearchEvals), "count"},
        // rb / experiments
        {"rb.irb_1q_s_p50", median(span_seconds(spans, "experiments::compare_1q_gate")), "s"},
        {"rb.irb_2q_s", median(span_seconds(spans, "experiments::compare_cx_gate")), "s"},
        {"rb.clifford_memo.hit_ratio",
         ratio(n(Cnt::kCliffMemoHits), n(Cnt::kCliffMemoHits) + n(Cnt::kCliffMemoMisses)),
         "ratio"},
        {"pipeline.run_s", median(span_seconds(spans, "DesignPipeline::run")), "s"},
        // quantum / linalg (exact counts of one pass)
        {"quantum.superop.applies", n(Cnt::kSuperopApplies), "count"},
        {"quantum.superop.kron_applies", n(Cnt::kSuperopKronApplies), "count"},
        {"quantum.superop.csr_applies", n(Cnt::kSuperopCsrApplies), "count"},
        {"quantum.superop.batch_applies", n(Cnt::kSuperopBatchApplies), "count"},
        {"linalg.gemm.calls", n(Cnt::kGemmCalls), "count"},
        {"linalg.gemv.calls", n(Cnt::kGemvCalls), "count"},
        {"linalg.lu.factorizations", n(Cnt::kLuFactorizations), "count"},
        {"linalg.expm.calls", expm_calls, "count"},
        {"linalg.expm.pade3_calls", n(Cnt::kExpmPade3), "count"},
        {"linalg.expm.pade5_calls", n(Cnt::kExpmPade5), "count"},
        {"linalg.expm.pade7_calls", n(Cnt::kExpmPade7), "count"},
        {"linalg.expm.pade9_calls", n(Cnt::kExpmPade9), "count"},
        {"linalg.expm.pade13_calls", n(Cnt::kExpmPade13), "count"},
        {"linalg.expm.spectral_calls", n(Cnt::kExpmSpectral), "count"},
        {"linalg.expm.pade13_share", ratio(n(Cnt::kExpmPade13), expm_calls), "ratio"},
        // service
        {"service.hit_us_p50", median(r.hit_us), "us"},
        {"service.design_ms_p50", median(r.design_ms), "ms"},
        {"service.revalidate_ms_p50", median(r.revalidate_ms), "ms"},
        {"service.hit_ratio",
         ratio(static_cast<double>(r.hits), static_cast<double>(r.requests)), "ratio"},
        {"service.shed", static_cast<double>(r.shed), "count"},
        // runtime
        {"runtime.pool.queue_wait_us_p50", 1e-3 * hist_p50(Hist::kPoolQueueWait), "us"},
        // trace: per-pass self time by layer, the unattributed rest, overhead
        {"trace.device.self_s", self_s(Layer::kDevice), "s"},
        {"trace.control.self_s", self_s(Layer::kControl), "s"},
        {"trace.rb.self_s", self_s(Layer::kRb), "s"},
        {"trace.pipeline.self_s", self_s(Layer::kPipeline), "s"},
        {"trace.service.self_s", self_s(Layer::kService), "s"},
        {"trace.unattributed_s", table.unattributed_s / passes, "s"},
        {"trace.unattributed_share", ratio(table.unattributed_s, table.pass_wall_s), "ratio"},
        {"trace.overhead_s", overhead_s, "s"},
    };
}

void print_layer_table(const LayerTable& t, double overhead_s, std::size_t traced_passes) {
    std::printf("\n== per-layer time over %zu traced pass(es) (thread-seconds) ==\n",
                t.passes);
    std::printf("%-14s %8s %14s %14s %9s\n", "layer", "spans", "inclusive_s", "self_s",
                "of_wall");
    for (std::size_t i = 1; i < t.rows.size(); ++i) {
        const auto& row = t.rows[i];
        std::printf("%-14s %8zu %14.6f %14.6f %8.1f%%\n", layer_name(static_cast<Layer>(i)),
                    row.spans, row.inclusive_s, row.self_s,
                    100.0 * ratio(row.self_s, t.pass_wall_s));
    }
    std::printf("%-14s %8s %14s %14.6f %8.1f%%\n", "unattributed", "-", "-", t.unattributed_s,
                100.0 * ratio(t.unattributed_s, t.pass_wall_s));
    std::printf("%-14s %8zu %14.6f\n", "pass wall", t.passes, t.pass_wall_s);
    std::printf("tracing overhead: %+.6f s per pass (median traced pass minus the untraced "
                "reference pass; %zu traced)\n",
                overhead_s, traced_passes);
}

void print_counts(const ObsSnapshot& c) {
    std::printf("\n== exact counts of the first traced pass ==\n");
    for (std::size_t i = 0; i < c.counters.size(); ++i) {
        if (c.counters[i] == 0) continue;
        std::printf("  %-36s %llu\n", qoc::obs::counter_name(static_cast<Cnt>(i)),
                    static_cast<unsigned long long>(c.counters[i]));
    }
}

/// Prints `v` as a JSON number with all its digits (non-finite values are
/// not JSON; they print as 0 and fail the run).
void print_json_number(double v) {
    std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

int usage(const char* msg) {
    std::fprintf(stderr, "qoc_perfbench: %s\n", msg);
    std::fprintf(stderr,
                 "usage: qoc_perfbench --workload <paper_gates|design_sweep|fleet_service> "
                 "--seed <n> --seconds <s> --trace <0|1> --claims <file> "
                 "[--trace-out <file>] [--commit <id>] [--tiny]\n");
    return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    RunConfig cfg;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            cfg.tiny = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            cfg.workload = argv[++i];
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            cfg.seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            cfg.trace = std::string(argv[++i]) == "1";
        } else if (a == "--claims") {
            cfg.claims_path = argv[++i];
        } else if (a == "--trace-out") {
            cfg.trace_out = argv[++i];
        } else if (a == "--commit") {
            commit = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (cfg.workload.empty()) return usage("--workload is required");

    // Refuse to record from builds whose numbers are not comparable.
    const std::string build_type = QOC_PERFBENCH_BUILD_TYPE;
#if defined(NDEBUG)
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
#if defined(QOC_CONTRACTS_ENABLED)
    const bool contracts = true;
#else
    const bool contracts = false;
#endif
    if (build_type != "Release" || asserts || contracts || QOC_PERFBENCH_INSTRUMENTED != 0) {
        std::fprintf(stderr,
                     "qoc_perfbench: refusing to record: build type '%s'%s%s%s; configure a "
                     "plain Release build\n",
                     build_type.c_str(), asserts ? ", assertions on" : "",
                     contracts ? ", contracts on" : "",
                     QOC_PERFBENCH_INSTRUMENTED != 0 ? ", sanitizer/contracts option on" : "");
        return 3;
    }

    const char* threads_env = std::getenv("QOC_THREADS");
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0, cfg.tiny ? 1 : 0);
    std::printf("build=%s QOC_THREADS=%s pool=%zu nproc=%u commit=%s\n", build_type.c_str(),
                threads_env != nullptr ? threads_env : "unset",
                qoc::runtime::TaskPool::default_pool_size(),
                std::thread::hardware_concurrency(), commit.c_str());
    std::fflush(stdout);

    Tracer tracer;
    WorkloadResult res;
    try {
        if (cfg.workload == "paper_gates") {
            res = run_paper_gates(cfg, tracer);
        } else if (cfg.workload == "design_sweep") {
            res = run_design_sweep(cfg, tracer);
        } else if (cfg.workload == "fleet_service") {
            res = run_fleet_service(cfg, tracer);
        } else {
            return usage(("unknown workload " + cfg.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qoc_perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
        return 1;
    }

    std::vector<Metric> metrics = res.end_to_end;
    if (cfg.trace) {
        const std::vector<SpanRecord> spans = tracer.spans();
        const LayerTable table = layer_table(spans);
        metrics = layer_metrics(res, spans, table);
        print_layer_table(table, median(res.traced_pass_s) - median(res.pass_s),
                          res.traced_pass_s.size());
        print_counts(res.pass_counts);
        if (!cfg.trace_out.empty() && !tracer.write_chrome_json(cfg.trace_out)) {
            res.ops.fail("cannot write trace file " + cfg.trace_out);
        }
    }

    std::printf("\n== %s metrics ==\n", cfg.trace ? "per-layer" : "end-to-end");
    for (const Metric& m : metrics) {
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        if (!std::isfinite(m.value)) res.ops.fail("metric " + m.name + " is not finite");
    }
    std::printf("attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(res.ops.attempted()),
                static_cast<unsigned long long>(res.ops.failed()));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                res.ops.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.ops.attempted()),
                static_cast<unsigned long long>(res.ops.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", metrics[i].name.c_str());
        print_json_number(metrics[i].value);
        std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
