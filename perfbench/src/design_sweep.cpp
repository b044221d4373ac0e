/// design_sweep: one `DesignPipeline::run` batch per pass with
/// characterization off -- gate x design model x seed-derived durations and
/// initial pulses.  The executor and default gates are built in set-up, so a
/// pass is pure control/optim work on the task pool.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "device/calibration.hpp"
#include "experiments/design_pipeline.hpp"
#include "runtime/task_pool.hpp"

namespace perfbench {

namespace {

using namespace qoc;
using experiments::DesignModel;

constexpr DesignModel kModels[] = {DesignModel::kTwoLevelClosed, DesignModel::kThreeLevelClosed,
                                   DesignModel::kThreeLevelOpen};
constexpr const char* kGates[] = {"x", "sx", "h"};
constexpr control::InitialPulseType kInitial[] = {
    control::InitialPulseType::kDrag, control::InitialPulseType::kGaussian,
    control::InitialPulseType::kSine, control::InitialPulseType::kRandom};

/// The batch for `seed`: per gate and design model, a grid of optimizer
/// seeds x durations, with a seed-drawn initial pulse family per cell.
std::vector<experiments::GateJob1Q> make_jobs(std::uint64_t seed, bool tiny) {
    std::uint64_t state = seed * 0x2545f4914f6cdd1dull + 11;
    std::vector<experiments::GateJob1Q> jobs;
    for (const char* gate : kGates) {
        for (DesignModel model : kModels) {
            const bool open = model == DesignModel::kThreeLevelOpen;
            experiments::GateJob1Q job;
            job.gate_name = gate;
            job.qubit = 0;
            job.characterize = false;
            job.spec.target = experiments::ideal_1q_gate(gate);
            job.spec.model = model;
            job.spec.use_y_control = std::string(gate) != "sx";
            job.spec.n_timeslots = open ? 16 : 24;
            job.spec.max_iterations = open ? 40 : 80;
            job.spec.seed = kInitial[splitmix64(state) % 4];
            const std::size_t n_seeds = tiny ? 1 : 3;
            const std::size_t n_durations = tiny ? 1 : 4;
            for (std::size_t i = 0; i < n_seeds; ++i) job.seeds.push_back(splitmix64(state) % 1000);
            for (std::size_t i = 0; i < n_durations; ++i) {
                // 96..480 dt in 16-dt steps (21 ns .. 107 ns).
                job.durations_dt.push_back(96 + 16 * (splitmix64(state) % 25));
            }
            jobs.push_back(std::move(job));
            if (tiny) break;  // one model per gate at tiny size
        }
    }
    return jobs;
}

}  // namespace

WorkloadResult run_design_sweep(const RunConfig& cfg, Tracer& tracer) {
    WorkloadResult res;

    // Set-up before every batch: task pool start, executor, default-gate
    // calibration, the pipeline and the batch.  Each batch is drawn afresh
    // from the seed and the pass index, so a run averages over batches.
    const device::BackendConfig config = device::ibmq_montreal();
    std::unique_ptr<device::PulseExecutor> exec;
    pulse::InstructionScheduleMap defaults;
    std::unique_ptr<experiments::DesignPipeline> pipeline;
    std::vector<experiments::GateJob1Q> jobs;
    std::vector<double> calibrate_s;
    CpuRotation cpus;  // batch p: the caller on CPU slot p, the workers elsewhere
    const auto prepare = [&](std::uint64_t pass) {
        cpus.restart_pool(pass);
        pipeline.reset();
        exec = std::make_unique<device::PulseExecutor>(config);
        const auto t0 = Clock::now();
        defaults = device::build_default_gates(*exec);
        calibrate_s.push_back(seconds_since(t0));
        experiments::DesignPipelineOptions opts;
        opts.characterize = false;
        pipeline = std::make_unique<experiments::DesignPipeline>(*exec, defaults, opts);
        jobs = make_jobs(cfg.seed * 0x9e3779b97f4a7c15ull + pass, cfg.tiny);
    };

    std::vector<double> batch_s, candidate_s, designs_per_s;
    std::uint64_t candidates = 0;
    std::size_t cells_held = 0;
    run_passes(cfg, tracer, res, prepare, [&](LayerRecords* rec) {
        Tracer::Span span(tracer, "DesignPipeline::run", Layer::kPipeline);
        const experiments::PipelineResult out = pipeline->run(jobs);
        const double s = span.stop();
        batch_s.push_back(s);
        std::size_t n = 0;
        cells_held = 0;
        for (const auto& g : out.gates) {
            for (const auto& c : g.candidates) {
                ++n;
                const auto& r = c.gate.optim;
                res.ops.check(design_ok(r), "design " + g.gate_name + " @" +
                                                std::to_string(c.duration_dt) +
                                                " dt: non-finite or objective above its start");
                if (!r.iteration_records.empty()) {
                    candidate_s.push_back(r.iteration_records.back().wall_time_s);
                }
                if (rec != nullptr) record_design(*rec, r);
            }
            // A (gate, model) cell holds when the sweep found it a usable
            // pulse: best model infidelity below 1%.
            cells_held += g.best().model_fid_err < 1e-2 ? 1 : 0;
        }
        candidates += n;
        designs_per_s.push_back(static_cast<double>(n) / s);
    });

    res.end_to_end = {
        {"setup_s", median(res.setup_s), "s"},
        {"paper_s", median(batch_s), "s"},
        {"claims_held", static_cast<double>(cells_held), "count"},
        {"designs_per_s", median(designs_per_s), "1/s"},
        {"request_us_p50", 1e6 * quantile(candidate_s, 0.5), "us"},
        {"request_ms_p99", 1e3 * quantile(candidate_s, 0.99), "ms"},
        {"refresh_s_p50", median(calibrate_s), "s"},
    };
    std::printf("design_sweep: %zu jobs, %llu candidates designed over %zu batch(es)\n",
                jobs.size(), static_cast<unsigned long long>(candidates), batch_s.size());
    return res;
}

}  // namespace perfbench
