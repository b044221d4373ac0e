/// \file trace.hpp
/// \brief The benchmark's own in-memory span recorder.  Spans wrap the
///        public library calls each workload makes, one layer per call site;
///        nothing inside the library is instrumented.  Spans are kept in
///        memory and written out once, at the end of the traced run.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The layer a public call belongs to.  `kPass` is the root span of one
/// workload pass; its time not covered by any layer span is `unattributed`.
enum class Layer : unsigned { kPass, kDevice, kControl, kRb, kPipeline, kService, kCount };

const char* layer_name(Layer layer);

struct SpanRecord {
    const char* name;         ///< string literal naming the public call
    Layer layer;
    std::uint32_t thread;     ///< benchmark thread index (first-use order)
    std::uint64_t id;         ///< 1-based
    std::uint64_t parent;     ///< enclosing span on the same logical path, 0 = root
    double t0_s;              ///< seconds since the tracer was constructed
    double t1_s;
};

class Tracer {
public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Recording on/off (off: spans still time their call, nothing is kept).
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Id of the innermost live span on this thread (0 = none).
    static std::uint64_t current();

    std::vector<SpanRecord> spans() const;

    /// Writes the spans as a chrome://tracing JSON file; false on I/O error.
    bool write_chrome_json(const std::string& path) const;

    /// RAII span around one call.  Always measures the call's wall time
    /// (`seconds()`), so untraced runs time exactly the same code paths;
    /// records a span only while the tracer is enabled.
    class Span {
    public:
        Span(Tracer& tracer, const char* name, Layer layer);
        ~Span() { stop(); }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

        /// Ends the span (idempotent) and returns its duration in seconds.
        double stop();

    private:
        Tracer& tracer_;
        const char* name_;
        Layer layer_;
        std::chrono::steady_clock::time_point t0_;
        std::uint64_t id_ = 0;
        std::uint64_t parent_ = 0;
        double seconds_ = -1.0;
    };

    /// Makes `parent` the current span of this thread for a scope, so spans
    /// opened on client threads nest under the pass span that started them.
    class Adopt {
    public:
        explicit Adopt(std::uint64_t parent);
        ~Adopt();
        Adopt(const Adopt&) = delete;
        Adopt& operator=(const Adopt&) = delete;

    private:
        std::uint64_t prev_;
    };

private:
    void record(const SpanRecord& span);

    std::chrono::steady_clock::time_point epoch_;
    std::atomic<bool> enabled_{false};  ///< read by client threads
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;  ///< guarded by mu_
    std::uint64_t next_id_ = 1;      ///< guarded by mu_
};

/// Per-layer inclusive and self time over every recorded pass.  Self time is
/// a span's duration minus that of its direct children.  Spans on
/// concurrent client threads add up as thread-seconds; `unattributed` is
/// pass wall time not covered by the union of any layer span.
struct LayerTable {
    struct Row {
        std::size_t spans = 0;
        double inclusive_s = 0.0;
        double self_s = 0.0;
    };
    std::array<Row, static_cast<std::size_t>(Layer::kCount)> rows{};
    std::size_t passes = 0;
    double pass_wall_s = 0.0;
    double unattributed_s = 0.0;
};

LayerTable layer_table(const std::vector<SpanRecord>& spans);

/// Durations (seconds) of the spans named `name`.
std::vector<double> span_seconds(const std::vector<SpanRecord>& spans, const char* name);

}  // namespace perfbench
