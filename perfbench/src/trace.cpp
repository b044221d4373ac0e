#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

}  // namespace

const char* layer_name(Layer layer) {
    switch (layer) {
        case Layer::kPass: return "pass";
        case Layer::kDevice: return "device";
        case Layer::kControl: return "control";
        case Layer::kRb: return "rb";
        case Layer::kPipeline: return "pipeline";
        case Layer::kService: return "service";
        case Layer::kCount: break;
    }
    return "?";
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::current() { return t_current_span; }

std::vector<SpanRecord> Tracer::spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

void Tracer::record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(span);
}

Tracer::Span::Span(Tracer& tracer, const char* name, Layer layer)
    : tracer_(tracer), name_(name), layer_(layer) {
    if (tracer_.enabled()) {
        {
            std::lock_guard<std::mutex> lk(tracer_.mu_);
            id_ = tracer_.next_id_++;
        }
        parent_ = t_current_span;
        t_current_span = id_;
    }
    t0_ = std::chrono::steady_clock::now();
}

double Tracer::Span::stop() {
    if (seconds_ >= 0.0) return seconds_;
    const auto t1 = std::chrono::steady_clock::now();
    seconds_ = std::chrono::duration<double>(t1 - t0_).count();
    if (id_ != 0) {
        t_current_span = parent_;
        const auto since = [this](std::chrono::steady_clock::time_point t) {
            return std::chrono::duration<double>(t - tracer_.epoch_).count();
        };
        tracer_.record({name_, layer_, thread_index(), id_, parent_, since(t0_), since(t1)});
    }
    return seconds_;
}

Tracer::Adopt::Adopt(std::uint64_t parent) : prev_(t_current_span) {
    t_current_span = parent;
}

Tracer::Adopt::~Adopt() { t_current_span = prev_; }

bool Tracer::write_chrome_json(const std::string& path) const {
    const std::vector<SpanRecord> all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord& s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}%s\n",
                     s.name, layer_name(s.layer), s.thread, 1e6 * s.t0_s,
                     1e6 * (s.t1_s - s.t0_s), static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

LayerTable layer_table(const std::vector<SpanRecord>& spans) {
    LayerTable table;
    std::unordered_map<std::uint64_t, double> child_s;
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> child_intervals;
    for (const SpanRecord& s : spans) {
        if (s.parent == 0) continue;
        child_s[s.parent] += s.t1_s - s.t0_s;
        child_intervals[s.parent].emplace_back(s.t0_s, s.t1_s);
    }
    for (const SpanRecord& s : spans) {
        const double dur = s.t1_s - s.t0_s;
        auto& row = table.rows[static_cast<std::size_t>(s.layer)];
        ++row.spans;
        row.inclusive_s += dur;
        const auto it = child_s.find(s.id);
        row.self_s += std::max(0.0, dur - (it == child_s.end() ? 0.0 : it->second));
        if (s.layer != Layer::kPass) continue;
        ++table.passes;
        table.pass_wall_s += dur;
        // Union of the child intervals (children may overlap in time when
        // they run on concurrent client threads).
        std::vector<std::pair<double, double>> iv = child_intervals[s.id];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double end = s.t0_s;
        for (const auto& [a, b] : iv) {
            const double lo = std::max(a, end);
            if (b > lo) {
                covered += b - lo;
                end = b;
            }
        }
        table.unattributed_s += std::max(0.0, dur - covered);
    }
    return table;
}

std::vector<double> span_seconds(const std::vector<SpanRecord>& spans, const char* name) {
    std::vector<double> out;
    for (const SpanRecord& s : spans) {
        if (std::strcmp(s.name, name) == 0) out.push_back(s.t1_s - s.t0_s);
    }
    return out;
}

}  // namespace perfbench
