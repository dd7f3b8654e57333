/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span wraps one call the benchmark program makes into a simulator
 * layer. Each records a name, start, end, parent span and op id. Every
 * span feeds a per-name aggregate (count, total and self time, where
 * self time is the duration minus the part covered by child spans);
 * the first kMaxRecords spans are also kept verbatim and written once
 * at exit as Chrome trace-event JSON (loadable in Perfetto). Spans are
 * recorded only while the recorder is active, so untraced units pay a
 * single branch per span site.
 */

#ifndef CHERIOT_PERFBENCH_TRACE_H
#define CHERIOT_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    struct Aggregate
    {
        const char *name = nullptr;
        uint64_t count = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };

    /** Spans kept verbatim for the Chrome trace; the rest are only
     * aggregated (and counted as dropped). */
    static constexpr size_t kMaxRecords = 200'000;

    void setActive(bool active) { active_ = active; }
    bool active() const { return active_; }

    /** Open a span; @p name must be a string literal (aggregates are
     * keyed by pointer). */
    void begin(const char *name, uint64_t op)
    {
        stack_.push_back({name, nowNs(), 0, nextId_++,
                          stack_.empty() ? -1 : stack_.back().id, op});
    }

    void end()
    {
        const int64_t endNs = nowNs();
        const Open open = stack_.back();
        stack_.pop_back();
        const int64_t duration = endNs - open.startNs;
        Aggregate &agg = aggregateFor(open.name);
        agg.count++;
        agg.totalNs += duration;
        agg.selfNs += duration - open.childNs;
        if (!stack_.empty()) {
            stack_.back().childNs += duration;
        }
        if (records_.size() < kMaxRecords) {
            records_.push_back({open.name, open.startNs, endNs, open.id,
                                open.parent, open.op});
        } else {
            dropped_++;
        }
    }

    /** Aggregate for @p name (all zero when never recorded). */
    Aggregate aggregate(const char *name) const
    {
        for (const Aggregate &agg : aggregates_) {
            if (agg.name == name) {
                return agg;
            }
        }
        return {name, 0, 0, 0};
    }

    const std::vector<Aggregate> &aggregates() const { return aggregates_; }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr) {
            return false;
        }
        const int64_t origin =
            records_.empty() ? 0 : records_.front().startNs;
        std::fprintf(out, "{\"displayTimeUnit\": \"ns\", "
                          "\"otherData\": {\"dropped_spans\": %llu}, "
                          "\"traceEvents\": [\n",
                     static_cast<unsigned long long>(dropped_));
        for (size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            std::fprintf(out,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %d, \"parent\": %d, "
                         "\"op\": %llu}}%s\n",
                         r.name, static_cast<double>(r.startNs - origin) / 1e3,
                         static_cast<double>(r.endNs - r.startNs) / 1e3, r.id,
                         r.parent, static_cast<unsigned long long>(r.op),
                         i + 1 < records_.size() ? "," : "");
        }
        std::fprintf(out, "]}\n");
        return std::fclose(out) == 0;
    }

  private:
    struct Open
    {
        const char *name;
        int64_t startNs;
        int64_t childNs;
        int32_t id;
        int32_t parent;
        uint64_t op;
    };
    struct Record
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int32_t id;
        int32_t parent;
        uint64_t op;
    };

    Aggregate &aggregateFor(const char *name)
    {
        for (Aggregate &agg : aggregates_) {
            if (agg.name == name) {
                return agg;
            }
        }
        aggregates_.push_back({name, 0, 0, 0});
        return aggregates_.back();
    }

    bool active_ = false;
    int32_t nextId_ = 0;
    uint64_t dropped_ = 0;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::vector<Aggregate> aggregates_;
};

/** RAII span: records only while the tracer is active. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, uint64_t op)
        : tracer_(tracer.active() ? &tracer : nullptr)
    {
        if (tracer_ != nullptr) {
            tracer_->begin(name, op);
        }
    }
    ~Span()
    {
        if (tracer_ != nullptr) {
            tracer_->end();
        }
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

} // namespace perfbench

#endif // CHERIOT_PERFBENCH_TRACE_H
