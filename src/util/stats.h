/**
 * @file
 * Lightweight statistics counters for the simulator.
 *
 * Modules register named counters on a StatGroup; benchmark harnesses
 * snapshot and diff them around regions of interest, in the same spirit
 * as gem5's stats package (though far smaller).
 */

#ifndef CHERIOT_UTIL_STATS_H
#define CHERIOT_UTIL_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cheriot
{

/**
 * Percentile of @p samples with linear interpolation between closest
 * ranks (the R-7 estimator: rank = p/100 * (n-1)). Unlike the
 * truncating nearest-rank picks the bench harnesses used to hand-roll,
 * small sample counts do not collapse the tail — p99 of 10 samples
 * interpolates between the two largest values instead of simply
 * returning the maximum. @p samples need not be sorted; a sorted copy
 * is taken. Returns 0 for an empty set.
 */
double percentileInterpolated(std::vector<uint64_t> samples, double p);

/**
 * Sampled-value distribution: records every observation and reports
 * count/min/max/mean plus interpolated percentiles. Used by bench
 * harnesses for latency distributions; not part of any snapshot.
 */
class Histogram
{
  public:
    void record(uint64_t value);

    uint64_t count() const { return samples_.size(); }
    uint64_t min() const;
    uint64_t max() const;
    double mean() const;
    /** Interpolated percentile (see percentileInterpolated). */
    double percentile(double p) const;
    /** Percentile rounded to the nearest integer (JSON-friendly). */
    uint64_t percentileRounded(double p) const;

    const std::vector<uint64_t> &samples() const { return samples_; }

  private:
    std::vector<uint64_t> samples_;
};

/** A named monotonically increasing 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    void operator+=(uint64_t delta) { value_ += delta; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }

    uint64_t value() const { return value_; }
    /** Overwrite the value; only for snapshot restore. */
    void set(uint64_t value) { value_ = value; }

  private:
    uint64_t value_ = 0;
};

/**
 * A collection of counters owned by one simulated component.
 *
 * Counters are registered by pointer so the owning component can bump
 * them without any lookup cost on the simulation fast path.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under @p name; returns @p counter. */
    Counter &registerCounter(const std::string &name, Counter &counter);

    /** Snapshot of all counters as name → value. */
    std::map<std::string, uint64_t> snapshot() const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<std::pair<std::string, Counter *>> counters_;
};

} // namespace cheriot

#endif // CHERIOT_UTIL_STATS_H
