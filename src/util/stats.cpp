#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace cheriot
{

double
percentileInterpolated(std::vector<uint64_t> samples, double p)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    p = std::clamp(p, 0.0, 100.0);
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(samples[lo]) +
           frac * (static_cast<double>(samples[hi]) -
                   static_cast<double>(samples[lo]));
}

void
Histogram::record(uint64_t value)
{
    samples_.push_back(value);
}

uint64_t
Histogram::min() const
{
    if (samples_.empty()) {
        return 0;
    }
    return *std::min_element(samples_.begin(), samples_.end());
}

uint64_t
Histogram::max() const
{
    if (samples_.empty()) {
        return 0;
    }
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Histogram::mean() const
{
    if (samples_.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (uint64_t s : samples_) {
        sum += static_cast<double>(s);
    }
    return sum / static_cast<double>(samples_.size());
}

double
Histogram::percentile(double p) const
{
    return percentileInterpolated(samples_, p);
}

uint64_t
Histogram::percentileRounded(double p) const
{
    return static_cast<uint64_t>(std::llround(percentile(p)));
}

Counter &
StatGroup::registerCounter(const std::string &name, Counter &counter)
{
    counters_.emplace_back(name, &counter);
    return counter;
}

std::map<std::string, uint64_t>
StatGroup::snapshot() const
{
    std::map<std::string, uint64_t> result;
    for (const auto &[name, counter] : counters_) {
        result[name_ + "." + name] = counter->value();
    }
    return result;
}

} // namespace cheriot
