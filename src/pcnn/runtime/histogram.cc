#include "pcnn/runtime/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace pcnn {

double
percentileOfSorted(const std::vector<double> &sorted, double p)
{
    pcnn_assert(!sorted.empty(), "percentile of empty sample");
    pcnn_assert(p >= 0.0 && p <= 1.0, "percentile p out of [0,1]");
    const double idx = p * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(idx);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double t = idx - double(lo);
    return sorted[lo] + t * (sorted[hi] - sorted[lo]);
}

LatencySummary
summarizeLatencies(std::vector<double> samples)
{
    LatencySummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.count = samples.size();
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    s.meanS = sum / double(s.count);
    s.minS = samples.front();
    s.maxS = samples.back();
    s.p50S = percentileOfSorted(samples, 0.50);
    s.p95S = percentileOfSorted(samples, 0.95);
    s.p99S = percentileOfSorted(samples, 0.99);
    s.p999S = percentileOfSorted(samples, 0.999);
    return s;
}

std::size_t
LatencyHistogram::bucketOf(std::uint64_t ns)
{
    constexpr std::uint64_t kSub = std::uint64_t(1) << kSubBits;
    if (ns < kSub)
        return std::size_t(ns);
    ns = std::min(ns, (std::uint64_t(1) << kTopBit) - 1);
    // ns = m * 2^e with m in [kSub, 2 kSub): octave e, sub-bucket m.
    const unsigned e = unsigned(std::bit_width(ns)) - 1 - kSubBits;
    return std::size_t((e + 1) * kSub + ((ns >> e) - kSub));
}

double
LatencyHistogram::midpointNs(std::size_t bucket)
{
    constexpr std::size_t kSub = std::size_t(1) << kSubBits;
    if (bucket < kSub)
        return double(bucket);
    const unsigned e = unsigned(bucket / kSub) - 1;
    const double lo = double((bucket % kSub + kSub) << e);
    return lo + (double(std::uint64_t(1) << e) - 1.0) / 2.0;
}

void
LatencyHistogram::record(double seconds)
{
    seconds = std::max(seconds, 0.0);
    ++counts[bucketOf(std::uint64_t(std::llround(
        std::min(seconds * 1e9, 1e18))))];
    minS = n == 0 ? seconds : std::min(minS, seconds);
    maxS = n == 0 ? seconds : std::max(maxS, seconds);
    sumS += seconds;
    ++n;
}

double
LatencyHistogram::valueAtRank(std::uint64_t rank) const
{
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += counts[b];
        if (seen > rank)
            return midpointNs(b) * 1e-9;
    }
    return maxS;
}

double
LatencyHistogram::percentile(double p) const
{
    const double idx = p * double(n - 1);
    const std::uint64_t lo = std::uint64_t(idx);
    const std::uint64_t hi = std::min(lo + 1, n - 1);
    const double t = idx - double(lo);
    const double a = valueAtRank(lo), b = valueAtRank(hi);
    return std::clamp(a + t * (b - a), minS, maxS);
}

LatencySummary
LatencyHistogram::summary() const
{
    LatencySummary s;
    if (n == 0)
        return s;
    s.count = std::size_t(n);
    s.meanS = sumS / double(n);
    s.minS = minS;
    s.maxS = maxS;
    s.p50S = percentile(0.50);
    s.p95S = percentile(0.95);
    s.p99S = percentile(0.99);
    s.p999S = percentile(0.999);
    return s;
}

void
BatchSizeHistogram::record(std::size_t batch)
{
    pcnn_assert(batch >= 1, "batch size must be >= 1");
    // pcnn-analyze: allow(hot-path-alloc): grow-only bucket
    // array: grows to the largest batch seen, then stays put.
    if (counts.size() <= batch)
        counts.resize(batch + 1, 0);
    ++counts[batch];
}

std::size_t
BatchSizeHistogram::batches() const
{
    std::size_t n = 0;
    for (std::size_t c : counts)
        n += c;
    return n;
}

std::size_t
BatchSizeHistogram::images() const
{
    std::size_t n = 0;
    for (std::size_t b = 1; b < counts.size(); ++b)
        n += b * counts[b];
    return n;
}

double
BatchSizeHistogram::meanBatch() const
{
    const std::size_t n = batches();
    return n == 0 ? 0.0 : double(images()) / double(n);
}

} // namespace pcnn
