/**
 * @file
 * Latency-percentile and batch-size histogram helpers shared by the
 * analytical serving simulator (ServingSimulator) and the concurrent
 * serving engine's metrics (TenantMetrics), so both report tails
 * with the same interpolation rule and the two can be cross-checked
 * number for number.
 */

#ifndef PCNN_PCNN_RUNTIME_HISTOGRAM_HH
#define PCNN_PCNN_RUNTIME_HISTOGRAM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcnn {

/**
 * Linear-interpolated percentile of an ascending-sorted sample
 * (the "exclusive" variant NumPy calls 'linear'): p in [0, 1].
 * @pre sorted is non-empty and ascending
 */
double percentileOfSorted(const std::vector<double> &sorted, double p);

/** Tail summary of a latency sample, in seconds. */
struct LatencySummary
{
    std::size_t count = 0;
    double meanS = 0.0;
    double minS = 0.0;
    double maxS = 0.0;
    double p50S = 0.0;
    double p95S = 0.0;
    double p99S = 0.0;
    double p999S = 0.0;
};

/**
 * Summarize a latency sample (seconds). Sorts its by-value argument;
 * an empty sample yields the all-zero summary.
 */
LatencySummary summarizeLatencies(std::vector<double> samples);

/**
 * Fixed-memory latency recorder for long-running servers: exact
 * count, mean, min and max, and percentiles from log-linear buckets
 * of nanoseconds (64 per octave, each reported at its midpoint, so a
 * percentile is within 1/128 of the bucketed sample's value; samples
 * under 64 ns are exact). Percentiles interpolate between ranks like
 * percentileOfSorted and are clamped to [min, max]. Recording is
 * O(1) and allocation-free, so memory does not grow with the number
 * of requests served.
 */
class LatencyHistogram
{
  public:
    /** Record one sample, in seconds (negative counts as 0). */
    void record(double seconds);

    /** Summary of every sample recorded so far. */
    LatencySummary summary() const;

  private:
    static constexpr unsigned kSubBits = 6;
    /// samples from 2^kTopBit ns (~18 min) up share the last bucket
    static constexpr unsigned kTopBit = 40;
    static constexpr std::size_t kBuckets =
        std::size_t(kTopBit - kSubBits + 1) << kSubBits;

    static std::size_t bucketOf(std::uint64_t ns);
    static double midpointNs(std::size_t bucket);
    /** Bucket midpoint of the sample at 0-based ascending rank. */
    double valueAtRank(std::uint64_t rank) const;
    double percentile(double p) const;

    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t n = 0;
    double sumS = 0.0, minS = 0.0, maxS = 0.0;
};

/**
 * Served-batch size distribution: counts[b] is the number of batches
 * served with exactly b requests (index 0 is never used).
 */
struct BatchSizeHistogram
{
    std::vector<std::size_t> counts;

    /** Count one served batch of the given size (>= 1). */
    void record(std::size_t batch);

    /** Total batches recorded. */
    std::size_t batches() const;

    /** Total requests across all recorded batches. */
    std::size_t images() const;

    /** Mean served batch size (0 when empty). */
    double meanBatch() const;
};

} // namespace pcnn

#endif // PCNN_PCNN_RUNTIME_HISTOGRAM_HH
