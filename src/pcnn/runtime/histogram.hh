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

#include <cstddef>
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
