/**
 * @file
 * Shared pieces of the standing benchmark: run options, the result
 * every workload reports, order statistics, and the bitwise/digest
 * helpers behind the correctness checks.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "tensor/tensor.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Seconds from `a` to `b`. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/**
 * Linear-interpolated percentile, q in [0, 1]; 0 for an empty set.
 * Takes a copy: callers keep their sample order.
 */
double percentile(std::vector<double> v, double q);

/** percentile(v, 0.5). */
double median(const std::vector<double> &v);

/** Geometric mean of positive values; 0 for an empty set. */
double geomean(const std::vector<double> &v);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// flip one bit of every reference the correctness checks compare
    /// against (harness self-test: the run must then fail)
    bool plantMismatch = false;
    /// directory holding the stored references (paper_sim digest)
    std::string referenceDir;
    /// where a traced run writes its spans
    std::string traceOut;
};

/**
 * A measurement taken `atS` seconds into a timed loop. The median is
 * taken per kind and combined by geometric mean, so every kind weighs
 * the same however fast it is; the tail pools the kinds, as the
 * slowest operations a caller of the whole mix sees.
 */
struct Sample
{
    double atS = 0.0;
    double value = 0.0;
    std::size_t kind = 0;
};

/**
 * Work finished `atS` seconds into a timed loop. Samples with a busy
 * time are rated per kind at the median busy time of the kind in the
 * window, and the kinds' rates combine by geometric mean; samples
 * without one count against the window's wall time.
 */
struct WorkSample
{
    double atS = 0.0;
    double units = 0.0;
    double busyS = 0.0;    ///< time spent on it; 0 = not timed
    std::size_t kind = 0;  ///< operations of one kind cost alike
};

/**
 * What one timed loop of a workload measured: the per-operation
 * latencies its user sees, and the work it completed. main() cuts the
 * loop into windows of `windowS` seconds and reports the median over
 * windows, so a few seconds of host noise move no metric.
 */
struct LoopResult
{
    std::vector<Sample> latencies;  ///< seconds
    std::vector<WorkSample> work;   ///< rated as throughput_per_s
    std::vector<WorkSample> work2;  ///< rated as throughput2_per_s
    double spanS = 0.0;   ///< loop wall time
    double windowS = 1.0; ///< statistics window (>= spanS: one window)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< shed, rejected or mismatched
    bool correct = true;
};

/** The end-to-end statistics of one loop. */
struct LoopStats
{
    double p50S = 0.0;        ///< median over windows of the window p50
    double tailS = 0.0;       ///< median over windows of the window tail
    double throughput = 0.0;  ///< median over windows of units per second
    double throughput2 = 0.0; ///< the same for LoopResult::work2
    std::size_t samples = 0;  ///< latencies inside the windows
    std::size_t windows = 0;
};

/** Window the loop and compute its statistics; `tailQ` in (0, 1). */
LoopStats loopStats(const LoopResult &r, double tailQ);

/** A named measurement with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

using Metrics = std::vector<Metric>;

/**
 * One workload. main() constructs it (timed, several times: setup_s),
 * runs its loop for the requested seconds, and in a traced run asks it
 * for its per-layer metrics.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run the closed or open loop for `seconds` of wall time. */
    virtual LoopResult run(double seconds) = 0;

    /**
     * Per-layer metrics from the spans and counters of the most recent
     * traced loop (plus any layer probes the workload owns).
     */
    virtual void layerMetrics(Metrics &out) = 0;

    /** Phase accounting lines (sent/succeeded/shed/rejected). */
    virtual std::vector<std::string> accounting() const = 0;

    /**
     * The loop's end-to-end statistics: loopStats() unless the workload
     * reduces its samples another way.
     */
    virtual LoopStats
    stats(const LoopResult &r, double tailQ) const
    {
        return loopStats(r, tailQ);
    }

    /**
     * The loop's end-to-end numbers under the workload's own names
     * (interactive_p50_ms, fp32_b16_img_per_s, study_s, ...), printed
     * beside the generic metrics they correspond to; README.md maps
     * one onto the other.
     */
    virtual Metrics namedMetrics(const LoopResult &r, double tailQ) const = 0;
};

/** Build a workload by name; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opts);

std::unique_ptr<Workload> makeServeMixed(const Options &opts);
std::unique_ptr<Workload> makeBatchOffline(const Options &opts);
std::unique_ptr<Workload> makePaperSim(const Options &opts);

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A [batch, c, h, w] tensor of uniform values in [-1, 1). */
pcnn::Tensor randomInput(pcnn::Rng &rng, const pcnn::Shape &item,
                         std::size_t batch);

/** Same shape and the same bytes. */
bool bitwiseEqual(const pcnn::Tensor &a, const pcnn::Tensor &b);

/** Flip the lowest bit of the first element (planted mismatch). */
void plantBitFlip(pcnn::Tensor &t);

/** 64-bit FNV-1a digest over exact bytes of values. */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s);
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ull;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
