/**
 * @file
 * Tests for the request-stream serving simulator: conservation,
 * determinism, batching trade-offs, and load behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/model_zoo.hh"
#include "pcnn/runtime/serving_sim.hh"

namespace pcnn {
namespace {

class ServingFixture : public ::testing::Test
{
  protected:
    ServingFixture() : sim(k20c(), alexNet())
    {
        req = inferRequirement(ageDetectionApp());
    }

    ServingConfig
    base() const
    {
        ServingConfig cfg;
        cfg.arrivalRateHz = 20.0;
        cfg.durationS = 10.0;
        cfg.seed = 5;
        return cfg;
    }

    ServingSimulator sim;
    UserRequirement req;
};

TEST_F(ServingFixture, ServesEveryRequest)
{
    const ServingStats s = sim.run(base(), req);
    EXPECT_GT(s.requests, 100u); // ~200 expected at 20 Hz x 10 s
    EXPECT_GE(s.batches, 1u);
    EXPECT_GT(s.meanLatencyS, 0.0);
    EXPECT_LE(s.p50LatencyS, s.p95LatencyS);
    EXPECT_LE(s.p95LatencyS, s.p99LatencyS);
    EXPECT_GT(s.busyFraction, 0.0);
    EXPECT_LE(s.busyFraction, 1.0);
}

TEST_F(ServingFixture, Deterministic)
{
    const ServingStats a = sim.run(base(), req);
    const ServingStats b = sim.run(base(), req);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.meanLatencyS, b.meanLatencyS);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
}

TEST_F(ServingFixture, SeedChangesStream)
{
    ServingConfig cfg = base();
    cfg.seed = 6;
    const ServingStats a = sim.run(base(), req);
    const ServingStats b = sim.run(cfg, req);
    EXPECT_NE(a.requests, b.requests);
}

TEST_F(ServingFixture, LatencyAtLeastServiceTime)
{
    const ServingStats s = sim.run(base(), req);
    // Even the median includes at least one batch execution.
    EXPECT_GT(s.p50LatencyS, 0.001);
}

TEST_F(ServingFixture, BatchingRaisesLatencyAtLowLoad)
{
    ServingConfig single = base();
    single.arrivalRateHz = 2.0; // sparse stream
    ServingConfig batched = single;
    batched.maxBatch = 16;
    batched.maxWaitS = 0.5; // wait up to half a second to fill

    const ServingStats s1 = sim.run(single, req);
    const ServingStats s16 = sim.run(batched, req);
    // Waiting for companions that rarely come inflates latency...
    EXPECT_GT(s16.p95LatencyS, s1.p95LatencyS * 2.0);
    // ...and mean SoC_time suffers accordingly.
    EXPECT_LE(s16.meanSocTime, s1.meanSocTime + 1e-12);
}

TEST_F(ServingFixture, BatchingSavesEnergyAtHighLoad)
{
    ServingConfig single = base();
    single.arrivalRateHz = 150.0;
    single.durationS = 4.0;
    ServingConfig batched = single;
    batched.maxBatch = 32;
    batched.maxWaitS = 0.05;

    const ServingStats s1 = sim.run(single, req);
    const ServingStats s32 = sim.run(batched, req);
    EXPECT_LT(s32.energyPerImageJ, s1.energyPerImageJ);
    EXPECT_GT(s32.meanBatch, 4.0);
    EXPECT_LT(s32.busyFraction, s1.busyFraction);
}

TEST_F(ServingFixture, OverloadShowsQueueing)
{
    // Single-request serving at a rate beyond the service rate: the
    // queue builds and tail latency explodes relative to light load.
    ServingConfig light = base();
    light.arrivalRateHz = 5.0;
    ServingConfig heavy = base();
    heavy.arrivalRateHz = 400.0;
    heavy.durationS = 3.0;

    const ServingStats l = sim.run(light, req);
    const ServingStats h = sim.run(heavy, req);
    EXPECT_GT(h.p99LatencyS, l.p99LatencyS * 3.0);
    EXPECT_GT(h.busyFraction, 0.9);
}

TEST_F(ServingFixture, RealTimeRequirementCountsViolations)
{
    const UserRequirement rt =
        inferRequirement(videoSurveillanceApp());
    ServingConfig cfg = base();
    cfg.maxBatch = 64;
    cfg.maxWaitS = 1.0; // absurd batching for a real-time stream
    const ServingStats s = sim.run(cfg, rt);
    EXPECT_GT(s.satisfactionViolations, s.requests / 2);
}

TEST_F(ServingFixture, TailPercentilesAreOrdered)
{
    const ServingStats s = sim.run(base(), req);
    EXPECT_LE(s.p50LatencyS, s.p95LatencyS);
    EXPECT_LE(s.p95LatencyS, s.p99LatencyS);
    EXPECT_LE(s.p99LatencyS, s.p999LatencyS);
    EXPECT_GT(s.p999LatencyS, 0.0);
}

TEST_F(ServingFixture, BatchHistogramAccountsForEveryRequest)
{
    ServingConfig cfg = base();
    cfg.maxBatch = 8;
    cfg.maxWaitS = 0.05;
    const ServingStats s = sim.run(cfg, req);
    EXPECT_EQ(s.batchHist.batches(), s.batches);
    EXPECT_EQ(s.batchHist.images(), s.requests);
    EXPECT_DOUBLE_EQ(s.batchHist.meanBatch(), s.meanBatch);
    // No recorded batch exceeds the policy ceiling.
    EXPECT_LE(s.batchHist.counts.size(), cfg.maxBatch + 1);
}

TEST(Histogram, PercentileInterpolatesLinearly)
{
    const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.875), 4.5);
}

TEST(Histogram, SummaryMatchesHandComputation)
{
    const LatencySummary s =
        summarizeLatencies({0.4, 0.1, 0.3, 0.2});
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.meanS, 0.25);
    EXPECT_DOUBLE_EQ(s.minS, 0.1);
    EXPECT_DOUBLE_EQ(s.maxS, 0.4);
    EXPECT_DOUBLE_EQ(s.p50S, 0.25);
    const LatencySummary empty = summarizeLatencies({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.p999S, 0.0);
}

TEST(Histogram, LatencyHistogramMatchesExactSummaryWithinBucketError)
{
    LatencyHistogram h;
    EXPECT_EQ(h.summary().count, 0u);
    EXPECT_EQ(h.summary().p999S, 0.0);

    // Log-spread latencies from 20 ns to ~2 s, plus a repeated value.
    std::vector<double> samples;
    double v = 2e-8;
    for (int i = 0; i < 3000; ++i) {
        samples.push_back(v);
        v *= 1.0061;
    }
    samples.insert(samples.end(), 500, 4.2e-4);
    for (double x : samples)
        h.record(x);

    const LatencySummary got = h.summary();
    const LatencySummary want = summarizeLatencies(samples);
    EXPECT_EQ(got.count, want.count);
    EXPECT_NEAR(got.meanS, want.meanS, want.meanS * 1e-12);
    EXPECT_EQ(got.minS, want.minS);
    EXPECT_EQ(got.maxS, want.maxS);
    // Each percentile lies within half a bucket (1/128) of the exact
    // one, plus the nanosecond rounding of each sample.
    for (const auto &[g, w] : {std::pair{got.p50S, want.p50S},
                               {got.p95S, want.p95S},
                               {got.p99S, want.p99S},
                               {got.p999S, want.p999S}})
        EXPECT_NEAR(g, w, w / 128.0 + 1e-9);
    EXPECT_LE(got.p999S, got.maxS);
}

TEST(Histogram, BatchSizeHistogramCounts)
{
    BatchSizeHistogram h;
    EXPECT_EQ(h.batches(), 0u);
    EXPECT_EQ(h.meanBatch(), 0.0);
    h.record(1);
    h.record(4);
    h.record(4);
    EXPECT_EQ(h.batches(), 3u);
    EXPECT_EQ(h.images(), 9u);
    EXPECT_DOUBLE_EQ(h.meanBatch(), 3.0);
    EXPECT_EQ(h.counts[4], 2u);
}

} // namespace
} // namespace pcnn
