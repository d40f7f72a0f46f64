/**
 * @file
 * TSan-targeted stress tests of the concurrent substrate: nested and
 * concurrently-dispatched parallelFor, pool resizing under load,
 * concurrent SGEMM (thread-local packing scratch), many-thread
 * KernelTuner candidate-cache lookups, and two networks with
 * different inference settings forwarding at once. The assertions double as
 * functional checks, but the real payload is running this suite
 * under `ctest --preset tsan` with zero reports.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/random.hh"
#include "gpu/gpu_spec.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "pcnn/offline/kernel_tuner.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {
namespace {

TEST(ConcurrencyStress, NestedParallelForHammering)
{
    setThreadCount(4);
    for (int iter = 0; iter < 50; ++iter) {
        std::atomic<long> total{0};
        parallelFor(16, [&](std::size_t b0, std::size_t b1,
                            std::size_t) {
            for (std::size_t i = b0; i < b1; ++i) {
                // Nested calls must run inline on the calling lane.
                EXPECT_TRUE(inParallelRegion());
                long local = 0;
                parallelFor(100, [&](std::size_t j0, std::size_t j1,
                                     std::size_t) {
                    for (std::size_t j = j0; j < j1; ++j)
                        local += long(i * 100 + j);
                });
                total += local;
            }
        });
        // sum over i<16, j<100 of (i*100 + j)
        EXPECT_EQ(total.load(), 16L * 100 * 99 / 2 + 100L * 100 * 15 * 16 / 2);
    }
    setThreadCount(0);
}

TEST(ConcurrencyStress, ConcurrentTopLevelDispatches)
{
    setThreadCount(4);
    constexpr std::size_t kThreads = 8;
    constexpr int kIters = 25;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &failures] {
            for (int iter = 0; iter < kIters; ++iter) {
                std::vector<long> partial(threadCount(), 0);
                parallelFor(1000, [&](std::size_t b0, std::size_t b1,
                                      std::size_t lane) {
                    for (std::size_t i = b0; i < b1; ++i)
                        partial[lane] += long(i + t);
                });
                long sum = 0;
                for (long p : partial)
                    sum += p;
                if (sum != 1000L * 999 / 2 + 1000L * long(t))
                    ++failures;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    setThreadCount(0);
}

TEST(ConcurrencyStress, ResizeUnderLoad)
{
    setThreadCount(4);
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&] {
            while (!stop.load()) {
                std::atomic<long> sum{0};
                parallelFor(64, [&](std::size_t b0, std::size_t b1,
                                    std::size_t) {
                    long local = 0;
                    for (std::size_t i = b0; i < b1; ++i)
                        local += long(i);
                    // Chunks are disjoint; one atomic add per chunk.
                    sum += local;
                });
                if (sum.load() != 64L * 63 / 2)
                    ++failures;
            }
        });
    }
    // Reconfigure the pool while dispatches are in flight; resize
    // serializes against them on the dispatch mutex.
    for (int round = 0; round < 20; ++round)
        setThreadCount(1 + std::size_t(round % 4));
    stop = true;
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    setThreadCount(0);
}

TEST(ConcurrencyStress, ConcurrentSgemmSharedInputs)
{
    setThreadCount(2);
    const std::size_t n = 64;
    Rng rng(11);
    std::vector<float> a(n * n), b(n * n);
    for (auto &x : a)
        x = float(rng.uniform(-1, 1));
    for (auto &x : b)
        x = float(rng.uniform(-1, 1));

    // Reference result, computed serially.
    std::vector<float> ref(n * n, 0.0f);
    sgemm(false, true, n, n, n, a.data(), b.data(), ref.data());

    constexpr std::size_t kThreads = 6;
    std::vector<std::vector<float>> out(
        kThreads, std::vector<float>(n * n, 0.0f));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // trans_b exercises the thread-local packing scratch.
            for (int iter = 0; iter < 10; ++iter) {
                std::fill(out[t].begin(), out[t].end(), 0.0f);
                sgemm(false, true, n, n, n, a.data(), b.data(),
                      out[t].data());
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(out[t], ref) << "thread " << t;
    setThreadCount(0);
}

TEST(ConcurrencyStress, ConcurrentTunerCacheLookups)
{
    const GpuSpec gpu = jetsonTx1();
    const KernelTuner tuner(gpu);
    const GemmShape gemm{128, 729, 1200};

    // Serial reference: winner and candidate count.
    const TunedKernel ref = tuner.tune(gemm);
    const std::size_t n_cands = tuner.candidates().size();
    ASSERT_GT(n_cands, 0u);

    constexpr std::size_t kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            // A fresh tuner per thread races the lazy cache fill;
            // the shared tuner races lookups against each other.
            const KernelTuner local(jetsonTx1());
            for (int iter = 0; iter < 5; ++iter) {
                if (local.candidates().size() != n_cands ||
                    tuner.candidates().size() != n_cands)
                    ++failures;
                const TunedKernel mine = tuner.tune(gemm);
                const TunedKernel theirs = local.tune(gemm);
                if (mine.config.tile.m != ref.config.tile.m ||
                    mine.config.tile.n != ref.config.tile.n ||
                    mine.config.regsPerThread !=
                        ref.config.regsPerThread ||
                    mine.skernel != ref.skernel ||
                    theirs.skernel != ref.skernel)
                    ++failures;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
}

/**
 * Inference settings belong to each network: one MiniInception runs
 * the compiled graph at int8 while a second copy runs the chain at
 * fp32, both at once, and each keeps its own single-threaded logits.
 */
TEST(ConcurrencyStress, PerNetworkInferenceOptions)
{
    setThreadCount(4);
    Rng rng_a(21);
    Network graphInt8 = makeMiniInception(rng_a);
    graphInt8.setGraphDispatch(true);
    graphInt8.setQuantized(true);
    Rng rng_b(21);
    Network chainFp32 = makeMiniInception(rng_b);
    chainFp32.setGraphDispatch(false);
    chainFp32.setQuantized(false);

    const Shape &in = graphInt8.inputShape();
    Tensor x(Shape{4, in.c, in.h, in.w});
    Rng inputs(22);
    x.fillUniform(inputs, -1.0f, 1.0f);
    auto same = [](const Tensor &a, const Tensor &b) {
        return a.shape() == b.shape() &&
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(float)) == 0;
    };

    Tensor wantA, wantB;
    graphInt8.forwardInto(x, false, wantA);
    chainFp32.forwardInto(x, false, wantB);
    ASSERT_FALSE(same(wantA, wantB)) << "int8 took the fp32 route";
    EXPECT_NE(graphInt8.compiledGraph(), nullptr);
    EXPECT_EQ(chainFp32.compiledGraph(), nullptr);

    std::atomic<int> mismatches{0};
    auto hammer = [&](Network &net, const Tensor &want) {
        Tensor out;
        for (int iter = 0; iter < 20; ++iter) {
            net.forwardInto(x, false, out);
            if (!same(out, want))
                ++mismatches;
        }
    };
    std::thread ta(hammer, std::ref(graphInt8), std::cref(wantA));
    std::thread tb(hammer, std::ref(chainFp32), std::cref(wantB));
    ta.join();
    tb.join();
    EXPECT_EQ(mismatches.load(), 0);
    setThreadCount(0);
}

} // namespace
} // namespace pcnn
