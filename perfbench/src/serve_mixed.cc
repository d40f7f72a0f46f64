/**
 * @file
 * serve_mixed: the interactive user and the background flood sharing
 * one MultiTenantEngine (default MultiEngineConfig: 1 worker, all
 * lanes) over bench/bench_multitenant.cc's Zipf mix of
 * MiniAlexNet/full, MiniVgg/full and MiniInception/p50.
 *
 * Interactive requests arrive open loop, Poisson at a fixed absolute
 * rate, and are timed from their scheduled send time: measured submit
 * lag plus TenantResult::latencyS. The rate is fixed rather than
 * calibrated from the code under test, so a faster forward shows up as
 * lower latency, not as more offered load. The background flood runs
 * closed loop with a fixed in-flight window.
 *
 * Correctness: every request served alone (batch size 1), and a
 * sequential probe pass after the loop, must return logits bitwise
 * equal to the prototype's forward of the same input.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "serve/multi_engine.hh"
#include "trace.hh"

namespace perfbench {

namespace {

const char *const kModels[] = {"MiniAlexNet/full", "MiniVgg/full",
                               "MiniInception/p50"};
constexpr std::size_t kModelCount = 3;
/// Registry sizing as in the multi-tenant bench.
constexpr std::size_t kMaxBatch = 4;
constexpr std::size_t kMaxReplicas = 2;
/// Interactive arrival rate (requests/s), fixed for every commit: an
/// interactive utilisation of 0.25 over the Zipf-weighted batch-1
/// engine service time of the mix, measured the way
/// bench/bench_multitenant.cc calibrates it, on the seed commit
/// (Release, DCHECKs off, 4-vCPU Xeon: 0.46-0.52 ms; 0.25 / 0.5 ms).
/// That bench's utilisation of 0.5 gives 1000 req/s, which saturated
/// the engine during a CPU-steal burst (interactive p50 14.8 ms);
/// 0.25 leaves twice the headroom.
constexpr double kInteractiveHz = 500.0;
/// Background requests kept in flight by the closed loop: one full
/// batch per model, so each model can always form a full background
/// batch. It stays below the per-model queue capacity (64), so the
/// flood itself is never shed: every shed is admission control.
constexpr std::size_t kBackgroundWindow = kModelCount * kMaxBatch;
/// Distinct inputs per model, each with a prototype reference.
constexpr std::size_t kInputsPerModel = 16;
/// A generator later than this on its schedule flags the run.
constexpr double kBehindS = 0.002;

/** One interactive request in flight. */
struct Pending
{
    std::future<pcnn::TenantResult> result;
    Clock::time_point scheduled, submitStart, submitEnd;
    std::size_t model = 0;
    std::size_t input = 0;
    std::uint64_t request = 0;
    std::uint64_t rootSpan = 0;
};

/** Per-class request accounting of one loop. */
struct ClassCount
{
    std::uint64_t sent = 0, succeeded = 0, shed = 0, rejected = 0;
};

/** Running mean of served batch sizes. */
struct BatchMean
{
    double sum = 0.0;
    std::uint64_t n = 0;

    void add(std::size_t batch) { sum += double(batch); ++n; }
    double mean() const { return n ? sum / double(n) : 0.0; }
};

class ServeMixed final : public Workload
{
  public:
    explicit ServeMixed(const Options &o) : opts(o)
    {
        reg = std::make_unique<pcnn::ModelRegistry>();
        {
            ScopedSpan s("serve.register");
            pcnn::Rng zoo(42);
            pcnn::registerMiniZoo(*reg, zoo, kMaxBatch, kMaxReplicas);
        }
        double wsum = 0.0;
        for (std::size_t m = 0; m < kModelCount; ++m) {
            index[m] = reg->indexOf(kModels[m]);
            weight[m] = 1.0 / double(m + 1); // Zipf s = 1
            wsum += weight[m];
        }
        for (double &w : weight)
            w /= wsum;

        {
            ScopedSpan s("serve.engine_start");
            engine = std::make_unique<pcnn::MultiTenantEngine>(
                *reg, pcnn::MultiEngineConfig{});
        }

        // Inputs from the seed; references from the prototype while
        // the engine is still idle.
        pcnn::Rng rng(o.seed);
        for (std::size_t m = 0; m < kModelCount; ++m) {
            pcnn::Model &model = reg->model(index[m]);
            for (std::size_t i = 0; i < kInputsPerModel; ++i) {
                inputs[m].push_back(randomInput(rng, model.inputShape(), 1));
                pcnn::Tensor want;
                model.prototype().forwardInto(inputs[m].back(), false, want);
                if (opts.plantMismatch)
                    plantBitFlip(want);
                reference[m].push_back(std::move(want));
            }
        }
        // Warm every replica path before anything is timed.
        for (std::size_t m = 0; m < kModelCount; ++m)
            for (std::size_t i = 0; i < 4; ++i)
                (void)submitAndWait(m, i % kInputsPerModel);
    }

    ~ServeMixed() override { engine->stop(); }

    LoopResult
    run(double seconds) override
    {
        Tracer &tr = Tracer::global();
        interactive = {};
        background = {};
        probes = {};
        interactiveBatch = {};
        backgroundBatch = {};
        submitS.clear();
        queueS.clear();
        serviceS.clear();
        lagS.clear();
        mismatches = 0;

        std::atomic<bool> stop{false};
        std::vector<WorkSample> bgDone;
        std::exception_ptr bgError;
        const auto t0 = Clock::now();
        std::thread bg([&] {
            try {
                bgDone = backgroundLoop(stop, t0, seconds);
            } catch (...) {
                bgError = std::current_exception();
            }
        });
        // Stop and join on every path out of this scope.
        struct Joiner
        {
            std::atomic<bool> &stop;
            std::thread &thread;
            ~Joiner()
            {
                stop.store(true);
                if (thread.joinable())
                    thread.join();
            }
        } joiner{stop, bg};

        // Interactive open loop: Poisson arrivals, Zipf model pick.
        pcnn::Rng arrivals(opts.seed * 7919 + 1);
        std::vector<Pending> pending;
        pending.reserve(std::size_t(kInteractiveHz * seconds * 1.5) + 16);
        auto next = t0;
        std::size_t cursor = 0;
        while (true) {
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    -std::log(1.0 - arrivals.uniform()) / kInteractiveHz));
            if (secondsBetween(t0, next) >= seconds)
                break;
            const std::size_t m = pickModel(arrivals.uniform());
            const std::size_t in = cursor++ % kInputsPerModel;
            pcnn::Tensor x = inputs[m][in];
            std::this_thread::sleep_until(next);

            Pending p;
            p.scheduled = next;
            p.model = m;
            p.input = in;
            p.request = ++requestIds;
            p.submitStart = Clock::now();
            auto sub = engine->submit(index[m], pcnn::TaskClass::Interactive,
                                      std::move(x));
            p.submitEnd = Clock::now();
            ++interactive.sent;
            if (tr.enabled()) {
                p.rootSpan = tr.newId();
                tr.record({"serve.submit.interactive", tr.newId(), p.rootSpan,
                           p.request, p.submitStart, p.submitEnd});
            }
            if (sub.status != pcnn::SubmitStatus::Accepted) {
                ++interactive.rejected;
                continue;
            }
            p.result = std::move(sub.result);
            pending.push_back(std::move(p));
        }
        const double spanS = secondsSince(t0);
        stop.store(true);
        bg.join();
        if (bgError)
            std::rethrow_exception(bgError);

        LoopResult r;
        // Aggregate completions: background per second of completion,
        // interactive per second of schedule.
        std::vector<WorkSample> served = bgDone;
        for (Pending &p : pending) {
            const pcnn::TenantResult res = p.result.get();
            if (res.shed) {
                ++interactive.shed;
                continue;
            }
            ++interactive.succeeded;
            const double at = secondsBetween(t0, p.scheduled);
            const double lag = secondsBetween(p.scheduled, p.submitStart);
            r.latencies.push_back({at, lag + res.latencyS});
            served[std::min(std::size_t(at), served.size() - 1)].units += 1.0;
            lagS.push_back(lag);
            submitS.push_back(secondsBetween(p.submitStart, p.submitEnd));
            queueS.push_back(res.queueS);
            serviceS.push_back(res.latencyS - res.queueS);
            interactiveBatch.add(res.batchSize);
            check(res, p.model, p.input);
            if (tr.enabled())
                recordRequestSpans(p, res);
        }
        {
            const auto s0 = Clock::now();
            (void)engine->metrics();
            snapshotS = secondsSince(s0);
        }
        // Sequential probes: each request is alone, so batch size 1.
        for (std::size_t m = 0; m < kModelCount; ++m) {
            for (std::size_t i = 0; i < 2; ++i) {
                ++probes.sent;
                const std::size_t in = (i * 5 + m) % kInputsPerModel;
                pcnn::TenantResult res;
                if (!submitAndWait(m, in, &res)) {
                    ++probes.rejected;
                    continue;
                }
                if (bitwiseEqual(res.logits, reference[m][in]))
                    ++probes.succeeded;
                else
                    ++mismatches;
            }
        }

        r.work = std::move(bgDone);
        r.work2 = std::move(served);
        r.spanS = spanS;
        r.attempted = interactive.sent + background.sent + probes.sent;
        r.failed = interactive.shed + interactive.rejected + background.shed +
                   background.rejected + probes.rejected + mismatches;
        r.correct = mismatches == 0;
        return r;
    }

    void
    layerMetrics(Metrics &out) override
    {
        Tracer &t = Tracer::global();
        out.push_back({"serve.submit_us.p50", "us", median(submitS) * 1e6});
        out.push_back(
            {"serve.submit_us.p99", "us", percentile(submitS, 0.99) * 1e6});
        out.push_back({"serve.queue_wait_ms.interactive.p50", "ms",
                       median(queueS) * 1e3});
        out.push_back({"serve.queue_wait_ms.interactive.p99", "ms",
                       percentile(queueS, 0.99) * 1e3});
        out.push_back({"serve.service_ms.interactive.p50", "ms",
                       median(serviceS) * 1e3});
        out.push_back({"serve.batch_size.interactive.mean", "count",
                       interactiveBatch.mean()});
        out.push_back({"serve.batch_size.background.mean", "count",
                       backgroundBatch.mean()});
        out.push_back(
            {"serve.shed.background", "count", double(background.shed)});
        out.push_back({"serve.rejected.interactive", "count",
                       double(interactive.rejected)});
        out.push_back({"serve.metrics_snapshot_ms", "ms", snapshotS * 1e3});
        out.push_back({"serve.register_s", "s",
                       median(t.durations("serve.register"))});
        out.push_back({"serve.engine_start_s", "s",
                       median(t.durations("serve.engine_start"))});
        out.push_back({"bench.generator_lag_ms.p99", "ms",
                       percentile(lagS, 0.99) * 1e3});
    }

    std::vector<std::string>
    accounting() const override
    {
        std::vector<std::string> lines;
        auto line = [&](const char *phase, const ClassCount &c) {
            char buf[200];
            std::snprintf(buf, sizeof buf,
                          "serve_mixed %s: sent %llu, succeeded %llu, "
                          "shed %llu, rejected %llu",
                          phase, static_cast<unsigned long long>(c.sent),
                          static_cast<unsigned long long>(c.succeeded),
                          static_cast<unsigned long long>(c.shed),
                          static_cast<unsigned long long>(c.rejected));
            lines.push_back(buf);
        };
        line("interactive", interactive);
        line("background", background);
        line("probe", probes);
        const double lag99 = percentile(lagS, 0.99);
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "serve_mixed generator lag p99 %.3f ms: %s", lag99 * 1e3,
                      lag99 > kBehindS ? "FELL BEHIND its schedule"
                                       : "kept its schedule");
        lines.push_back(buf);
        std::snprintf(buf, sizeof buf,
                      "serve_mixed bitwise mismatches %llu",
                      static_cast<unsigned long long>(mismatches));
        lines.push_back(buf);
        return lines;
    }

    Metrics
    namedMetrics(const LoopResult &r, double tailQ) const override
    {
        const LoopStats s = loopStats(r, tailQ);
        return {{"interactive_p50_ms", "ms", s.p50S * 1e3},
                {"interactive_p90_ms", "ms", s.tailS * 1e3},
                {"background_rps", "1/s", s.throughput},
                {"aggregate_rps", "1/s", s.throughput2}};
    }

  private:
    std::size_t
    pickModel(double u) const
    {
        for (std::size_t m = 0; m < kModelCount; ++m) {
            u -= weight[m];
            if (u <= 0.0)
                return m;
        }
        return kModelCount - 1;
    }

    /** Logits of a request served alone must match the prototype. */
    void
    check(const pcnn::TenantResult &res, std::size_t m, std::size_t in)
    {
        if (res.batchSize == 1 && !bitwiseEqual(res.logits, reference[m][in]))
            ++mismatches;
    }

    bool
    submitAndWait(std::size_t m, std::size_t in,
                  pcnn::TenantResult *out = nullptr)
    {
        auto sub = engine->submit(index[m], pcnn::TaskClass::Interactive,
                                  inputs[m][in]);
        if (sub.status != pcnn::SubmitStatus::Accepted)
            return false;
        pcnn::TenantResult res = sub.result.get();
        if (res.shed)
            return false;
        if (out != nullptr)
            *out = std::move(res);
        return true;
    }

    /**
     * Closed loop keeping kBackgroundWindow requests in flight; returns
     * the completions that landed before `stop`, counted per second
     * from `t0`. Counts, not per-request records: memory the harness
     * grew with throughput would show in peak_rss_mb.
     */
    std::vector<WorkSample>
    backgroundLoop(const std::atomic<bool> &stop, Clock::time_point t0,
                   double seconds)
    {
        Tracer &tr = Tracer::global();
        struct InFlight
        {
            std::future<pcnn::TenantResult> result;
            std::size_t model, input;
        };
        std::deque<InFlight> inflight;
        std::vector<WorkSample> perSecond(std::size_t(std::ceil(seconds)) + 1);
        for (std::size_t i = 0; i < perSecond.size(); ++i)
            perSecond[i].atS = double(i) + 0.5;
        std::size_t cursor = 0;
        while (!stop.load() || !inflight.empty()) {
            if (!stop.load() && inflight.size() < kBackgroundWindow) {
                const std::size_t m = cursor % kModelCount;
                const std::size_t in = (cursor / kModelCount) % kInputsPerModel;
                ++cursor;
                pcnn::Tensor x = inputs[m][in];
                const auto s0 = Clock::now();
                auto sub = engine->submit(
                    index[m], pcnn::TaskClass::Background, std::move(x));
                if (tr.enabled())
                    tr.record({"serve.submit.background", tr.newId(), 0,
                               ++requestIds, s0, Clock::now()});
                ++background.sent;
                if (sub.status == pcnn::SubmitStatus::Accepted) {
                    inflight.push_back({std::move(sub.result), m, in});
                } else {
                    ++background.rejected;
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                }
                continue;
            }
            InFlight f = std::move(inflight.front());
            inflight.pop_front();
            const pcnn::TenantResult res = f.result.get();
            if (res.shed) {
                ++background.shed;
                continue;
            }
            ++background.succeeded;
            backgroundBatch.add(res.batchSize);
            check(res, f.model, f.input);
            const auto second = std::size_t(secondsSince(t0));
            if (!stop.load() && second < perSecond.size())
                perSecond[second].units += 1.0;
        }
        return perSecond;
    }

    /** The request's root span and its stages, from its timestamps. */
    void
    recordRequestSpans(const Pending &p, const pcnn::TenantResult &res)
    {
        Tracer &tr = Tracer::global();
        auto at = [&](double s) {
            return p.submitStart + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(s));
        };
        const auto done = at(res.latencyS);
        tr.record({"serve.request.interactive", p.rootSpan, 0, p.request,
                   p.scheduled, done});
        tr.record({"bench.generator_lag", tr.newId(), p.rootSpan, p.request,
                   p.scheduled, p.submitStart});
        tr.record({"serve.queue_wait", tr.newId(), p.rootSpan, p.request,
                   p.submitStart, at(res.queueS)});
        tr.record({"serve.service", tr.newId(), p.rootSpan, p.request,
                   at(res.queueS), done});
    }

    Options opts;
    std::unique_ptr<pcnn::ModelRegistry> reg;
    std::unique_ptr<pcnn::MultiTenantEngine> engine;
    std::size_t index[kModelCount] = {};
    double weight[kModelCount] = {};
    std::vector<pcnn::Tensor> inputs[kModelCount];
    std::vector<pcnn::Tensor> reference[kModelCount];

    // Written by the loop thread and the background thread on
    // disjoint members; read after both have joined.
    ClassCount interactive, background, probes;
    BatchMean interactiveBatch, backgroundBatch;
    std::vector<double> submitS, queueS, serviceS, lagS;
    std::atomic<std::uint64_t> requestIds{0};
    std::atomic<std::uint64_t> mismatches{0};
    double snapshotS = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed(const Options &opts)
{
    return std::make_unique<ServeMixed>(opts);
}

} // namespace perfbench
