/**
 * @file
 * paper_sim: the deployer's offline study, on host time.
 *
 * One iteration is one full study: (1) OfflineCompiler::compile plus
 * RuntimeKernelScheduler::execute for the 3 paper nets x 4 GPU presets
 * x 3 task classes; (2) the six allSchedulers() on the 3 Section V.C
 * apps x 4 GPUs. The seed permutes the order of the operations inside
 * every study. Every plan and every ScheduleOutcome folds into a
 * digest that must equal the stored reference exactly: a simulator
 * speed-up must leave the simulated results unchanged.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "gpu/gpu_spec.hh"
#include "nn/model_zoo.hh"
#include "pcnn/runtime/kernel_scheduler.hh"
#include "pcnn/schedulers/scheduler.hh"
#include "trace.hh"

namespace perfbench {

namespace {

/** Metric keys of allSchedulers(), in its figure order. */
const char *const kSchedKeys[] = {"perf_preferred", "energy_efficient",
                                  "qpe",            "qpe_plus",
                                  "pcnn",           "ideal"};
constexpr std::size_t kSchedCount = 6;
/// The Ideal oracle's index in allSchedulers(): its exhaustive search
/// is ~94% of a study.
constexpr std::size_t kIdealSched = 5;

std::uint64_t
planDigest(const pcnn::CompiledPlan &plan, const pcnn::SimResult &sim)
{
    Digest d;
    d.u64(plan.batch);
    for (const pcnn::LayerSchedule &l : plan.layers) {
        const pcnn::TileConfig &t = l.kernel.config.tile;
        d.u64(t.m);
        d.u64(t.n);
        d.u64(t.blockSize);
        d.u64(l.kernel.config.regsPerThread);
        d.u64(l.kernel.optSM);
        d.u64(l.kernel.optTLP);
    }
    d.f64(plan.latencyS());
    d.f64(sim.timeS);
    d.f64(sim.energy.total());
    return d.value();
}

std::uint64_t
outcomeDigest(const pcnn::ScheduleOutcome &o)
{
    Digest d;
    d.str(o.scheduler);
    d.u64(o.batch);
    d.f64(o.latencyS);
    d.f64(o.energyPerImageJ);
    d.f64(o.socScore);
    return d.value();
}

class PaperSim final : public Workload
{
  public:
    explicit PaperSim(const Options &o) : opts(o), order(o.seed)
    {
        nets = pcnn::paperNetworks();
        gpus = pcnn::allGpus();
        const pcnn::AppSpec apps[] = {pcnn::ageDetectionApp(),
                                      pcnn::videoSurveillanceApp(),
                                      pcnn::imageTaggingApp()};
        for (const pcnn::GpuSpec &g : gpus) {
            compilers.emplace_back(g);
            runtimes.emplace_back(g);
        }
        for (std::size_t n = 0; n < nets.size(); ++n)
            for (std::size_t g = 0; g < gpus.size(); ++g)
                for (const pcnn::AppSpec &a : apps)
                    planOps.push_back({n, g, a});

        // Section V.C: age detection = interactive AlexNet, video
        // surveillance = real-time GoogLeNet, image tagging =
        // background AlexNet.
        const pcnn::NetDescriptor alex = pcnn::alexNet();
        const pcnn::NetDescriptor goog = pcnn::googleNet();
        for (const pcnn::GpuSpec &g : gpus) {
            contexts.push_back(
                pcnn::makeContext(pcnn::ageDetectionApp(), alex, g));
            contexts.push_back(
                pcnn::makeContext(pcnn::videoSurveillanceApp(), goog, g));
            contexts.push_back(
                pcnn::makeContext(pcnn::imageTaggingApp(), alex, g));
        }
        schedulers = pcnn::allSchedulers();
        for (std::size_t s = 0; s < kSchedCount; ++s)
            schedSpan[s] = Tracer::global().intern(
                std::string("sched.") + kSchedKeys[s]);

        expected = readReference(opts.referenceDir + "/paper_sim.digest");
        if (opts.plantMismatch)
            expected ^= 1u;

        // Lazy set-up (each tuner's candidate cache) finishes here.
        for (const pcnn::OfflineCompiler &c : compilers)
            (void)c.compile(nets[0], planOps[0].app);
    }

    LoopResult
    run(double seconds) override
    {
        LoopResult r;
        studies = 0;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < seconds || studies == 0) {
            const std::uint64_t got = study(t0, r.latencies);
            ++r.attempted;
            ++studies;
            lastDigest = got;
            if (got != expected) {
                ++r.failed;
                r.correct = false;
            }
        }
        r.spanS = secondsSince(t0);
        sent += r.attempted;
        mismatched += r.failed;
        return r;
    }

    void
    layerMetrics(Metrics &out) override
    {
        Tracer &t = Tracer::global();
        const double per = studies > 0 ? 1.0 / double(studies) : 0.0;
        auto sum = [](const std::vector<double> &v) {
            double s = 0.0;
            for (double x : v)
                s += x;
            return s;
        };
        const auto compile = t.durations("offline.compile");
        const auto exec = t.durations("runtime.execute");
        out.push_back({"offline.compile_ms.p50", "ms", median(compile) * 1e3});
        out.push_back(
            {"offline.compile_ms.total", "ms", sum(compile) * per * 1e3});
        out.push_back({"runtime.execute_ms.p50", "ms", median(exec) * 1e3});
        out.push_back(
            {"runtime.execute_ms.total", "ms", sum(exec) * per * 1e3});
        for (std::size_t s = 0; s < kSchedCount; ++s)
            out.push_back({std::string("sched.") + kSchedKeys[s] + "_ms", "ms",
                           sum(t.durations(schedSpan[s])) * per * 1e3});
    }

    std::vector<std::string>
    accounting() const override
    {
        char line[160];
        std::snprintf(line, sizeof line,
                      "paper_sim studies: sent %llu, succeeded %llu, "
                      "digest mismatches %llu (digest %016" PRIx64 ")",
                      static_cast<unsigned long long>(sent),
                      static_cast<unsigned long long>(sent - mismatched),
                      static_cast<unsigned long long>(mismatched),
                      lastDigest);
        return {line};
    }

    /**
     * Every operation of the study at its best time over the run's
     * studies. A study is deterministic work, so the spread of one
     * operation's times is host noise: neighbours on the shared cores
     * slow single operations by up to 2x and whole runs by 25%, and
     * the best of a run's repeats holds still where their median does
     * not. p50 is the study (the sum), the tail a percentile over its
     * operations, throughput2 the five paper schedulers' runs (all but
     * the Ideal oracle, whose search is ~94% of a study) per second,
     * geometric mean over the runs.
     */
    LoopStats
    stats(const LoopResult &r, double tailQ) const override
    {
        std::map<std::size_t, double> best;
        for (const Sample &x : r.latencies) {
            const auto [it, fresh] = best.emplace(x.kind, x.value);
            if (!fresh)
                it->second = std::min(it->second, x.value);
        }
        LoopStats s;
        std::vector<double> ops, schedRates;
        for (const auto &[op, t] : best) {
            ops.push_back(t);
            s.p50S += t;
            if (op >= planOps.size() &&
                (op - planOps.size()) % kSchedCount != kIdealSched)
                schedRates.push_back(1.0 / t);
        }
        s.tailS = percentile(ops, tailQ);
        s.throughput = 1.0 / s.p50S;
        s.throughput2 = geomean(schedRates);
        s.samples = r.latencies.size();
        s.windows = 1;
        return s;
    }

    Metrics
    namedMetrics(const LoopResult &r, double tailQ) const override
    {
        const LoopStats s = stats(r, tailQ);
        return {{"study_s", "s", s.p50S},
                {"schedules_per_s", "1/s", s.throughput2}};
    }

  private:
    struct PlanOp
    {
        std::size_t net = 0;
        std::size_t gpu = 0;
        pcnn::AppSpec app;
    };

    /**
     * One study; returns its digest (independent of the op order).
     * Each operation's wall time goes to `ops`, its kind the
     * operation's index, so stats() can take each at its best.
     */
    std::uint64_t
    study(Clock::time_point t0, std::vector<Sample> &ops)
    {
        ScopedSpan whole("paper_sim.study");
        const std::size_t nPlans = planOps.size();
        const std::size_t nSched = contexts.size() * kSchedCount;
        std::vector<std::uint64_t> digests(nPlans + nSched);
        std::vector<std::size_t> perm(nPlans + nSched);
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[order.below(i)]);

        for (std::size_t i : perm) {
            const auto s0 = Clock::now();
            if (i < nPlans) {
                const PlanOp &op = planOps[i];
                pcnn::CompiledPlan plan;
                {
                    ScopedSpan s("offline.compile");
                    plan = compilers[op.gpu].compile(nets[op.net], op.app);
                }
                pcnn::SimResult sim;
                {
                    ScopedSpan s("runtime.execute");
                    sim = runtimes[op.gpu].execute(plan, pcnn::pcnnPolicy());
                }
                digests[i] = planDigest(plan, sim);
            } else {
                const std::size_t j = i - nPlans;
                const std::size_t sched = j % kSchedCount;
                ScopedSpan s(schedSpan[sched]);
                digests[i] = outcomeDigest(
                    schedulers[sched]->run(contexts[j / kSchedCount]));
            }
            ops.push_back({secondsBetween(t0, s0), secondsSince(s0), i});
        }
        Digest all;
        for (std::uint64_t d : digests)
            all.u64(d);
        return all.value();
    }

    static std::uint64_t
    readReference(const std::string &path)
    {
        std::ifstream in(path);
        std::string hex;
        if (!(in >> hex))
            return 0; // no reference: every study mismatches
        return std::stoull(hex, nullptr, 16);
    }

    Options opts;
    pcnn::Rng order;
    std::vector<pcnn::NetDescriptor> nets;
    std::vector<pcnn::GpuSpec> gpus;
    std::deque<pcnn::OfflineCompiler> compilers; // neither is movable
    std::deque<pcnn::RuntimeKernelScheduler> runtimes;
    std::vector<PlanOp> planOps;
    std::vector<pcnn::ScheduleContext> contexts;
    std::vector<std::unique_ptr<pcnn::Scheduler>> schedulers;
    const char *schedSpan[kSchedCount] = {};
    std::uint64_t expected = 0;
    std::uint64_t lastDigest = 0;
    std::uint64_t studies = 0;
    std::uint64_t sent = 0;
    std::uint64_t mismatched = 0;
};

} // namespace

std::unique_ptr<Workload>
makePaperSim(const Options &opts)
{
    return std::make_unique<PaperSim>(opts);
}

} // namespace perfbench
