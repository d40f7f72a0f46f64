/**
 * @file
 * pcnn_perfbench: the repository's one standing benchmark.
 *
 *   pcnn_perfbench --workload <serve_mixed|batch_offline|paper_sim>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  --reference-dir <dir> [--trace-out <file>]
 *                  [--source-id <id>] [--plant-mismatch]
 *
 * Prints a '#'-prefixed header (build, host, tune cache), the phase
 * accounting, and as its last line one JSON object with `correct`,
 * `attempted`, `failed` and `metrics`. Untraced runs report the
 * end-to-end metrics; traced runs (--trace 1) report the per-layer
 * metrics from spans recorded around the library's public calls.
 * Exits non-zero when any correctness check fails. See README.md.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "common/parallel.hh"
#include "pcnn/offline/host_tuner.hh"
#include "tensor/microkernel.hh"
#include "tensor/quant.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

/// Set-ups before and again after the timed loop; setup_s is the
/// median of all of them, so it samples the host at both ends. A cheap
/// set-up repeats until the phase has lasted kSetupPhaseS, so its
/// median rests on enough samples to hold still.
constexpr int kSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupPhaseS = 0.1;
/// Tail percentile of latency_p90_ms (>= 10 samples beyond it on
/// every workload at the configured run length).
constexpr double kTailQ = 0.90;
/// Loop length of the other workloads in a traced run.
constexpr double kProbeSeconds = 1.0;
/// Empty parallelFor calls timed by the dispatch probe.
constexpr int kDispatchReps = 2000;
/// CPU steal above this share of the loop's CPU time flags the run.
constexpr double kStealBurst = 0.05;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "pcnn_perfbench: %s\n", why);
    std::exit(2);
}

Options
parse(int argc, char **argv, std::string &sourceId)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--reference-dir")
            o.referenceDir = value();
        else if (a == "--trace-out")
            o.traceOut = value();
        else if (a == "--source-id")
            sourceId = value();
        else if (a == "--plant-mismatch")
            o.plantMismatch = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    if (o.referenceDir.empty())
        usage("--reference-dir is required");
    return o;
}

std::string
tuneCacheState()
{
    const std::string path = pcnn::hostTuneCachePath();
    if (!std::ifstream(path).good())
        return path + " (absent: detected defaults)";
    pcnn::HostTuneConfig cfg;
    std::string err;
    return path + (pcnn::loadHostTune(path, cfg, err)
                       ? " (present, valid for this host)"
                       : " (present, rejected: " + err + ")");
}

void
printHeader(const Options &o, const std::string &sourceId)
{
    const pcnn::CpuFeatures &cpu = pcnn::cpuFeatures();
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("# source: %s\n", sourceId.c_str());
    std::printf("# compiler: %s; build %s; flags:%s; PCNN_DCHECKS=%s; "
                "PCNN_COUNT_ALLOCS=%s\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
                PERFBENCH_DCHECKS, PERFBENCH_COUNT_ALLOCS);
    std::printf("# host: nproc %u, threadCount() %zu, kernel tier %s, "
                "int8 tier %s\n",
                std::thread::hardware_concurrency(), pcnn::threadCount(),
                pcnn::kernelTierName(pcnn::activeKernelTier()),
                pcnn::kernelTierName(pcnn::activeQuantKernelTier()));
    std::printf("# cpu: %s; features: %s\n", cpu.model.c_str(),
                cpu.str().c_str());
    std::printf("# tune cache: %s\n", tuneCacheState().c_str());
}

/** common/parallel: one empty-body parallelFor over every lane. */
void
dispatchProbe(Metrics &out)
{
    const std::size_t lanes = pcnn::threadCount();
    for (int i = 0; i < kDispatchReps; ++i) {
        ScopedSpan s("parallel.dispatch");
        pcnn::parallelFor(lanes, [](std::size_t, std::size_t, std::size_t) {});
    }
    out.push_back({"parallel.dispatch_us", "us",
                   median(Tracer::global().durations("parallel.dispatch")) *
                       1e6});
}

/** Steal and total jiffies of all CPUs so far, from /proc/stat. */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;

    static CpuTimes
    now()
    {
        // cpu  user nice system idle iowait irq softirq steal ...
        std::ifstream stat("/proc/stat");
        std::string cpu;
        CpuTimes t;
        if (!(stat >> cpu) || cpu != "cpu")
            return t;
        double v = 0.0;
        for (int i = 0; i < 8 && stat >> v; ++i) {
            t.total += v;
            if (i == 7)
                t.steal = v;
        }
        return t;
    }
};

/**
 * Print the share of CPU time the hypervisor stole during the loop
 * and flag a run inside a steal burst: its figures show the host, not
 * the code.
 */
void
printSteal(const CpuTimes &a, const CpuTimes &b)
{
    const double total = b.total - a.total;
    const double share = total > 0.0 ? (b.steal - a.steal) / total : 0.0;
    std::printf("# cpu steal during the loop: %.2f%% of CPU time: %s\n",
                share * 100.0,
                share > kStealBurst ? "STEAL BURST, figures suspect"
                                    : "quiet host");
}

/** The end-to-end metrics of one loop plus set-up and memory. */
Metrics
endToEnd(const Workload &w, const LoopResult &r, double setupS, double rssMb)
{
    const LoopStats s = w.stats(r, kTailQ);
    std::printf("# loop: %.2f s, %zu windows, %zu latency samples\n", r.spanS,
                s.windows, s.samples);
    return {
        {"latency_p50_ms", "ms", s.p50S * 1e3},
        {"latency_p90_ms", "ms", s.tailS * 1e3},
        {"throughput_per_s", "1/s", s.throughput},
        {"throughput2_per_s", "1/s", s.throughput2},
        {"setup_s", "s", setupS},
        {"peak_rss_mb", "MB", rssMb},
    };
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sourceId = "unknown";
    const Options opts = parse(argc, argv, sourceId);
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) == names.end())
        usage(("unknown workload " + opts.workload).c_str());

    printHeader(opts, sourceId);
    Tracer &tracer = Tracer::global();
    tracer.setEnabled(opts.trace);

    // Set up several times; each phase returns its last instance.
    std::vector<double> setups;
    auto setUpPhase = [&] {
        std::unique_ptr<Workload> last;
        const auto phase = Clock::now();
        for (int i = 0; i < kMaxSetups; ++i) {
            if (i >= kSetups && secondsSince(phase) >= kSetupPhaseS)
                break;
            last.reset();
            const auto t0 = Clock::now();
            last = makeWorkload(opts.workload, opts);
            setups.push_back(secondsSince(t0));
        }
        return last;
    };
    std::unique_ptr<Workload> w = setUpPhase();

    if (!opts.trace) {
        const CpuTimes cpu0 = CpuTimes::now();
        const LoopResult r = w->run(opts.seconds);
        const CpuTimes cpu1 = CpuTimes::now();
        const double rssMb = peakRssMb();
        (void)setUpPhase();
        for (const std::string &line : w->accounting())
            std::printf("# %s\n", line.c_str());
        printSteal(cpu0, cpu1);
        for (const Metric &m : w->namedMetrics(r, kTailQ))
            std::printf("# %s: %.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        const Metrics e2e = endToEnd(*w, r, median(setups), rssMb);
        printResult(r.correct, r.attempted, r.failed, e2e);
        return r.correct ? 0 : 1;
    }
    const double setupS = median(setups);

    // Traced run: the same loop untraced, then traced, each for half
    // the run; the difference is the tracing overhead.
    tracer.setEnabled(false);
    const CpuTimes cpu0 = CpuTimes::now();
    const LoopResult plain = w->run(opts.seconds / 2);
    tracer.setEnabled(true);
    const LoopResult traced = w->run(opts.seconds / 2);
    printSteal(cpu0, CpuTimes::now());
    bool correct = plain.correct && traced.correct;

    const Metrics e0 = endToEnd(*w, plain, setupS, peakRssMb());
    const Metrics e1 = endToEnd(*w, traced, setupS, peakRssMb());
    std::printf("# e2e metric              untraced        traced     diff%%\n");
    for (std::size_t i = 0; i < e0.size(); ++i)
        std::printf("# %-20s %12.4f %12.4f %+8.2f\n", e0[i].name.c_str(),
                    e0[i].value, e1[i].value,
                    e0[i].value != 0.0
                        ? (e1[i].value - e0[i].value) / e0[i].value * 100.0
                        : 0.0);

    Metrics layers;
    w->layerMetrics(layers);
    for (const std::string &line : w->accounting())
        std::printf("# %s\n", line.c_str());
    w.reset();

    // Every per-layer metric is measured on every workload: the other
    // workloads run a short traced loop for the layers they own.
    for (const std::string &name : names) {
        if (name == opts.workload)
            continue;
        std::unique_ptr<Workload> other = makeWorkload(name, opts);
        const LoopResult r = other->run(kProbeSeconds);
        correct = correct && r.correct;
        other->layerMetrics(layers);
    }
    dispatchProbe(layers);
    layers.push_back({"trace.overhead_pct", "%",
                      (e1[0].value - e0[0].value) / e0[0].value * 100.0});
    layers.push_back({"trace.spans", "count", double(tracer.count())});

    if (!opts.traceOut.empty() && !tracer.writeJson(opts.traceOut))
        std::fprintf(stderr, "cannot write %s\n", opts.traceOut.c_str());
    printResult(correct, plain.attempted + traced.attempted,
                plain.failed + traced.failed, layers);
    return correct ? 0 : 1;
}
