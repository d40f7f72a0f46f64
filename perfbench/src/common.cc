#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0.0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / double(v.size()));
}

namespace {

/** Statistics windows of a loop: full windows only, at least one. */
struct Windows
{
    std::size_t n = 1;
    double widthS = 1.0;

    explicit Windows(const LoopResult &r)
        : n(r.windowS >= r.spanS
                ? 1
                : static_cast<std::size_t>(r.spanS / r.windowS)),
          widthS(n == 1 ? r.spanS : r.windowS)
    {
    }

    /** The window holding `atS`; n when it lies past the last one. */
    std::size_t
    of(double atS) const
    {
        return n == 1 ? 0
                      : std::min(n, static_cast<std::size_t>(atS / widthS));
    }
};

/**
 * Median over windows of the work rate. Timed samples: per kind, the
 * kind's units per operation over its median busy time in the window,
 * combined over kinds by geometric mean. Untimed samples: units over
 * the window's wall time.
 */
double
windowedRate(const std::vector<WorkSample> &work, const Windows &win)
{
    if (work.empty())
        return 0.0;
    struct Kind
    {
        double units = 0.0;
        std::vector<double> busy;
    };
    std::vector<std::map<std::size_t, Kind>> timed(win.n);
    std::vector<double> untimed(win.n, 0.0);
    for (const WorkSample &x : work) {
        const std::size_t w = win.of(x.atS);
        if (w >= win.n)
            continue;
        if (x.busyS > 0.0) {
            Kind &k = timed[w][x.kind];
            k.units += x.units;
            k.busy.push_back(x.busyS);
        } else {
            untimed[w] += x.units;
        }
    }
    std::vector<double> rate;
    for (std::size_t w = 0; w < win.n; ++w) {
        if (timed[w].empty()) {
            rate.push_back(untimed[w] / win.widthS);
            continue;
        }
        std::vector<double> perKind;
        for (const auto &[kind, k] : timed[w])
            perKind.push_back(k.units / double(k.busy.size()) /
                              median(k.busy));
        rate.push_back(geomean(perKind));
    }
    return median(rate);
}

} // namespace

LoopStats
loopStats(const LoopResult &r, double tailQ)
{
    const Windows win(r);
    LoopStats s;
    s.windows = win.n;
    std::vector<std::map<std::size_t, std::vector<double>>> lat(win.n);
    for (const Sample &x : r.latencies) {
        const std::size_t w = win.of(x.atS);
        if (w < win.n) {
            lat[w][x.kind].push_back(x.value);
            ++s.samples;
        }
    }
    std::vector<double> p50, tail;
    for (const auto &kinds : lat) {
        if (kinds.empty())
            continue;
        std::vector<double> kp50, pooled;
        for (const auto &[kind, v] : kinds) {
            kp50.push_back(median(v));
            pooled.insert(pooled.end(), v.begin(), v.end());
        }
        p50.push_back(geomean(kp50));
        tail.push_back(percentile(pooled, tailQ));
    }
    s.p50S = median(p50);
    s.tailS = median(tail);
    s.throughput = windowedRate(r.work, win);
    s.throughput2 = windowedRate(r.work2, win);
    return s;
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
    // the launching process's peak when that was larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "serve_mixed")
        return makeServeMixed(opts);
    if (name == "batch_offline")
        return makeBatchOffline(opts);
    if (name == "paper_sim")
        return makePaperSim(opts);
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_mixed", "batch_offline", "paper_sim"};
    return names;
}

pcnn::Tensor
randomInput(pcnn::Rng &rng, const pcnn::Shape &item, std::size_t batch)
{
    pcnn::Tensor t(pcnn::Shape{batch, item.c, item.h, item.w});
    t.fillUniform(rng, -1.0f, 1.0f);
    return t;
}

bool
bitwiseEqual(const pcnn::Tensor &a, const pcnn::Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void
plantBitFlip(pcnn::Tensor &t)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, t.data(), sizeof bits);
    bits ^= 1u;
    std::memcpy(t.data(), &bits, sizeof bits);
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

} // namespace perfbench
