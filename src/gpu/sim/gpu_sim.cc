#include "gpu/sim/gpu_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/check.hh"
#include "common/logging.hh"
#include "gpu/kernel_model.hh"

namespace pcnn {

void
SimResult::accumulate(const SimResult &o)
{
    timeS += o.timeS;
    flops += o.flops;
    energy += o.energy;
    smsUsed = std::max(smsUsed, o.smsUsed);
    smsPowered = std::max(smsPowered, o.smsPowered);
    if (smBusyS.size() < o.smBusyS.size())
        smBusyS.resize(o.smBusyS.size(), 0.0);
    for (std::size_t i = 0; i < o.smBusyS.size(); ++i)
        smBusyS[i] += o.smBusyS[i];
}

double
SimResult::averagePowerW() const
{
    return timeS > 0.0 ? energy.total() / timeS : 0.0;
}

GpuSim::GpuSim(GpuSpec gpu) : gpuSpec(gpu), energy(gpu) {}

namespace {

/**
 * Every input runOneLaunch() reads besides the bound GPU. The kernel
 * name only labels assert messages, and `launches` is applied after
 * the single launch is simulated, so neither is part of the key.
 * Doubles compare by exact value.
 */
struct LaunchKey
{
    std::size_t gridSize;
    double ctaWorkFlops;
    std::size_t blockSize;
    double issueDensity;
    double bytesPerFlop;
    SchedKind scheduler;
    std::size_t tlpLimit;
    std::size_t smsAllowed;
    bool powerGateIdle;

    LaunchKey(const KernelDesc &k, const LaunchConfig &c)
        : gridSize(k.gridSize), ctaWorkFlops(k.ctaWorkFlops),
          blockSize(k.blockSize), issueDensity(k.issueDensity),
          bytesPerFlop(k.bytesPerFlop), scheduler(c.scheduler),
          tlpLimit(c.tlpLimit), smsAllowed(c.smsAllowed),
          powerGateIdle(c.powerGateIdle)
    {
    }

    bool operator==(const LaunchKey &o) const = default;
};

struct LaunchKeyHash
{
    std::size_t
    operator()(const LaunchKey &k) const
    {
        std::size_t h = 0;
        auto mix = [&h](std::size_t v) {
            h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        };
        const std::hash<double> hd;
        mix(k.gridSize);
        mix(hd(k.ctaWorkFlops));
        mix(k.blockSize);
        mix(hd(k.issueDensity));
        mix(hd(k.bytesPerFlop));
        mix(std::size_t(k.scheduler));
        mix(k.tlpLimit);
        mix(k.smsAllowed);
        mix(std::size_t(k.powerGateIdle));
        return h;
    }
};

/** `launches` identical sequential launches of `one`. */
SimResult
repeated(const SimResult &one, std::size_t launches)
{
    // Identical launches: scale instead of re-simulating.
    SimResult r = one;
    const double k = double(launches);
    r.timeS *= k;
    r.flops *= k;
    r.energy.baseJ *= k;
    r.energy.staticJ *= k;
    r.energy.dynamicJ *= k;
    for (auto &b : r.smBusyS)
        b *= k;
    return r;
}

} // namespace

SimResult
GpuSim::runOneLaunch(const KernelDesc &kernel,
                     const LaunchConfig &cfg) const
{
    pcnn_assert(kernel.gridSize >= 1 && kernel.ctaWorkFlops > 0.0,
                "kernel ", kernel.name, ": empty grid or work");
    pcnn_assert(cfg.tlpLimit >= 1, "kernel ", kernel.name,
                ": TLP limit must be >= 1");

    const std::size_t n_sms = gpuSpec.numSMs;
    auto sched = makeScheduler(cfg.scheduler, n_sms, cfg.smsAllowed);

    // Per-SM list of remaining-work values of resident CTAs.
    std::vector<std::vector<double>> resident(n_sms);
    std::vector<std::size_t> counts(n_sms, 0);
    std::vector<double> busy(n_sms, 0.0);
    std::vector<bool> touched(n_sms, false);
    std::vector<std::size_t> chosen;

    std::size_t pending = kernel.gridSize;
    std::size_t in_flight = 0;
    std::size_t retired = 0;

    auto refill = [&]() {
        if (pending == 0)
            return;
        chosen.clear();
        sched->placeCtas(counts, cfg.tlpLimit, pending, chosen);
        for (const std::size_t sm : chosen) {
            PCNN_DCHECK_LT(sm, n_sms, "scheduler placed CTA off-chip");
            PCNN_DCHECK_LE(counts[sm], cfg.tlpLimit,
                           "scheduler overfilled an SM");
            resident[sm].push_back(kernel.ctaWorkFlops);
            touched[sm] = true;
        }
        pending -= chosen.size();
        in_flight += chosen.size();
    };
    refill();
    pcnn_assert(in_flight > 0, "kernel ", kernel.name,
                ": scheduler placed no CTAs");

    // Per-CTA throughput at each resident count: the SM's rate
    // (latency hiding improves with more resident threads, as in the
    // kernel model) shared by its CTAs.
    std::vector<double> per_cta_rate(
        std::min(cfg.tlpLimit, kernel.gridSize) + 1, 0.0);
    for (std::size_t ctas = 1; ctas < per_cta_rate.size(); ++ctas) {
        const double lat = std::clamp(
            double(ctas * kernel.blockSize) / SgemmModel::hideThreads,
            SgemmModel::latencyFloor, 1.0);
        const double sm_rate =
            gpuSpec.peakFlopsPerSM() * kernel.issueDensity * lat;
        per_cta_rate[ctas] = sm_rate / double(ctas);
    }

    double now = 0.0;
    while (in_flight > 0) {
        // Next event: the earliest CTA completion across all SMs. All
        // CTAs on one SM progress at rate(sm)/count each.
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t sm = 0; sm < n_sms; ++sm) {
            if (counts[sm] == 0)
                continue;
            const double least = *std::min_element(
                resident[sm].begin(), resident[sm].end());
            dt = std::min(dt, least / per_cta_rate[counts[sm]]);
        }
        pcnn_assert(std::isfinite(dt) && dt >= 0.0,
                    "simulator event horizon broke");

        // Advance everyone by dt and retire finished CTAs.
        for (std::size_t sm = 0; sm < n_sms; ++sm) {
            if (counts[sm] == 0)
                continue;
            busy[sm] += dt;
            const double per_cta = per_cta_rate[counts[sm]];
            auto &list = resident[sm];
            for (auto &work : list)
                work -= per_cta * dt;
            const auto it = std::remove_if(
                list.begin(), list.end(),
                [](double w) { return w <= 1e-6; });
            const std::size_t done = std::size_t(list.end() - it);
            list.erase(it, list.end());
            PCNN_DCHECK_GE(counts[sm], done, "SM retired ghost CTAs");
            counts[sm] -= done;
            in_flight -= done;
            retired += done;
            PCNN_DCHECK_EQ(counts[sm], list.size(),
                           "per-SM CTA count out of sync");
        }
        now += dt;
        // Every CTA is exactly one of pending / resident / retired.
        PCNN_DCHECK_EQ(retired + in_flight + pending, kernel.gridSize,
                       "CTA accounting broke for kernel ", kernel.name);
        refill();
    }
    PCNN_CHECK_EQ(retired, kernel.gridSize, "kernel ", kernel.name,
                  ": simulator lost CTAs");

    SimResult r;
    r.flops = double(kernel.gridSize) * kernel.ctaWorkFlops;

    // Memory bandwidth bound: a traffic-limited kernel stretches to
    // its transfer time.
    const double bw_time =
        r.flops * kernel.bytesPerFlop / gpuSpec.bandwidthBytes();
    r.timeS = std::max(now, bw_time) + SgemmModel::launchOverheadS;

    r.smBusyS = std::move(busy);
    r.smsUsed = std::size_t(
        std::count(touched.begin(), touched.end(), true));

    // Static power: gated SMs accrue nothing. Without gating every SM
    // is powered for the whole launch; with gating only the SMs the
    // scheduler may use (PSM budget) stay powered.
    std::size_t powered = n_sms;
    if (cfg.powerGateIdle) {
        powered = cfg.scheduler == SchedKind::PrioritySM &&
                          cfg.smsAllowed > 0
                      ? std::min(cfg.smsAllowed, n_sms)
                      : r.smsUsed;
    }
    r.smsPowered = powered;
    r.energy = energy.interval(r.timeS, powered, r.flops);
    return r;
}

SimResult
GpuSim::runKernel(const KernelDesc &kernel, const LaunchConfig &cfg) const
{
    SimResult one = runOneLaunch(kernel, cfg);
    if (kernel.launches <= 1)
        return one;
    return repeated(one, kernel.launches);
}

std::vector<SimResult>
GpuSim::runSequences(
    std::size_t count,
    const std::function<void(std::size_t, KernelSequence &)> &build) const
{
    // runOneLaunch is a pure function of its LaunchKey and the bound
    // GPU, so a repeated launch reuses the first result exactly. The
    // memo lives only for this call: a later call (another study, in
    // a benchmark) simulates its launches afresh.
    std::unordered_map<LaunchKey, SimResult, LaunchKeyHash> memo;
    std::vector<SimResult> results;
    results.reserve(count);
    KernelSequence seq;
    for (std::size_t i = 0; i < count; ++i) {
        build(i, seq);
        SimResult total;
        total.smBusyS.assign(gpuSpec.numSMs, 0.0);
        for (const auto &[kernel, cfg] : seq) {
            const auto [it, fresh] =
                memo.try_emplace(LaunchKey(kernel, cfg));
            if (fresh)
                it->second = runOneLaunch(kernel, cfg);
            if (kernel.launches <= 1)
                total.accumulate(it->second);
            else
                total.accumulate(repeated(it->second, kernel.launches));
        }
        results.push_back(std::move(total));
    }
    return results;
}

PartitionedResult
GpuSim::runPartitioned(const std::vector<PartitionedKernel> &kernels,
                       bool gate_unused) const
{
    pcnn_assert(!kernels.empty(), "no kernels to partition");
    const std::size_t n_sms = gpuSpec.numSMs;

    // Validate disjoint partitions and build the SM -> kernel map.
    std::vector<int> owner(n_sms, -1);
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const PartitionedKernel &pk = kernels[k];
        pcnn_assert(pk.smBegin < pk.smEnd && pk.smEnd <= n_sms,
                    "kernel ", pk.kernel.name, ": bad SM range");
        pcnn_assert(pk.tlpLimit >= 1 && pk.kernel.gridSize >= 1,
                    "kernel ", pk.kernel.name, ": empty launch");
        for (std::size_t sm = pk.smBegin; sm < pk.smEnd; ++sm) {
            pcnn_assert(owner[sm] < 0, "SM ", sm,
                        " claimed by two partitions");
            owner[sm] = int(k);
        }
    }

    // Per-SM resident CTA work; per-kernel pending counts.
    std::vector<std::vector<double>> resident(n_sms);
    std::vector<std::size_t> pending(kernels.size());
    std::vector<std::size_t> in_flight(kernels.size(), 0);
    std::vector<double> finish(kernels.size(), 0.0);
    for (std::size_t k = 0; k < kernels.size(); ++k)
        pending[k] = kernels[k].kernel.gridSize;

    auto refill = [&](std::size_t k) {
        const PartitionedKernel &pk = kernels[k];
        for (std::size_t sm = pk.smBegin;
             sm < pk.smEnd && pending[k] > 0; ++sm) {
            while (resident[sm].size() < pk.tlpLimit &&
                   pending[k] > 0) {
                resident[sm].push_back(pk.kernel.ctaWorkFlops);
                --pending[k];
                ++in_flight[k];
            }
        }
    };
    for (std::size_t k = 0; k < kernels.size(); ++k)
        refill(k);

    auto sm_rate = [&](std::size_t sm) {
        const int k = owner[sm];
        const std::size_t ctas = resident[sm].size();
        if (k < 0 || ctas == 0)
            return 0.0;
        const KernelDesc &kd = kernels[std::size_t(k)].kernel;
        const double lat = std::clamp(
            double(ctas * kd.blockSize) / SgemmModel::hideThreads,
            SgemmModel::latencyFloor, 1.0);
        return gpuSpec.peakFlopsPerSM() * kd.issueDensity * lat;
    };

    double now = 0.0;
    auto any_in_flight = [&]() {
        for (std::size_t f : in_flight)
            if (f > 0)
                return true;
        return false;
    };

    while (any_in_flight()) {
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t sm = 0; sm < n_sms; ++sm) {
            if (resident[sm].empty())
                continue;
            const double per_cta =
                sm_rate(sm) / double(resident[sm].size());
            const double least = *std::min_element(
                resident[sm].begin(), resident[sm].end());
            dt = std::min(dt, least / per_cta);
        }
        pcnn_assert(std::isfinite(dt), "partitioned sim stalled");

        for (std::size_t sm = 0; sm < n_sms; ++sm) {
            if (resident[sm].empty())
                continue;
            const std::size_t k = std::size_t(owner[sm]);
            const double per_cta =
                sm_rate(sm) / double(resident[sm].size());
            auto &list = resident[sm];
            for (auto &work : list)
                work -= per_cta * dt;
            const auto it =
                std::remove_if(list.begin(), list.end(),
                               [](double w) { return w <= 1e-6; });
            const std::size_t done = std::size_t(list.end() - it);
            list.erase(it, list.end());
            in_flight[k] -= done;
            if (done > 0 && in_flight[k] == 0 && pending[k] == 0)
                finish[k] = now + dt;
        }
        now += dt;
        for (std::size_t k = 0; k < kernels.size(); ++k)
            refill(k);
    }

    PartitionedResult r;
    r.kernelTimeS.resize(kernels.size());
    double total_flops = 0.0;
    std::size_t claimed = 0;
    for (int o : owner)
        claimed += o >= 0;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const PartitionedKernel &pk = kernels[k];
        const double work = double(pk.kernel.gridSize) *
                            pk.kernel.ctaWorkFlops;
        total_flops += work;
        // Each partition gets a bandwidth share proportional to its
        // SM share (a common spatial-multitasking approximation).
        const double share =
            double(pk.smEnd - pk.smBegin) / double(claimed);
        const double bw_time = work * pk.kernel.bytesPerFlop /
                               (gpuSpec.bandwidthBytes() * share);
        r.kernelTimeS[k] = std::max(finish[k], bw_time) +
                           SgemmModel::launchOverheadS;
        r.timeS = std::max(r.timeS, r.kernelTimeS[k]);
    }
    r.flops = total_flops;
    r.smsPowered = gate_unused ? claimed : n_sms;
    r.energy = energy.interval(r.timeS, r.smsPowered, total_flops);
    return r;
}

SimResult
GpuSim::fixedInterval(double time_s, std::size_t powered_sms,
                      double flops) const
{
    pcnn_assert(time_s >= 0.0, "negative interval");
    SimResult r;
    r.timeS = time_s;
    r.flops = flops;
    r.smBusyS.assign(gpuSpec.numSMs, 0.0);
    r.smsPowered = std::min(powered_sms, gpuSpec.numSMs);
    r.energy = energy.interval(time_s, r.smsPowered, flops);
    return r;
}

} // namespace pcnn
