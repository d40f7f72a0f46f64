#include "pcnn/runtime/kernel_scheduler.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"
#include "pcnn/offline/resource_model.hh"

namespace pcnn {

ExecPolicy
pcnnPolicy()
{
    return ExecPolicy{SchedKind::PrioritySM, true, true};
}

ExecPolicy
baselinePolicy()
{
    return ExecPolicy{SchedKind::RoundRobin, false, false};
}

RuntimeKernelScheduler::RuntimeKernelScheduler(GpuSpec gpu)
    : gpuSpec(gpu), gpuSim(std::move(gpu))
{
}

SimResult
RuntimeKernelScheduler::execute(
    const CompiledPlan &plan, const ExecPolicy &policy,
    const std::vector<std::size_t> *positions) const
{
    return executeLevels(plan, policy, {positions}).front();
}

std::vector<SimResult>
RuntimeKernelScheduler::executeLevels(
    const CompiledPlan &plan, const ExecPolicy &policy,
    const std::vector<const std::vector<std::size_t> *> &levels) const
{
    for (const std::vector<std::size_t> *positions : levels)
        PCNN_CHECK(!positions || positions->size() == plan.layers.size(),
                   "perforation vector mismatches plan layers");

    // One kernel model per layer serves every level.
    std::vector<SgemmModel> models;
    models.reserve(plan.layers.size());
    for (const LayerSchedule &ls : plan.layers) {
        // Resource-model outputs must be in range for this GPU; a
        // stale or corrupt plan fails loudly instead of driving the
        // CTA simulator into nonsense placements.
        PCNN_CHECK_GE(ls.kernel.optTLP, 1u, "plan layer ",
                      ls.layer.name, ": optTLP out of range");
        PCNN_CHECK(ls.kernel.optSM >= 1 &&
                       ls.kernel.optSM <= gpuSpec.numSMs,
                   "plan layer ", ls.layer.name, ": optSM ",
                   ls.kernel.optSM, " outside [1, ", gpuSpec.numSMs,
                   "] on ", gpuSpec.name);
        models.emplace_back(gpuSpec, ls.kernel.config);
    }

    auto build = [&](std::size_t level, KernelSequence &seq) {
        const std::vector<std::size_t> *positions = levels[level];
        seq.resize(plan.layers.size());
        for (std::size_t i = 0; i < plan.layers.size(); ++i) {
            const LayerSchedule &ls = plan.layers[i];
            const SgemmModel &model = models[i];
            const std::size_t pos = positions ? (*positions)[i] : 0;
            // Perforation forces the im2col lowering (scattered output
            // positions); a full-grid winograd layer launches its 16
            // per-transform-point tile-GEMMs instead.
            const bool wino =
                ls.kernel.algo == ConvAlgo::Winograd && pos == 0;
            const GemmShape gemm =
                wino ? ls.layer.winogradGemmShape(plan.batch)
                     : ls.layer.gemmShape(plan.batch, pos);

            KernelDesc &kd = seq[i].first;
            kd.name = ls.layer.name;
            kd.gridSize = model.gridSize(gemm);
            kd.ctaWorkFlops = model.ctaWorkFlops(gemm);
            kd.blockSize = ls.kernel.config.tile.blockSize;
            kd.issueDensity = model.timingDensity();
            kd.bytesPerFlop = model.trafficBytesPerFlop();
            kd.launches = wino ? 16 * ls.layer.gemmCount()
                               : ls.layer.gemmCount();

            LaunchConfig &lc = seq[i].second;
            lc.scheduler = policy.scheduler;
            lc.tlpLimit = ls.kernel.optTLP;
            lc.powerGateIdle = policy.powerGateIdle;
            if (policy.fixedSmAllocation > 0 &&
                policy.scheduler == SchedKind::PrioritySM) {
                lc.smsAllowed = std::min(policy.fixedSmAllocation,
                                         gpuSpec.numSMs);
            } else if (policy.useOptSm &&
                       policy.scheduler == SchedKind::PrioritySM) {
                // Re-derive optSM when perforation shrank the grid.
                lc.smsAllowed =
                    pos == 0 ? ls.kernel.optSM
                             : optimalSms(kd.gridSize, ls.kernel.optTLP,
                                          gpuSpec.numSMs);
            } else {
                lc.smsAllowed = 0;
            }
        }
    };
    std::vector<SimResult> results =
        gpuSim.runSequences(levels.size(), build);

    // Fully connected + element-wise phases: memory-bound intervals.
    // Their FLOPs are small; with gating only a couple of SMs stay
    // powered to stream them.
    const double fc_aux = plan.time.fcS + plan.time.auxS;
    const std::size_t powered =
        policy.powerGateIdle ? std::min<std::size_t>(2, gpuSpec.numSMs)
                             : gpuSpec.numSMs;
    const SimResult tail = gpuSim.fixedInterval(fc_aux, powered);
    for (SimResult &r : results)
        r.accumulate(tail);
    return results;
}

} // namespace pcnn
