#include "pcnn/schedulers/ideal.hh"

#include <algorithm>
#include <limits>

#include "pcnn/offline/batch_selector.hh"
#include "pcnn/runtime/accuracy_tuner.hh"
#include "pcnn/schedulers/sched_common.hh"

namespace pcnn {

namespace {

/** Best SoC over every tuning level of one candidate plan. */
ScheduleOutcome
bestOverTuningPath(const ScheduleContext &ctx, const CompiledPlan &plan,
                   const std::string &name)
{
    // Profile the full tuning path (no entropy stopping criterion —
    // the oracle explores everything and judges by true accuracy).
    TunerConfig tcfg;
    tcfg.entropyThreshold = std::numeric_limits<double>::infinity();
    const AccuracyTuner tuner(ctx.gpu, tcfg);
    const TuningTable table = tuner.tuneModeled(plan, ctx.profile);

    // Levels whose true accuracy drop the user would actually notice
    // are never profiled; the rest are simulated in one call.
    const double acc0 = ctx.profile.accuracyAt(1.0);
    std::vector<const TuningEntry *> kept;
    std::vector<const std::vector<std::size_t> *> positions;
    for (std::size_t level = 0; level < table.levels(); ++level) {
        const TuningEntry &entry = table.entry(level);
        if (entry.accuracy <
            acc0 - IdealScheduler::acceptableAccuracyDrop) {
            continue;
        }
        kept.push_back(&entry);
        positions.push_back(level == 0 ? nullptr : &entry.positions);
    }
    const RuntimeKernelScheduler rt(ctx.gpu);
    const std::vector<SimResult> sims =
        rt.executeLevels(plan, pcnnPolicy(), positions);

    ScheduleOutcome best;
    bool have_best = false;
    for (std::size_t k = 0; k < kept.size(); ++k) {
        const TuningEntry &entry = *kept[k];
        // The oracle knows the outputs are trustworthy, so its
        // accuracy satisfaction is never docked by a pessimistic
        // entropy reading: report entropy clamped to the threshold.
        const double oracle_entropy =
            std::min(entry.entropy, ctx.requirement.entropyThreshold);
        ScheduleOutcome out = sched::outcomeOf(ctx, plan, sims[k],
                                               oracle_entropy,
                                               entry.accuracy);
        out.scheduler = name;
        out.tuningSpeedup = entry.speedup;
        Scheduler::score(out, ctx);
        if (!have_best || out.socScore > best.socScore) {
            best = out;
            have_best = true;
        }
    }
    return best;
}

} // namespace

ScheduleOutcome
IdealScheduler::run(const ScheduleContext &ctx) const
{
    const OfflineCompiler compiler(ctx.gpu);

    // The oracle profiles every knob, including the batch size: the
    // requirement-driven plan plus a throughput-maximizing big-batch
    // plan (which the latency penalty of batch accumulation prunes
    // automatically for latency-sensitive tasks).
    std::vector<CompiledPlan> plans;
    plans.push_back(compiler.compile(ctx.net, ctx.app));
    const BatchSelector batches(ctx.gpu);
    const std::size_t big = std::min<std::size_t>(
        256, std::max<std::size_t>(batches.memoryCap(ctx.net), 1));
    if (big != plans.front().batch)
        plans.push_back(compiler.compileAtBatch(ctx.net, big));

    ScheduleOutcome best;
    bool have_best = false;
    for (const CompiledPlan &plan : plans) {
        const ScheduleOutcome out =
            bestOverTuningPath(ctx, plan, name());
        if (!have_best || out.socScore > best.socScore) {
            best = out;
            have_best = true;
        }
    }
    return best;
}

} // namespace pcnn
