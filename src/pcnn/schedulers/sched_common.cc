#include "pcnn/schedulers/sched_common.hh"

namespace pcnn {
namespace sched {

ScheduleOutcome
outcomeOf(const ScheduleContext &ctx, const CompiledPlan &plan,
          const SimResult &sim, double entropy, double accuracy)
{
    ScheduleOutcome out;
    out.batch = plan.batch;
    // Response latency includes the time spent *accumulating* the
    // batch: requests arrive at the application's data rate, so a
    // scheduler that batches beyond the live request stream pays for
    // it in responsiveness (this is what sinks the energy-efficient
    // scheduler on latency-sensitive tasks in Figs. 13/15).
    const double fill =
        ctx.app.dataRateHz > 0.0
            ? double(plan.batch - 1) / ctx.app.dataRateHz
            : 0.0;
    out.latencyS = sim.timeS + fill;
    out.energyPerImageJ = sim.energy.total() / double(plan.batch);
    out.entropy = entropy >= 0.0 ? entropy : ctx.profile.entropyAt(1.0);
    out.accuracy =
        accuracy >= 0.0 ? accuracy : ctx.profile.accuracyAt(1.0);
    return out;
}

ScheduleOutcome
simulatePlan(const ScheduleContext &ctx, const CompiledPlan &plan,
             const ExecPolicy &policy,
             const std::vector<std::size_t> *positions, double entropy,
             double accuracy)
{
    const RuntimeKernelScheduler rt(ctx.gpu);
    return outcomeOf(ctx, plan, rt.execute(plan, policy, positions),
                     entropy, accuracy);
}

} // namespace sched
} // namespace pcnn
