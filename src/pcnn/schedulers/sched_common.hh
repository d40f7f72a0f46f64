/**
 * @file
 * Shared plumbing for the scheduler implementations: run a compiled
 * plan on the simulator under a policy and convert the result into a
 * scored ScheduleOutcome.
 */

#ifndef PCNN_PCNN_SCHEDULERS_SCHED_COMMON_HH
#define PCNN_PCNN_SCHEDULERS_SCHED_COMMON_HH

#include "pcnn/runtime/kernel_scheduler.hh"
#include "pcnn/schedulers/scheduler.hh"

namespace pcnn {
namespace sched {

/**
 * Build the raw (pre-score) outcome of one simulated batch: the
 * response latency adds the time spent accumulating the batch, and
 * the energy is split over its images.
 * @param entropy output entropy to report (profile keep=1 if < 0)
 * @param accuracy true accuracy to report (profile keep=1 if < 0)
 */
ScheduleOutcome outcomeOf(const ScheduleContext &ctx,
                          const CompiledPlan &plan, const SimResult &sim,
                          double entropy, double accuracy);

/**
 * Simulate a plan and build the raw (pre-score) outcome.
 * @param positions per-layer perforation, nullptr = exact
 * @param entropy output entropy to report (profile keep=1 if < 0)
 */
ScheduleOutcome simulatePlan(const ScheduleContext &ctx,
                             const CompiledPlan &plan,
                             const ExecPolicy &policy,
                             const std::vector<std::size_t> *positions,
                             double entropy = -1.0,
                             double accuracy = -1.0);

} // namespace sched
} // namespace pcnn

#endif // PCNN_PCNN_SCHEDULERS_SCHED_COMMON_HH
