/**
 * @file
 * Run-time kernel management (Section IV.C.2).
 *
 * Executes a compiled plan on the CTA-level simulator: for each conv
 * layer it allocates optSM SMs, places optTLP CTAs per SM with the
 * Priority-SM scheduler, and power gates the remaining SMs. Baseline
 * modes (whole-GPU Round-Robin, no gating) are provided for the
 * scheduler comparison of Figs. 13-15.
 */

#ifndef PCNN_PCNN_RUNTIME_KERNEL_SCHEDULER_HH
#define PCNN_PCNN_RUNTIME_KERNEL_SCHEDULER_HH

#include <vector>

#include "gpu/sim/gpu_sim.hh"
#include "pcnn/offline/compiler.hh"

namespace pcnn {

/** Execution policy knobs for one simulated inference. */
struct ExecPolicy
{
    SchedKind scheduler = SchedKind::PrioritySM;
    bool useOptSm = true;      ///< honor per-layer optSM allocations
    bool powerGateIdle = true; ///< gate SMs outside the allocation
    /// when > 0, give every layer exactly this many SMs instead of
    /// its per-layer optSM — the static spatial-multitasking
    /// baseline the paper critiques in Section III.D.2
    std::size_t fixedSmAllocation = 0;
};

/** The P-CNN default policy (PSM + optSM + gating). */
ExecPolicy pcnnPolicy();

/** The hardware baseline policy (RR, whole GPU, no gating). */
ExecPolicy baselinePolicy();

/**
 * Runtime kernel scheduler bound to one GPU.
 */
class RuntimeKernelScheduler
{
  public:
    /** Bind the deployment architecture. */
    explicit RuntimeKernelScheduler(GpuSpec gpu);

    /**
     * Simulate one batch inference of a plan.
     *
     * @param plan compiled plan (kernels, optTLP, optSM per layer)
     * @param policy scheduling policy
     * @param positions optional per-layer perforation (tuning level);
     *        nullptr = exact execution
     * @return aggregated time/energy over conv + fc + aux phases
     */
    SimResult execute(const CompiledPlan &plan, const ExecPolicy &policy,
                      const std::vector<std::size_t> *positions =
                          nullptr) const;

    /**
     * Simulate one batch inference of a plan at several tuning
     * levels in one call; execute() is the one-level case. Each
     * distinct kernel launch across the levels is simulated once
     * (GpuSim::runSequences), so result i is bitwise what execute()
     * returns for `levels[i]`.
     *
     * @param levels per-layer perforation of each level; a nullptr
     *        entry means exact execution
     * @return one result per level, in order
     */
    std::vector<SimResult> executeLevels(
        const CompiledPlan &plan, const ExecPolicy &policy,
        const std::vector<const std::vector<std::size_t> *> &levels)
        const;

    /** The simulator, for direct experimentation. */
    const GpuSim &sim() const { return gpuSim; }

  private:
    GpuSpec gpuSpec;
    GpuSim gpuSim;
};

} // namespace pcnn

#endif // PCNN_PCNN_RUNTIME_KERNEL_SCHEDULER_HH
