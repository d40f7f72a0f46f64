/**
 * @file
 * Event-driven SM/CTA-level GPU simulator.
 *
 * Plays the role GPGPU-Sim plays in the paper's evaluation (Section
 * V): kernels are grids of CTAs with a fixed work quantum; resident
 * CTAs share an SM's issue bandwidth; a pluggable CTA scheduler (RR
 * or PSM) refills freed slots; energy is accounted per interval with
 * optional power gating of unused SMs.
 */

#ifndef PCNN_GPU_SIM_GPU_SIM_HH
#define PCNN_GPU_SIM_GPU_SIM_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gpu/gpu_spec.hh"
#include "gpu/sim/cta_scheduler.hh"
#include "gpu/sim/energy_model.hh"

namespace pcnn {

/** One kernel as the simulator sees it. */
struct KernelDesc
{
    std::string name;
    std::size_t gridSize = 0;    ///< CTAs per launch
    double ctaWorkFlops = 0.0;   ///< FLOPs per CTA (2*m*n*K)
    std::size_t blockSize = 0;   ///< threads per CTA
    double issueDensity = 0.0;   ///< FFMA share of issue slots
    double bytesPerFlop = 0.0;   ///< global traffic per FLOP
    /// identical sequential launches (conv groups, per-image loops)
    std::size_t launches = 1;
};

/** How a kernel is scheduled onto the GPU. */
struct LaunchConfig
{
    SchedKind scheduler = SchedKind::RoundRobin;
    std::size_t tlpLimit = 1;    ///< CTAs per SM (occupancy or optTLP)
    std::size_t smsAllowed = 0;  ///< PSM SM budget (0 = all SMs)
    /// power gate the SMs this launch never occupies
    bool powerGateIdle = false;
};

/** Outcome of one simulated kernel (or sequence). */
struct SimResult
{
    double timeS = 0.0;
    double flops = 0.0;
    EnergyBreakdown energy;
    std::size_t smsUsed = 0;      ///< SMs that ran at least one CTA
    std::size_t smsPowered = 0;   ///< SMs whose static power accrued
    std::vector<double> smBusyS;  ///< per-SM busy time

    /** Aggregate another kernel's result (sequential execution). */
    void accumulate(const SimResult &o);

    /** Average power over the simulated interval. */
    double averagePowerW() const;
};

/** Kernels run back to back (e.g. the conv layers of one inference). */
using KernelSequence = std::vector<std::pair<KernelDesc, LaunchConfig>>;

/** One kernel pinned to an SM range for spatial co-location. */
struct PartitionedKernel
{
    KernelDesc kernel;
    std::size_t smBegin = 0; ///< first SM of the partition
    std::size_t smEnd = 0;   ///< one past the last SM
    std::size_t tlpLimit = 1;
};

/** Outcome of a spatially partitioned multi-kernel run. */
struct PartitionedResult
{
    std::vector<double> kernelTimeS; ///< finish time per kernel
    double timeS = 0.0;              ///< overall (max) finish time
    double flops = 0.0;
    EnergyBreakdown energy;
    std::size_t smsPowered = 0;
};

/**
 * The simulator. Stateless between runs; bind once per GPU.
 */
class GpuSim
{
  public:
    /** Bind the simulated architecture. */
    explicit GpuSim(GpuSpec gpu);

    /** Simulated GPU. */
    const GpuSpec &gpu() const { return gpuSpec; }

    /**
     * Simulate one kernel (all its launches) under a launch config.
     * Bandwidth-bound kernels are stretched to their traffic time.
     */
    SimResult runKernel(const KernelDesc &kernel,
                        const LaunchConfig &cfg) const;

    /**
     * Simulate `count` kernel sequences (e.g. the conv layers of one
     * inference, at every level of a tuning path) and aggregate each
     * one's time/energy in kernel order. `build(i, seq)` makes `seq`
     * the i-th sequence; `seq` still holds sequence i-1, so overwriting
     * its entries in place reuses their storage.
     *
     * Within this one call each distinct single launch is simulated
     * once. A repeat reuses the stored result, so every result is
     * bitwise the sum of runKernel() over its sequence. Nothing is
     * kept after the call returns.
     */
    std::vector<SimResult> runSequences(
        std::size_t count,
        const std::function<void(std::size_t, KernelSequence &)> &build)
        const;

    /**
     * Account an analytically-timed interval (memory-bound fc layers,
     * element-wise ops) so sequences carry the right energy.
     * @param powered_sms SMs left powered during the interval
     * @param flops work executed, for dynamic energy
     */
    SimResult fixedInterval(double time_s, std::size_t powered_sms,
                            double flops = 0.0) const;

    /**
     * Spatial multitasking (Section III.D.2 / Fig. 7): run several
     * kernels concurrently, each confined to a disjoint SM range.
     * Each kernel's traffic is bounded by its share of memory
     * bandwidth (proportional to its SM share).
     *
     * @param kernels disjoint partitions; ranges must not overlap
     * @param gate_unused power gate SMs outside every partition
     */
    PartitionedResult
    runPartitioned(const std::vector<PartitionedKernel> &kernels,
                   bool gate_unused = true) const;

  private:
    /** Simulate a single launch; returns time and per-SM busy time. */
    SimResult runOneLaunch(const KernelDesc &kernel,
                           const LaunchConfig &cfg) const;

    GpuSpec gpuSpec;
    EnergyModel energy;
};

} // namespace pcnn

#endif // PCNN_GPU_SIM_GPU_SIM_HH
