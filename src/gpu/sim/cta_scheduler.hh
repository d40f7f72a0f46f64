/**
 * @file
 * CTA (thread block) placement policies.
 *
 * The paper contrasts the hardware's Round-Robin CTA scheduler with
 * its Priority-SM scheduler (Fig. 7): PSM packs CTAs onto the
 * lowest-numbered SMs up to the per-SM optTLP, achieving nearly the
 * same performance with half the SMs — the unused SMs can then be
 * power gated or given to other kernels.
 */

#ifndef PCNN_GPU_SIM_CTA_SCHEDULER_HH
#define PCNN_GPU_SIM_CTA_SCHEDULER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace pcnn {

/** Available placement policies. */
enum class SchedKind { RoundRobin, PrioritySM };

/** Display name of a policy. */
std::string schedKindName(SchedKind kind);

/**
 * Strategy interface: choose the SM for each ready CTA.
 *
 * `resident` holds the current CTA count of every SM; an SM may
 * receive a CTA only while below `tlp_limit`. A scheduler may
 * restrict itself to a prefix of the SMs (PSM with optSM).
 */
class CtaScheduler
{
  public:
    virtual ~CtaScheduler() = default;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Place up to `max_ctas` CTAs, one at a time, until every
     * eligible SM is full. Each CTA is counted into `resident` before
     * the next is placed, and its SM is appended to `chosen`.
     * @param resident per-SM resident CTA counts (updated)
     * @param tlp_limit max CTAs per SM
     * @param max_ctas CTAs waiting to be placed
     * @param chosen receives the SM of every placed CTA, in order
     * @return CTAs placed
     */
    virtual std::size_t placeCtas(std::vector<std::size_t> &resident,
                                  std::size_t tlp_limit,
                                  std::size_t max_ctas,
                                  std::vector<std::size_t> &chosen) = 0;
};

/**
 * Hardware-style round robin: CTAs are dealt across all SMs in turn,
 * each SM filled to the occupancy limit (Section III.C).
 */
class RoundRobinScheduler : public CtaScheduler
{
  public:
    std::string name() const override { return "RR"; }
    std::size_t placeCtas(std::vector<std::size_t> &resident,
                          std::size_t tlp_limit, std::size_t max_ctas,
                          std::vector<std::size_t> &chosen) override;

  private:
    std::size_t cursor = 0;
};

/**
 * Priority-SM: fill SM 0 to the TLP limit, then SM 1, and so on,
 * never touching SMs beyond `sms_allowed` — those can be gated.
 */
class PrioritySmScheduler : public CtaScheduler
{
  public:
    /** @param sms_allowed SM prefix this kernel may occupy (optSM) */
    explicit PrioritySmScheduler(std::size_t sms_allowed);

    std::string name() const override { return "PSM"; }
    std::size_t placeCtas(std::vector<std::size_t> &resident,
                          std::size_t tlp_limit, std::size_t max_ctas,
                          std::vector<std::size_t> &chosen) override;

    /** SM prefix length this scheduler uses. */
    std::size_t smsAllowed() const { return allowed; }

  private:
    std::size_t allowed;
};

/**
 * Factory.
 * @param kind policy
 * @param num_sms total SMs on the GPU
 * @param sms_allowed SM budget for PSM (0 = all); ignored by RR
 */
std::unique_ptr<CtaScheduler> makeScheduler(SchedKind kind,
                                            std::size_t num_sms,
                                            std::size_t sms_allowed = 0);

} // namespace pcnn

#endif // PCNN_GPU_SIM_CTA_SCHEDULER_HH
