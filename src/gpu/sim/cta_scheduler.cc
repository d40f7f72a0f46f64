#include "gpu/sim/cta_scheduler.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"

namespace pcnn {

std::string
schedKindName(SchedKind kind)
{
    switch (kind) {
      case SchedKind::RoundRobin:
        return "RR";
      case SchedKind::PrioritySM:
        return "PSM";
    }
    pcnn_panic("unknown SchedKind");
}

std::size_t
RoundRobinScheduler::placeCtas(std::vector<std::size_t> &resident,
                               std::size_t tlp_limit, std::size_t max_ctas,
                               std::vector<std::size_t> &chosen)
{
    const std::size_t n = resident.size();
    // SMs below the limit. Each CTA goes to the first of them at or
    // after the cursor, which then moves one past it; with none open
    // the cursor stays put.
    std::size_t open = 0;
    for (std::size_t c : resident)
        open += c < tlp_limit;
    std::size_t placed = 0;
    for (; placed < max_ctas && open > 0; ++placed) {
        std::size_t sm = cursor % n;
        while (resident[sm] >= tlp_limit)
            sm = sm + 1 == n ? 0 : sm + 1;
        cursor = sm + 1 == n ? 0 : sm + 1;
        if (++resident[sm] == tlp_limit)
            --open;
        chosen.push_back(sm);
    }
    return placed;
}

PrioritySmScheduler::PrioritySmScheduler(std::size_t sms_allowed)
    : allowed(sms_allowed)
{
    PCNN_CHECK_GE(allowed, 1u, "PSM needs at least one SM");
}

std::size_t
PrioritySmScheduler::placeCtas(std::vector<std::size_t> &resident,
                               std::size_t tlp_limit, std::size_t max_ctas,
                               std::vector<std::size_t> &chosen)
{
    // Each CTA goes to the lowest SM below the limit; counts only
    // grow during a placeCtas() call, so that SM never moves back.
    const std::size_t n = std::min(allowed, resident.size());
    std::size_t placed = 0;
    for (std::size_t sm = 0; sm < n && placed < max_ctas; ++sm) {
        for (; resident[sm] < tlp_limit && placed < max_ctas; ++placed) {
            ++resident[sm];
            chosen.push_back(sm);
        }
    }
    return placed;
}

std::unique_ptr<CtaScheduler>
makeScheduler(SchedKind kind, std::size_t num_sms,
              std::size_t sms_allowed)
{
    switch (kind) {
      case SchedKind::RoundRobin:
        return std::make_unique<RoundRobinScheduler>();
      case SchedKind::PrioritySM:
        return std::make_unique<PrioritySmScheduler>(
            sms_allowed == 0 ? num_sms : sms_allowed);
    }
    pcnn_panic("unknown SchedKind");
}

} // namespace pcnn
