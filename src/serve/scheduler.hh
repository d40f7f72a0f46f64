/**
 * @file
 * Multi-tenant queue fabric (DESIGN.md §5k).
 *
 * One scheduling structure routes every request — model id, task
 * class, deadline — to the replica pools. Per model there are two
 * lanes: an *urgent* lane (interactive + real-time, ordered earliest
 * deadline first) and a *background* lane (FIFO). Idle workers take
 * grants with strict priority: any serviceable urgent work first;
 * background only when no urgent request is queued anywhere, and
 * then only a batch small enough to fit the occupancy budget derived
 * from the protected classes' SoC_time slack (runtime/slack.hh) and
 * the per-model EWMA service estimates.
 *
 * Admission control sheds background before interactive: an urgent
 * arrival at a full model queue evicts the newest queued background
 * request (fulfilled as shed) instead of being rejected; a
 * background arrival at a full queue is simply rejected.
 *
 * The fabric is thread-free — workers and producers drive it — so
 * every policy decision is deterministic and unit-testable via
 * tryTake() without threads.
 */

#ifndef PCNN_SERVE_SCHEDULER_HH
#define PCNN_SERVE_SCHEDULER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <vector>

#include "common/mutex.hh"
#include "pcnn/runtime/slack.hh"
#include "pcnn/task.hh"
#include "serve/metrics.hh"
#include "serve/model_registry.hh"
#include "tensor/tensor.hh"

namespace pcnn {

/** Outcome of MultiTenantEngine::submit / QueueFabric::push. */
enum class SubmitStatus
{
    Accepted,        ///< queued; the future will be fulfilled
    QueueFull,       ///< shed: the bounded queue was at capacity
    Stopped,         ///< the engine is stopping; no new work accepted
    InvalidArgument, ///< unknown model or wrongly shaped input
};

/** Completed (or shed) multi-tenant inference. */
struct TenantResult
{
    Tensor logits;             ///< [1, k, 1, 1]; empty when shed
    bool shed = false;         ///< evicted by admission control
    double latencyS = 0.0;     ///< submit -> completion
    double queueS = 0.0;       ///< submit -> service start
    std::size_t batchSize = 0; ///< size of the batch it rode in
};

/** One queued multi-tenant request. */
struct TenantRequest
{
    std::uint64_t id = 0;
    std::size_t model = 0; ///< registry index
    TaskClass cls = TaskClass::Interactive;
    /// latency requirement; engines fill it from classRequirement()
    UserRequirement req;
    /// absolute deadline (enqueued + the requirement's imperceptible
    /// region); orders the urgent lane, EDF
    std::chrono::steady_clock::time_point deadline;
    Tensor input; ///< [1, c, h, w]
    std::chrono::steady_clock::time_point enqueued;
    std::promise<TenantResult> done;

    /** Urgent lane membership (everything but background). */
    bool urgent() const { return cls != TaskClass::Background; }
};

/** A batch of same-model requests granted to one worker. */
struct BatchGrant
{
    std::size_t model = 0;
    bool background = false;
    /// same-model, same-lane requests; empty means the fabric is
    /// closed and fully drained: the worker should exit
    std::vector<TenantRequest> batch;
};

/** Fabric policy knobs. */
struct FabricConfig
{
    /// per-model bound on queued requests (urgent + background)
    std::size_t queueCapacity = 64;
    /// background occupancy-budget policy
    SlackConfig slack;
    /// the latency class background admission protects when no
    /// urgent request is queued to read a requirement from
    UserRequirement guardRequirement = classRequirement(
        TaskClass::Interactive);
};

/**
 * The shared scheduling structure between producers, workers and the
 * replica pools. Tracks per-model idle-replica counts (mirrored by
 * the engine's pools): a grant is only formed for a model with an
 * idle replica, so a worker holding a grant never blocks on replica
 * acquisition.
 */
class QueueFabric
{
  public:
    /**
     * @param registry registered models; must outlive the fabric
     * @param config policy knobs
     * @param metrics recorder for shed/depth events the fabric owns
     */
    QueueFabric(const ModelRegistry &registry, FabricConfig config,
                TenantMetrics &metrics);

    /**
     * Enqueue a request, or shed: Stopped after close(); QueueFull
     * when the model's queue is at capacity and nothing may be
     * evicted. An urgent arrival at capacity evicts the newest
     * queued background request of the same model (its promise is
     * fulfilled with shed=true) — background sheds before
     * interactive, never the other way. Never blocks.
     */
    SubmitStatus push(TenantRequest &&req);

    /**
     * Block until a grant is available (see class comment for the
     * priority rules) or the fabric is closed and drained (empty
     * grant). Decrements the granted model's idle count; the worker
     * must return the replica via addIdle() when done.
     */
    BatchGrant take();

    /**
     * Non-blocking take(): applies exactly the same policy once.
     * Returns false when nothing is grantable right now. Lets tests
     * drive the policy deterministically without worker threads.
     */
    bool tryTake(BatchGrant &out);

    /** Report a replica of `model` idle (also called at start-up). */
    void addIdle(std::size_t model);

    /**
     * Permanently remove one idle replica of `model` from the
     * schedulable pool (autoscaler shrink). Returns false when no
     * replica of the model is currently idle.
     */
    bool removeIdle(std::size_t model);

    /** Stop accepting requests and wake all waiting workers. */
    void close();

    /** True after close(). */
    bool closed() const;

    /** Queued urgent requests of one model (tests/metrics). */
    std::size_t urgentQueued(std::size_t model) const;

    /** Queued background requests of one model (tests/metrics). */
    std::size_t backgroundQueued(std::size_t model) const;

    /** Total queued requests of one model. */
    std::size_t queued(std::size_t model) const;

    /** Idle replicas of one model (tests/autoscaler). */
    std::size_t idleCount(std::size_t model) const;

    /**
     * The occupancy budget a background batch would get right now
     * (seconds; +inf when unconstrained). Exposed for tests and the
     * bench trace.
     */
    double backgroundBudgetS() const;

  private:
    /** Per-model queues and replica availability. */
    struct ModelState
    {
        std::deque<TenantRequest> urgent;     ///< EDF-ordered
        std::deque<TenantRequest> background; ///< FIFO
        std::size_t idle = 0;                 ///< idle replicas
    };

    /** Policy core; returns false when nothing is grantable. */
    bool formGrant(BatchGrant &out) PCNN_REQUIRES(mu);

    /** Occupancy budget under the lock (see backgroundBudgetS). */
    double budgetLocked() const PCNN_REQUIRES(mu);

    const ModelRegistry &reg;
    FabricConfig cfg;
    TenantMetrics &meter;
    mutable Mutex mu;
    CondVar cv;
    std::vector<ModelState> states PCNN_GUARDED_BY(mu);
    bool stopped PCNN_GUARDED_BY(mu) = false;
};

} // namespace pcnn

#endif // PCNN_SERVE_SCHEDULER_HH
