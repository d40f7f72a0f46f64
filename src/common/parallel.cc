#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/tags.hh"

namespace pcnn {

namespace {

thread_local std::size_t tls_lane = 0;
thread_local bool tls_in_region = false;
/// per-thread lane cap installed by ScopedLaneLimit; 0 = uncapped
thread_local std::size_t tls_lane_limit = 0;

std::size_t
defaultThreads()
{
    if (const char *env = std::getenv("PCNN_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return std::min<std::size_t>(v, 256);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Pause iterations a lane spins on an atomic before parking on its
 * condvar: 2000 x86 `pause` instructions, ~31-37 us on the 4-vCPU
 * reference host — long enough to bridge the gap between the
 * back-to-back regions of one forward, short enough that an idle
 * pool parks within a fraction of a millisecond. AArch64 spins on
 * its `yield` hint and other targets on sched_yield; the time the
 * bound buys there is unmeasured (DESIGN.md §5b).
 */
constexpr int kSpinPauses = 2000;

/// `want` of an ungated region: every lane of the pool.
constexpr std::size_t kAllLanes = std::numeric_limits<std::size_t>::max();

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#else
    std::this_thread::yield();
#endif
}

/**
 * Spin until `done()` holds, for at most kSpinPauses pauses; returns
 * whether it did. The bound is what lets a lane whose wake-up never
 * comes fall through to its condvar.
 */
PCNN_HOT_PATH
template <typename Done>
bool
spinUntil(const Done &done)
{
    for (int i = 0; i < kSpinPauses; ++i) {
        if (done())
            return true;
        cpuRelax();
    }
    return done();
}

/**
 * Lazily-started worker pool. Lane 0 is the dispatching thread; lanes
 * 1..T-1 are persistent workers woken per dispatch by a generation
 * counter. One dispatch is in flight at a time (dispatchMutex).
 *
 * Hand-off: the dispatcher publishes the job and bumps `generation`
 * under stateMutex; workers spin on the atomic, then take stateMutex
 * to re-check it (parking on `wake` if it has not moved) and read the
 * job. Joining mirrors it: workers count `pendingLanes` down, the
 * dispatcher spins on it, then waits on `done` under stateMutex, and
 * the last worker notifies under the same lock — so neither side can
 * lose a wake-up between its last look and its wait.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    std::size_t
    lanes() const
    {
        return nLanes.load(std::memory_order_relaxed);
    }

    void
    resize(std::size_t n) PCNN_EXCLUDES(dispatchMutex, stateMutex)
    {
        pcnn_assert(!tls_in_region,
                    "setThreadCount inside a parallel region");
        MutexLock dlk(dispatchMutex);
        if (n == 0)
            n = defaultThreads();
        if (n == nLanes.load(std::memory_order_relaxed))
            return;
        stopWorkers();
        nLanes.store(n, std::memory_order_relaxed);
    }

    /**
     * Run fn over [0, n) on at most `want` lanes (further capped by
     * the pool size and the calling thread's ScopedLaneLimit).
     */
    void
    run(std::size_t n, const ParallelBody &fn, std::size_t want)
        PCNN_EXCLUDES(dispatchMutex, stateMutex)
    {
        if (tls_in_region || n <= 1 ||
            capped(lanes(), want) == 1) {
            // Inline (possibly nested) execution on the calling lane:
            // no lock, no pool traffic.
            const bool outer = !tls_in_region;
            tls_in_region = true;
            try {
                fn(0, n, tls_lane);
            } catch (...) {
                tls_in_region = !outer;
                throw;
            }
            tls_in_region = !outer;
            return;
        }

        MutexLock dlk(dispatchMutex);
        // resize() writes nLanes only under dispatchMutex, so this
        // re-read is stable for the whole dispatch.
        const std::size_t width = capped(lanes(), want);
        ensureWorkers(width);
        {
            MutexLock slk(stateMutex);
            job = &fn;
            jobSize = n;
            jobLanes = width;
            firstError = nullptr;
            pendingLanes.store(width - 1, std::memory_order_relaxed);
            generation.fetch_add(1, std::memory_order_release);
        }
        wake.notifyAll();

        // Lane 0 executes its own chunk while the workers run theirs.
        std::exception_ptr mainError;
        try {
            runChunk(fn, n, width, 0);
        } catch (...) {
            mainError = std::current_exception();
            tls_in_region = false;
        }

        spinUntil([this] {
            return pendingLanes.load(std::memory_order_acquire) == 0;
        });
        UniqueLock lk(stateMutex);
        while (pendingLanes.load(std::memory_order_acquire) != 0)
            done.wait(lk, stateMutex);
        job = nullptr;
        if (mainError)
            std::rethrow_exception(mainError);
        if (firstError)
            std::rethrow_exception(firstError);
    }

  private:
    Pool() = default;

    ~Pool()
    {
        MutexLock dlk(dispatchMutex);
        stopWorkers();
    }

    /** `base` lanes under the region's and the thread's caps (>= 1). */
    static std::size_t
    capped(std::size_t base, std::size_t want)
    {
        std::size_t lanes = std::min(base, want);
        if (tls_lane_limit != 0)
            lanes = std::min(lanes, tls_lane_limit);
        return std::max<std::size_t>(1, lanes);
    }

    static void
    runChunk(const ParallelBody &fn, std::size_t n, std::size_t lanes,
             std::size_t lane)
    {
        const std::size_t begin = n * lane / lanes;
        const std::size_t end = n * (lane + 1) / lanes;
        if (begin >= end)
            return;
        tls_in_region = true;
        fn(begin, end, lane);
        tls_in_region = false;
    }

    void
    ensureWorkers(std::size_t lanes_now)
        PCNN_REQUIRES(dispatchMutex) PCNN_EXCLUDES(stateMutex)
    {
        for (std::size_t lane = workers.size() + 1; lane < lanes_now;
             ++lane) {
            workers.emplace_back([this, lane] { workerLoop(lane); });
        }
    }

    void
    stopWorkers()
        PCNN_REQUIRES(dispatchMutex) PCNN_EXCLUDES(stateMutex)
    {
        {
            MutexLock lk(stateMutex);
            stopping = true;
            generation.fetch_add(1, std::memory_order_release);
        }
        wake.notifyAll();
        for (auto &w : workers)
            w.join();
        workers.clear();
        MutexLock lk(stateMutex);
        stopping = false;
    }

    void
    workerLoop(std::size_t lane) PCNN_EXCLUDES(stateMutex)
    {
        tls_lane = lane;
        std::uint64_t seen = 0;
        // A lane left out of the last job (gated narrower than the
        // pool) parks at once: spinning for the next one would only
        // burn a core the narrow regions around it do not use.
        bool spin = true;
        for (;;) {
            if (spin)
                spinUntil([this, seen] {
                    return generation.load(std::memory_order_acquire) !=
                           seen;
                });
            const ParallelBody *fn;
            std::size_t n, lanes;
            {
                UniqueLock lk(stateMutex);
                while (!stopping &&
                       generation.load(std::memory_order_relaxed) ==
                           seen)
                    wake.wait(lk, stateMutex);
                if (stopping)
                    return;
                seen = generation.load(std::memory_order_relaxed);
                fn = job;
                n = jobSize;
                lanes = jobLanes;
            }
            spin = fn != nullptr && lane < lanes;
            if (!spin)
                continue;
            std::exception_ptr err;
            try {
                runChunk(*fn, n, lanes, lane);
            } catch (...) {
                err = std::current_exception();
                tls_in_region = false;
            }
            if (err) {
                MutexLock lk(stateMutex);
                if (!firstError)
                    firstError = err;
            }
            if (pendingLanes.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                MutexLock lk(stateMutex);
                done.notifyOne();
            }
        }
    }

    // Serializes top-level dispatches from user threads; also the
    // capability guarding the worker vector (workers are started and
    // joined only while a dispatch or resize holds it).
    Mutex dispatchMutex;
    std::vector<std::thread> workers PCNN_GUARDED_BY(dispatchMutex);
    // Configured lane count: written only by resize() under
    // dispatchMutex, read lock-free by threadCount() and inline runs.
    std::atomic<std::size_t> nLanes{defaultThreads()};

    // Dispatch state, guarded by stateMutex.
    Mutex stateMutex;
    CondVar wake, done;
    bool stopping PCNN_GUARDED_BY(stateMutex) = false;
    const ParallelBody *job PCNN_GUARDED_BY(stateMutex) = nullptr;
    std::size_t jobSize PCNN_GUARDED_BY(stateMutex) = 0;
    std::size_t jobLanes PCNN_GUARDED_BY(stateMutex) = 0;
    std::exception_ptr firstError PCNN_GUARDED_BY(stateMutex);
    // Written only under stateMutex, spun on without it.
    std::atomic<std::uint64_t> generation{0};
    // Set under stateMutex; counted down lock-free by the workers.
    std::atomic<std::size_t> pendingLanes{0};
};

} // namespace

std::size_t
threadCount()
{
    if (tls_lane_limit == 1)
        return 1;
    const std::size_t base = Pool::instance().lanes();
    if (tls_lane_limit != 0)
        return std::max<std::size_t>(1,
                                     std::min(base, tls_lane_limit));
    return base;
}

ScopedLaneLimit::ScopedLaneLimit(std::size_t n) : prev(tls_lane_limit)
{
    // Nesting composes as the tighter of the two caps: a region that
    // was already limited must not widen inside.
    if (n == 0)
        return;
    tls_lane_limit = prev == 0 ? n : std::min(prev, n);
}

ScopedLaneLimit::~ScopedLaneLimit()
{
    tls_lane_limit = prev;
}

void
setThreadCount(std::size_t n)
{
    Pool::instance().resize(n);
}

bool
inParallelRegion()
{
    return tls_in_region;
}

std::size_t
currentLane()
{
    return tls_lane;
}

namespace {

/** Dispatch fn over [0, n) on at most `want` lanes. */
void
runRegion(std::size_t n, const ParallelBody &fn, std::size_t want)
{
    if (n == 0)
        return;
    // pcnn-analyze: allow(hot-path-alloc): the name-level call graph
    // would merge every ::run overload at this edge; Pool dispatch
    // itself is steady-state alloc-free — workers are spawned once by
    // ensureWorkers and the body travels by non-owning function ref —
    // and the runtime probe (test_allocprobe, PCNN_THREADS 1/2/4)
    // verifies that end to end.
    Pool::instance().run(n, fn, want);
}

} // namespace

void
parallelFor(std::size_t n, const ParallelBody &fn)
{
    runRegion(n, fn, kAllLanes);
}

void
parallelFor(std::size_t n, const ParallelBody &fn, double work)
{
    // One lane per kLaneWork of estimated work, at most one per
    // index; a NaN or sub-lane estimate runs inline.
    const double paid = work / kLaneWork;
    const std::size_t want = paid >= double(n) ? n
                             : paid >= 1.0     ? std::size_t(paid)
                                               : 1;
    runRegion(n, fn, want);
}

} // namespace pcnn
