/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span has a name, a start, an end, the span that caused it and,
 * for serving, the id of the request it belongs to. Spans are recorded
 * from the benchmark's own code around each public library call, kept
 * in memory, and written out as JSON when the run ends. A layer's self
 * time is its span's duration minus the time its child spans cover.
 *
 * Disabled (the untraced runs), every entry point is one relaxed load
 * and a branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common.hh"
#include "common/mutex.hh"

namespace perfbench {

/** One recorded interval. Names point at static or interned strings. */
struct Span
{
    const char *name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< serving request id, 0 = none
    Clock::time_point start;
    Clock::time_point end;

    double durationS() const { return secondsBetween(start, end); }
};

/** Process-wide span store. */
class Tracer
{
  public:
    /** The one tracer of the process. */
    static Tracer &global();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** A fresh span id (never 0). */
    std::uint64_t newId() { return nextId.fetch_add(1) + 1; }

    /** Store a finished span (no-op when disabled). */
    void record(const Span &s);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Durations in seconds of every span called `name`. */
    std::vector<double> durations(const std::string &name) const;

    /** Number of spans recorded. */
    std::size_t count() const;

    /**
     * Intern a dynamic span name so the returned pointer outlives the
     * caller's string (names are few: nets x shapes, schedulers).
     */
    const char *intern(const std::string &name);

    /**
     * Write every span as JSON: one object per span with its self
     * time, plus a per-name self-time table.
     * @retval false when the file cannot be written
     */
    bool writeJson(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId{0};
    mutable pcnn::Mutex mu;
    std::vector<Span> store PCNN_GUARDED_BY(mu);
    /// interned names; a deque never moves its elements
    std::deque<std::string> names PCNN_GUARDED_BY(mu);
};

/**
 * RAII span around a scope. Nests through a per-thread parent stack,
 * so spans opened inside it become its children.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Span span;
    std::uint64_t prevParent = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
