#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t tlsParent = 0;

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals clipped to it.
 */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    std::vector<std::vector<std::pair<Clock::time_point,
                                      Clock::time_point>>>
        kids(spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        const auto a = std::max(s.start, p.start);
        const auto b = std::min(s.end, p.end);
        if (a < b)
            kids[it->second].emplace_back(a, b);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point curA{}, curB{};
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += secondsBetween(curA, curB);
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += secondsBetween(curA, curB);
        self[i] = std::max(0.0, spans[i].durationS() - covered);
    }
    return self;
}

} // namespace

Tracer &
Tracer::global()
{
    static Tracer t;
    return t;
}

void
Tracer::record(const Span &s)
{
    if (!enabled())
        return;
    pcnn::MutexLock lock(mu);
    store.push_back(s);
}

std::vector<Span>
Tracer::spans() const
{
    pcnn::MutexLock lock(mu);
    return store;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    pcnn::MutexLock lock(mu);
    std::vector<double> out;
    for (const Span &s : store)
        if (name == s.name)
            out.push_back(s.durationS());
    return out;
}

std::size_t
Tracer::count() const
{
    pcnn::MutexLock lock(mu);
    return store.size();
}

const char *
Tracer::intern(const std::string &name)
{
    pcnn::MutexLock lock(mu);
    for (const std::string &s : names)
        if (s == name)
            return s.c_str();
    names.push_back(name);
    return names.back().c_str();
}

bool
Tracer::writeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes(all);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;

    Clock::time_point t0 = all.empty() ? Clock::now() : all[0].start;
    for (const Span &s : all)
        t0 = std::min(t0, s.start);

    std::map<std::string, std::pair<double, std::size_t>> byName;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu, \"start_us\": %.3f, "
                     "\"dur_us\": %.3f, \"self_us\": %.3f}%s\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     secondsBetween(t0, s.start) * 1e6, s.durationS() * 1e6,
                     self[i] * 1e6, i + 1 < all.size() ? "," : "");
        auto &acc = byName[s.name];
        acc.first += self[i];
        ++acc.second;
    }
    std::fprintf(f, "],\n\"self_ms_by_name\": {\n");
    std::size_t k = 0;
    for (const auto &[name, acc] : byName) {
        std::fprintf(f, "  \"%s\": {\"self_ms\": %.4f, \"count\": %zu}%s\n",
                     name.c_str(), acc.first * 1e3, acc.second,
                     ++k < byName.size() ? "," : "");
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t request)
{
    Tracer &t = Tracer::global();
    if (!t.enabled())
        return;
    span.name = name;
    span.id = t.newId();
    span.parent = tlsParent;
    span.request = request;
    prevParent = tlsParent;
    tlsParent = span.id;
    span.start = Clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (span.id == 0)
        return;
    span.end = Clock::now();
    tlsParent = prevParent;
    Tracer::global().record(span);
}

} // namespace perfbench
