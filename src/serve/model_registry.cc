#include "serve/model_registry.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/model_zoo.hh"

namespace pcnn {

namespace {

/// EWMA smoothing: heavy enough to damp scheduler noise, light
/// enough to track DVFS-style service-time drift within ~10 batches.
constexpr double kAlpha = 0.3;

} // namespace

ServiceEstimator::ServiceEstimator(std::size_t max_batch)
    : cap(max_batch), ewma(max_batch + 1, 0.0)
{
    pcnn_assert(cap >= 1, "estimator maxBatch must be >= 1");
}

void
ServiceEstimator::record(std::size_t batch, double service_s)
{
    pcnn_assert(batch >= 1 && batch <= cap,
                "recorded batch out of range");
    MutexLock lk(mu);
    double &slot = ewma[batch];
    slot = slot == 0.0 ? service_s
                       : (1.0 - kAlpha) * slot + kAlpha * service_s;
}

double
ServiceEstimator::estS(std::size_t batch) const
{
    const std::size_t b = std::min(batch, cap);
    MutexLock lk(mu);
    // Exact size first, then the largest observed size under it:
    // service time grows with batch, so a smaller batch's time is a
    // usable (under-)estimate while samples are still sparse.
    for (std::size_t i = b; i >= 1; --i)
        if (ewma[i] != 0.0)
            return ewma[i];
    return 0.0;
}

std::string
registerStatusName(RegisterStatus status)
{
    switch (status) {
      case RegisterStatus::Registered:
        return "registered";
      case RegisterStatus::DuplicateName:
        return "duplicate-name";
      case RegisterStatus::BudgetExceeded:
        return "budget-exceeded";
      case RegisterStatus::ScheduleBatchTooSmall:
        return "schedule-batch-too-small";
    }
    pcnn_panic("unknown RegisterStatus");
}

Model::Model(Network prototype, ModelConfig config,
             std::optional<GraphSchedule> schedule)
    : cfg(std::move(config)), proto(std::move(prototype)),
      sched(std::move(schedule)),
      est(std::max<std::size_t>(1, cfg.maxBatch))
{
    PCNN_CHECK(cfg.maxBatch >= 1, "model ", cfg.name,
               ": maxBatch must be >= 1");
    PCNN_CHECK(cfg.maxReplicas >= 1, "model ", cfg.name,
               ": maxReplicas must be >= 1");
}

Network
Model::makeReplica(std::size_t lanes)
{
    Network replica = proto.cloneSharingWeights();
    // One arena allocation per replica, zero recompiles: the shared
    // schedule was built once at registration, each replica only
    // validates and adopts it. The lane cap matches the worker that
    // will own the replica so the warm-up below sizes for exactly
    // the lanes serving will use.
    ScopedLaneLimit limit(lanes);
    if (sched)
        replica.adoptGraphSchedule(*sched);

    // Warm the full steady-state envelope before the replica is
    // published: a maxBatch forward grows every grow-only buffer
    // (staging, conv scratch, legacy ping-pong) to its ceiling, so
    // every smaller serving batch afterwards is allocation-free, and
    // it materializes the shared weight panels on the first replica
    // (frozen weights: later replicas find them and never repack).
    const Shape &in = proto.inputShape();
    Tensor warm(Shape{cfg.maxBatch, in.c, in.h, in.w});
    Tensor logits;
    const auto t0 = std::chrono::steady_clock::now();
    replica.forwardInto(warm, false, logits);
    const auto t1 = std::chrono::steady_clock::now();
    est.record(cfg.maxBatch,
               std::chrono::duration<double>(t1 - t0).count());
    return replica;
}

ModelRegistry::ModelRegistry(RegistryConfig config) : cfg(config) {}

RegisterStatus
ModelRegistry::registerModel(Network prototype, ModelConfig config)
{
    PCNN_CHECK(!config.name.empty(), "model needs a name");
    if (indexOf(config.name) != entries.size())
        return RegisterStatus::DuplicateName;
    PCNN_CHECK(config.perforationKeep > 0.0 &&
                   config.perforationKeep <= 1.0,
               "model ", config.name, ": perforationKeep ",
               config.perforationKeep, " outside (0, 1]");

    // Pin the model's operating point before anything derived from
    // the op structure (schedule, panels) exists: perforation levels
    // are part of the model's identity in the registry.
    if (config.perforationKeep < 1.0) {
        for (ConvLayer *c : prototype.convLayers()) {
            const auto full = static_cast<double>(c->fullPositions());
            const auto keep = static_cast<std::size_t>(
                full * config.perforationKeep);
            c->setComputedPositions(std::max<std::size_t>(1, keep));
        }
    }

    std::optional<GraphSchedule> sched;
    if (config.schedule != nullptr) {
        // Serialized plan-v4 schedule (offline compiler): adopt-time
        // validation against the live layers is CompiledGraph's job
        // and fails loudly; the batch capacity check is the one
        // mismatch worth a clean rejection because it depends on
        // this registration's config, not on the plan's integrity.
        if (config.schedule->batch < config.maxBatch)
            return RegisterStatus::ScheduleBatchTooSmall;
        sched = *config.schedule;
    } else if (prototype.graphDispatch()) {
        // Compile-on-register fallback: run the pass pipeline once;
        // pure data, no arena is allocated here.
        sched = buildGraphSchedule(prototype, config.maxBatch);
    }

    const std::size_t arena =
        sched ? sched->arenaFloats * sizeof(float) : 0;
    const std::size_t want = arena * config.maxReplicas;
    if (cfg.arenaBudgetBytes != 0 &&
        reserved + want > cfg.arenaBudgetBytes)
        return RegisterStatus::BudgetExceeded;

    reserved += want;
    entries.push_back(std::make_unique<Model>(
        std::move(prototype), std::move(config), std::move(sched)));
    return RegisterStatus::Registered;
}

Model *
ModelRegistry::find(const std::string &name)
{
    const std::size_t i = indexOf(name);
    return i == entries.size() ? nullptr : entries[i].get();
}

std::size_t
ModelRegistry::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (entries[i]->name() == name)
            return i;
    return entries.size();
}

std::size_t
registerMiniZoo(ModelRegistry &registry, Rng &rng,
                std::size_t max_batch, std::size_t max_replicas)
{
    struct ZooSpec
    {
        const char *base;
        Network (*make)(Rng &, std::size_t);
    };
    const ZooSpec nets[] = {
        {"MiniAlexNet", makeMiniAlexNet},
        {"MiniVgg", makeMiniVgg},
        {"MiniInception", makeMiniInception},
    };
    struct LevelSpec
    {
        const char *suffix;
        double keep;
    };
    const LevelSpec levels[] = {{"/full", 1.0}, {"/p50", 0.5}};

    std::size_t count = 0;
    for (const ZooSpec &z : nets) {
        for (const LevelSpec &lvl : levels) {
            // Each registration gets its own prototype: perforation
            // is applied to the network itself and the registry
            // takes ownership. Weights across perforation levels of
            // the same net need not match — only be deterministic —
            // so one shared rng stream is fine.
            ModelConfig mc;
            mc.name = std::string(z.base) + lvl.suffix;
            mc.maxBatch = max_batch;
            mc.maxReplicas = max_replicas;
            mc.perforationKeep = lvl.keep;
            const RegisterStatus st = registry.registerModel(
                z.make(rng, 8), std::move(mc));
            PCNN_CHECK(st == RegisterStatus::Registered,
                       "mini-zoo registration failed: ",
                       registerStatusName(st));
            ++count;
        }
    }
    return count;
}

} // namespace pcnn
