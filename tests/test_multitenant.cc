/**
 * @file
 * Multi-tenant serving tests (DESIGN.md §5k): model registry and
 * arena budget accounting, schedule adoption at registration, queue
 * fabric priority/admission/slack policy and MPMC delivery,
 * autoscaler hysteresis, and the MultiTenantEngine end to end —
 * per-model bitwise logits across worker and replica counts,
 * shed-before-interactive, zero steady-state repacks and allocations
 * across a scale-up, metrics, lane partitioning, the default
 * layout and its parallel replica build, and rejection of malformed
 * submissions and unknown model indices. Also the shared-weight contracts serving
 * relies on (DESIGN.md §5f): batch-row purity and the freeze that
 * cloneSharingWeights puts on both sides.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/fusion.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/model_zoo.hh"
#include "nn/serialize.hh"
#include "pcnn/offline/plan_io.hh"
#include "serve/autoscaler.hh"
#include "serve/model_registry.hh"
#include "serve/multi_engine.hh"
#include "serve/scheduler.hh"
#include "tensor/tensor_ops.hh"
#include "tensor/winograd.hh"
#include "train/sgd.hh"

namespace pcnn {
namespace {

// The engine spawns worker threads; the default "fast" (plain fork)
// death-test style is unsafe once threads exist.
class ThreadsafeDeathStyle : public ::testing::Environment
{
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

const auto *const g_death_style =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathStyle);

Tensor
randomInput(Rng &rng, const Shape &in)
{
    Tensor t(Shape{1, in.c, in.h, in.w});
    t.fillUniform(rng, -1.0f, 1.0f);
    return t;
}

ModelConfig
modelConfig(const std::string &name, std::size_t max_batch = 4,
            std::size_t max_replicas = 4)
{
    ModelConfig mc;
    mc.name = name;
    mc.maxBatch = max_batch;
    mc.maxReplicas = max_replicas;
    return mc;
}

TenantRequest
makeRequest(std::size_t model, TaskClass cls, Tensor input,
            double deadline_offset_s = 0.1)
{
    TenantRequest r;
    r.model = model;
    r.cls = cls;
    r.req = classRequirement(cls);
    r.input = std::move(input);
    r.enqueued = std::chrono::steady_clock::now();
    r.deadline =
        r.urgent()
            ? r.enqueued + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   deadline_offset_s))
            : r.enqueued;
    return r;
}

// -------------------------------------------------- ServiceEstimator

TEST(ServiceEstimator, FallsBackToLargestObservedSmallerBatch)
{
    ServiceEstimator est(8);
    EXPECT_EQ(est.estS(8), 0.0);
    est.record(2, 0.010);
    EXPECT_DOUBLE_EQ(est.estS(8), 0.010);
    EXPECT_DOUBLE_EQ(est.estS(1), 0.0); // nothing at or under 1
    est.record(8, 0.040);
    EXPECT_DOUBLE_EQ(est.estS(8), 0.040);
    EXPECT_DOUBLE_EQ(est.estS(5), 0.010);
}

TEST(ServiceEstimator, EwmaSmoothes)
{
    ServiceEstimator est(1);
    est.record(1, 0.100);
    est.record(1, 0.200);
    EXPECT_GT(est.estS(1), 0.100);
    EXPECT_LT(est.estS(1), 0.200);
}

// ----------------------------------------------------- ModelRegistry

TEST(ModelRegistry, RegistersAndLooksUpByNameAndIndex)
{
    Rng rng(7);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng), modelConfig("vgg")),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex")),
              RegisterStatus::Registered);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.indexOf("vgg"), 0u);
    EXPECT_EQ(reg.indexOf("alex"), 1u);
    EXPECT_EQ(reg.indexOf("nope"), reg.size());
    ASSERT_NE(reg.find("alex"), nullptr);
    EXPECT_EQ(reg.find("alex")->name(), "alex");
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(ModelRegistry, RejectsDuplicateNames)
{
    Rng rng(7);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng), modelConfig("m")),
              RegisterStatus::Registered);
    EXPECT_EQ(reg.registerModel(makeMiniVgg(rng), modelConfig("m")),
              RegisterStatus::DuplicateName);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(ModelRegistry, ArenaBudgetRejectsCleanly)
{
    if (!graphEnabled())
        GTEST_SKIP() << "arena accounting needs the graph path";
    Rng rng(7);
    // First find one model's true reservation, then set a budget
    // that admits exactly one model.
    std::size_t oneModel = 0;
    {
        ModelRegistry probe;
        ASSERT_EQ(probe.registerModel(makeMiniVgg(rng),
                                      modelConfig("m")),
                  RegisterStatus::Registered);
        oneModel = probe.model(0).reservedArenaBytes();
        ASSERT_GT(oneModel, 0u);
        EXPECT_EQ(probe.model(0).replicaArenaBytes() *
                      probe.model(0).maxReplicas(),
                  oneModel);
        EXPECT_EQ(probe.totalReservedArenaBytes(), oneModel);
    }

    RegistryConfig rc;
    rc.arenaBudgetBytes = oneModel;
    ModelRegistry reg(rc);
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng), modelConfig("a")),
              RegisterStatus::Registered);
    // A second identical model would double the reservation: a clean
    // rejection that leaves the registry unchanged.
    EXPECT_EQ(reg.registerModel(makeMiniVgg(rng), modelConfig("b")),
              RegisterStatus::BudgetExceeded);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.totalReservedArenaBytes(), oneModel);
}

TEST(ModelRegistry, RejectsScheduleCompiledUnderMaxBatch)
{
    Rng rng(7);
    Network net = makeMiniVgg(rng);
    const GraphSchedule small = buildGraphSchedule(net, 1);
    ModelConfig mc = modelConfig("m", /*max_batch=*/4);
    mc.schedule = &small;
    ModelRegistry reg;
    EXPECT_EQ(reg.registerModel(makeMiniVgg(rng), std::move(mc)),
              RegisterStatus::ScheduleBatchTooSmall);
    EXPECT_EQ(reg.size(), 0u);
}

TEST(ModelRegistry, MiniZooRegistersBothPerforationLevels)
{
    Rng rng(19);
    ModelRegistry reg;
    EXPECT_EQ(registerMiniZoo(reg, rng, 4, 2), 6u);
    EXPECT_EQ(reg.size(), 6u);
    Model *full = reg.find("MiniAlexNet/full");
    Model *half = reg.find("MiniAlexNet/p50");
    ASSERT_NE(full, nullptr);
    ASSERT_NE(half, nullptr);
    for (ConvLayer *c : full->prototype().convLayers())
        EXPECT_FALSE(c->perforated());
    bool anyPerforated = false;
    for (ConvLayer *c : half->prototype().convLayers())
        anyPerforated = anyPerforated || c->perforated();
    EXPECT_TRUE(anyPerforated)
        << "p50 variant registered without perforation";
    EXPECT_NE(reg.find("MiniVgg/full"), nullptr);
    EXPECT_NE(reg.find("MiniInception/p50"), nullptr);
}

TEST(ModelRegistry, AdoptsSerializedPlanScheduleBitwise)
{
    if (!graphEnabled())
        GTEST_SKIP() << "schedule adoption needs the graph path";
    Rng rng(31);
    Network net = makeMiniVgg(rng);

    // Serialize the schedule through the plan-v4 round trip, the
    // same bytes an offline compile would ship to the host.
    CompiledPlan plan;
    plan.netName = net.name();
    plan.gpuName = "host";
    plan.batch = 4;
    plan.schedule = buildGraphSchedule(net, 4);
    const auto bytes = serializePlan(plan);
    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->schedule.has_value());

    ModelConfig mc = modelConfig("vgg", /*max_batch=*/4);
    mc.schedule = &*loaded->schedule;
    ModelRegistry reg;
    Rng rng2(31); // same seed: identical weights to `net`
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng2), std::move(mc)),
              RegisterStatus::Registered);
    // The registered model adopted the deserialized schedule as-is.
    ASSERT_NE(reg.model(0).schedule(), nullptr);
    EXPECT_EQ(reg.model(0).schedule()->arenaFloats,
              plan.schedule->arenaFloats);
    EXPECT_EQ(reg.model(0).schedule()->ops.size(),
              plan.schedule->ops.size());

    // And replicas serve bitwise-identical logits through it.
    Rng inputs(5);
    Tensor x = randomInput(inputs, net.inputShape());
    Tensor want = net.forward(x, false);
    MultiEngineConfig cfg;
    cfg.workers = 1;
    MultiTenantEngine engine(reg, cfg);
    auto sub = engine.submit(0, TaskClass::Interactive, x);
    ASSERT_EQ(sub.status, SubmitStatus::Accepted);
    const TenantResult r = sub.result.get();
    ASSERT_EQ(r.logits.size(), want.size());
    EXPECT_EQ(std::memcmp(r.logits.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
}

// ------------------------------------------------------- QueueFabric

TEST(QueueFabric, GrantsOnlyWithIdleReplicaUrgentFirst)
{
    Rng rng(3);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("m", 4, 2)),
              RegisterStatus::Registered);
    TenantMetrics meter;
    FabricConfig fc;
    fc.queueCapacity = 8;
    QueueFabric fabric(reg, fc, meter);
    Rng inputs(5);
    const Shape &in = reg.model(0).inputShape();

    BatchGrant g;
    EXPECT_FALSE(fabric.tryTake(g)); // nothing queued

    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Background,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Background,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    EXPECT_FALSE(fabric.tryTake(g)) << "granted without a replica";

    fabric.addIdle(0);
    ASSERT_TRUE(fabric.tryTake(g));
    EXPECT_TRUE(g.background);
    EXPECT_EQ(g.batch.size(), 2u);
    EXPECT_EQ(fabric.idleCount(0), 0u);

    // Urgent work wins over earlier-queued background.
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Background,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Interactive,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    fabric.addIdle(0);
    ASSERT_TRUE(fabric.tryTake(g));
    EXPECT_FALSE(g.background);
    EXPECT_EQ(g.batch.size(), 1u);
    EXPECT_EQ(g.batch[0].cls, TaskClass::Interactive);
    EXPECT_EQ(fabric.backgroundQueued(0), 1u);
}

TEST(QueueFabric, UrgentLaneIsEarliestDeadlineFirst)
{
    Rng rng(3);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("m", 4, 1)),
              RegisterStatus::Registered);
    TenantMetrics meter;
    FabricConfig fc;
    QueueFabric fabric(reg, fc, meter);
    Rng inputs(5);
    const Shape &in = reg.model(0).inputShape();

    // Interactive (100 ms) arrives before real-time (16.7 ms): EDF
    // must serve the real-time request first.
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Interactive,
                                      randomInput(inputs, in), 0.1)),
              SubmitStatus::Accepted);
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::RealTime,
                                      randomInput(inputs, in),
                                      1.0 / 60.0)),
              SubmitStatus::Accepted);
    fabric.addIdle(0);
    BatchGrant g;
    ASSERT_TRUE(fabric.tryTake(g));
    ASSERT_EQ(g.batch.size(), 2u);
    EXPECT_EQ(g.batch[0].cls, TaskClass::RealTime);
    EXPECT_EQ(g.batch[1].cls, TaskClass::Interactive);
}

TEST(QueueFabric, ShedsBackgroundBeforeInteractiveUnderOverload)
{
    Rng rng(3);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("m", 4, 1)),
              RegisterStatus::Registered);
    TenantMetrics meter;
    FabricConfig fc;
    fc.queueCapacity = 2;
    QueueFabric fabric(reg, fc, meter);
    Rng inputs(5);
    const Shape &in = reg.model(0).inputShape();

    // Fill the queue with background work.
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Background,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    TenantRequest second = makeRequest(0, TaskClass::Background,
                                       randomInput(inputs, in));
    std::future<TenantResult> evictedFut = second.done.get_future();
    ASSERT_EQ(fabric.push(std::move(second)), SubmitStatus::Accepted);

    // A further background arrival is rejected outright...
    EXPECT_EQ(fabric.push(makeRequest(0, TaskClass::Background,
                                      randomInput(inputs, in))),
              SubmitStatus::QueueFull);

    // ...but an urgent arrival evicts the newest queued background
    // request and is admitted in its place.
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Interactive,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    const TenantResult evicted = evictedFut.get();
    EXPECT_TRUE(evicted.shed);
    EXPECT_EQ(fabric.urgentQueued(0), 1u);
    EXPECT_EQ(fabric.backgroundQueued(0), 1u);

    // Another urgent arrival evicts the last background request.
    ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Interactive,
                                      randomInput(inputs, in))),
              SubmitStatus::Accepted);
    EXPECT_EQ(fabric.backgroundQueued(0), 0u);

    // With only urgent work queued, overload finally rejects urgent
    // arrivals too — but background never displaced interactive.
    EXPECT_EQ(fabric.push(makeRequest(0, TaskClass::Interactive,
                                      randomInput(inputs, in))),
              SubmitStatus::QueueFull);

    const TenantMetricsSnapshot m = meter.snapshot();
    EXPECT_EQ(m.backgroundEvicted, 2u);
    EXPECT_EQ(
        m.byClass[static_cast<std::size_t>(TaskClass::Background)]
            .shed,
        3u); // 2 evicted + 1 rejected
    EXPECT_EQ(
        m.byClass[static_cast<std::size_t>(TaskClass::Interactive)]
            .shed,
        1u);
}

TEST(QueueFabric, BackgroundBatchIsBoundedByOccupancyBudget)
{
    Rng rng(3);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("m", 8, 1)),
              RegisterStatus::Registered);
    TenantMetrics meter;
    FabricConfig fc;
    fc.queueCapacity = 16;
    QueueFabric fabric(reg, fc, meter);
    Rng inputs(5);
    const Shape &in = reg.model(0).inputShape();

    // Teach the estimator: 10 ms at batch 1, 15 ms at 2, 30 ms at 4.
    // Guard is interactive (T_i = 100 ms): slack = 90 ms, half of it
    // is 45 ms, but the occupancy cap 2 x 10 ms = 20 ms is tighter.
    ServiceEstimator &est = reg.model(0).estimator();
    est.record(1, 0.010);
    est.record(2, 0.015);
    est.record(4, 0.030);
    EXPECT_NEAR(fabric.backgroundBudgetS(), 0.020, 1e-12);

    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(fabric.push(makeRequest(0, TaskClass::Background,
                                          randomInput(inputs, in))),
                  SubmitStatus::Accepted);
    fabric.addIdle(0);
    BatchGrant g;
    ASSERT_TRUE(fabric.tryTake(g));
    EXPECT_TRUE(g.background);
    // Batch 4 estimates 30 ms > 20 ms budget; batch 3 falls back to
    // the batch-2 estimate (15 ms) and fits.
    EXPECT_EQ(g.batch.size(), 3u);
    EXPECT_EQ(fabric.backgroundQueued(0), 5u);
}

TEST(QueueFabric, MpmcStressDeliversEachRequestOnce)
{
    Rng rng(3);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("a", 4, 2)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("b", 4, 2)),
              RegisterStatus::Registered);
    TenantMetrics meter;
    FabricConfig fc;
    fc.queueCapacity = 16; // small: producers hit QueueFull and evict
    QueueFabric fabric(reg, fc, meter);
    constexpr std::size_t kProducers = 4, kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 200;
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;

    // One idle replica per consumer and model: consumers may hold
    // concurrent grants of the same model.
    for (std::size_t m = 0; m < reg.size(); ++m)
        for (std::size_t c = 0; c < kConsumers; ++c)
            fabric.addIdle(m);

    std::vector<std::atomic<int>> granted(kTotal);
    for (auto &g : granted)
        g = 0;
    std::atomic<bool> badGrant{false};

    std::vector<std::thread> consumers;
    for (std::size_t c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&] {
            for (;;) {
                BatchGrant g = fabric.take();
                if (g.batch.empty())
                    return; // closed and drained
                if (g.batch.size() > reg.model(g.model).maxBatch())
                    badGrant = true;
                for (TenantRequest &r : g.batch) {
                    if (r.model != g.model ||
                        r.urgent() == g.background)
                        badGrant = true;
                    granted[r.id].fetch_add(1);
                    r.done.set_value(TenantResult{});
                }
                fabric.addIdle(g.model);
            }
        });

    // Producers mix both lanes and both models; a rejected request
    // is resubmitted under the same id until the fabric accepts it.
    std::vector<std::future<TenantResult>> futs(kTotal);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                const std::uint64_t id = p * kPerProducer + i;
                for (;;) {
                    TenantRequest req = makeRequest(
                        id % 2,
                        id % 3 == 0 ? TaskClass::Interactive
                                    : TaskClass::Background,
                        Tensor(Shape{1, 1, 1, 1}));
                    req.id = id;
                    std::future<TenantResult> fut =
                        req.done.get_future();
                    if (fabric.push(std::move(req)) ==
                        SubmitStatus::Accepted) {
                        futs[id] = std::move(fut);
                        break;
                    }
                    std::this_thread::yield();
                }
            }
        });

    for (auto &t : producers)
        t.join();
    fabric.close();
    for (auto &t : consumers)
        t.join();

    // Every accepted request was either granted exactly once or
    // evicted by admission control (fulfilled as shed) — never both,
    // never neither — and the fabric drained completely.
    EXPECT_FALSE(badGrant.load());
    std::uint64_t shed = 0;
    for (std::uint64_t id = 0; id < kTotal; ++id) {
        ASSERT_TRUE(futs[id].valid());
        const bool wasShed = futs[id].get().shed;
        shed += wasShed ? 1 : 0;
        EXPECT_EQ(granted[id].load(), wasShed ? 0 : 1)
            << "request " << id;
    }
    EXPECT_EQ(shed, meter.snapshot().backgroundEvicted);
    for (std::size_t m = 0; m < reg.size(); ++m) {
        EXPECT_EQ(fabric.queued(m), 0u);
        EXPECT_EQ(fabric.idleCount(m), kConsumers);
    }
}

// -------------------------------------------------------- Autoscaler

AutoscalerConfig
scalerConfig()
{
    AutoscalerConfig cfg;
    cfg.minReplicas = 1;
    cfg.maxReplicas = 4;
    cfg.growBacklogS = 0.050;
    cfg.shrinkBacklogS = 0.005;
    cfg.growHold = 2;
    cfg.shrinkHold = 3;
    cfg.cooldownTicks = 2;
    return cfg;
}

TEST(Autoscaler, GrowsOnlyAfterSustainedPressureAndCoolsDown)
{
    AutoscalerPolicy p(scalerConfig());
    using Action = AutoscalerPolicy::Action;
    EXPECT_EQ(p.tick(0.2, 1), Action::Hold); // streak 1 of 2
    EXPECT_EQ(p.tick(0.2, 1), Action::Grow);
    // Cooldown: pressure is ignored while the new replica warms.
    EXPECT_EQ(p.tick(0.2, 2), Action::Hold);
    EXPECT_EQ(p.tick(0.2, 2), Action::Hold);
    // Streaks restarted after cooldown: two more ticks to grow.
    EXPECT_EQ(p.tick(0.2, 2), Action::Hold);
    EXPECT_EQ(p.tick(0.2, 2), Action::Grow);
}

TEST(Autoscaler, HonorsReplicaBounds)
{
    AutoscalerPolicy p(scalerConfig());
    using Action = AutoscalerPolicy::Action;
    EXPECT_EQ(p.tick(0.2, 4), Action::Hold); // at maxReplicas
    EXPECT_EQ(p.tick(0.2, 4), Action::Hold);
    AutoscalerPolicy q(scalerConfig());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(q.tick(0.0, 1), Action::Hold); // at minReplicas
}

TEST(Autoscaler, ShrinksOnlyAfterSustainedIdle)
{
    AutoscalerPolicy p(scalerConfig());
    using Action = AutoscalerPolicy::Action;
    EXPECT_EQ(p.tick(0.0, 2), Action::Hold);
    EXPECT_EQ(p.tick(0.0, 2), Action::Hold);
    EXPECT_EQ(p.tick(0.0, 2), Action::Shrink);
}

TEST(Autoscaler, DeadbandPreventsFlappingOnSteadyLoadStep)
{
    AutoscalerPolicy p(scalerConfig());
    using Action = AutoscalerPolicy::Action;
    // Load step: grow once, then the backlog settles into the
    // deadband (between shrink and grow thresholds). No further
    // action may fire no matter how long the steady state lasts or
    // how it ripples inside the band.
    EXPECT_EQ(p.tick(0.2, 1), Action::Hold);
    EXPECT_EQ(p.tick(0.2, 1), Action::Grow);
    for (int i = 0; i < 50; ++i) {
        const double backlog = (i % 2 == 0) ? 0.010 : 0.045;
        EXPECT_EQ(p.tick(backlog, 2), Action::Hold)
            << "flapped at tick " << i;
    }
    // Even isolated excursions below the shrink threshold must not
    // accumulate across deadband visits.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(p.tick(0.001, 2), Action::Hold);
        EXPECT_EQ(p.tick(0.010, 2), Action::Hold);
    }
}

TEST(Autoscaler, BacklogSignal)
{
    EXPECT_EQ(backlogPerReplicaS(0, 1, 4, 0.1), 0.0);
    EXPECT_EQ(backlogPerReplicaS(8, 1, 4, 0.0), 0.0);
    // 8 queued / batch 4 = 2 batches x 0.1 s / 2 replicas = 0.1 s.
    EXPECT_DOUBLE_EQ(backlogPerReplicaS(8, 2, 4, 0.1), 0.1);
    // Ceiling: 9 queued needs 3 batches.
    EXPECT_DOUBLE_EQ(backlogPerReplicaS(9, 1, 4, 0.1), 0.3);
}

// ------------------------------------------------ MultiTenantEngine

MultiEngineConfig
engineConfig(std::size_t workers)
{
    MultiEngineConfig cfg;
    cfg.workers = workers;
    cfg.initialReplicas = 1;
    cfg.autoscaleTickS = 0.0; // deterministic: scaleTo only
    return cfg;
}

TEST(MultiTenant, PerModelBitwiseLogitsAcrossReplicaCounts)
{
    Rng rng(11);
    ModelRegistry reg;
    // maxBatch 1 pins the batch composition so every request is
    // served exactly as the prototype forward computes it.
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 1, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 1, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniInception(rng),
                                modelConfig("incep", 1, 4)),
              RegisterStatus::Registered);

    Rng inputs(23);
    std::vector<std::vector<Tensor>> xs(reg.size());
    std::vector<std::vector<Tensor>> want(reg.size());
    for (std::size_t m = 0; m < reg.size(); ++m) {
        for (int i = 0; i < 4; ++i) {
            xs[m].push_back(
                randomInput(inputs, reg.model(m).inputShape()));
            want[m].push_back(
                reg.model(m).prototype().forward(xs[m].back(), false));
        }
    }

    // The worker count changes the lane partition each forward runs
    // under; the substrate is bitwise-deterministic across lane
    // counts, so neither it nor the replica count may move a bit.
    for (std::size_t workers : {1u, 2u, 4u}) {
        MultiTenantEngine engine(reg, engineConfig(workers));
        for (std::size_t replicas : {1u, 2u, 4u}) {
            for (std::size_t m = 0; m < reg.size(); ++m)
                ASSERT_EQ(engine.scaleTo(m, replicas), replicas);
            std::vector<std::vector<std::future<TenantResult>>> futs(
                reg.size());
            for (std::size_t m = 0; m < reg.size(); ++m) {
                for (const Tensor &x : xs[m]) {
                    auto sub =
                        engine.submit(m, TaskClass::Interactive, x);
                    ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                    futs[m].push_back(std::move(sub.result));
                }
            }
            for (std::size_t m = 0; m < reg.size(); ++m) {
                for (std::size_t i = 0; i < futs[m].size(); ++i) {
                    const TenantResult r = futs[m][i].get();
                    ASSERT_FALSE(r.shed);
                    ASSERT_EQ(r.logits.size(), want[m][i].size());
                    EXPECT_EQ(std::memcmp(r.logits.data(),
                                          want[m][i].data(),
                                          want[m][i].size() *
                                              sizeof(float)),
                              0)
                        << "model " << m << " request " << i << " at "
                        << workers << " workers, " << replicas
                        << " replicas";
                }
            }
        }
    }
}

TEST(Serve, WorkerCountsProduceBitwiseIdenticalLogits)
{
    // Identical weight init in two registries (same seed); the only
    // difference between the runs is the worker and replica count,
    // and with it the lane partition each forward runs under. The substrate is
    // bitwise-deterministic across lane counts, so no bit may move.
    Rng inputs(13);
    Rng rng1(42), rng4(42);
    ModelRegistry reg1, reg4;
    ASSERT_EQ(reg1.registerModel(makeMiniAlexNet(rng1),
                                 modelConfig("alex", 1, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg4.registerModel(makeMiniAlexNet(rng4),
                                 modelConfig("alex", 1, 4)),
              RegisterStatus::Registered);
    std::vector<Tensor> xs;
    for (int i = 0; i < 8; ++i)
        xs.push_back(randomInput(inputs, reg1.model(0).inputShape()));

    auto run = [&](ModelRegistry &reg, std::size_t workers) {
        MultiTenantEngine engine(reg, engineConfig(workers));
        EXPECT_EQ(engine.scaleTo(0, workers), workers);
        std::vector<std::future<TenantResult>> futs;
        for (const Tensor &x : xs) {
            auto sub = engine.submit(0, TaskClass::Interactive, x);
            EXPECT_EQ(sub.status, SubmitStatus::Accepted);
            futs.push_back(std::move(sub.result));
        }
        std::vector<Tensor> out;
        for (auto &f : futs) {
            TenantResult r = f.get();
            EXPECT_FALSE(r.shed);
            out.push_back(std::move(r.logits));
        }
        return out;
    };

    const auto one = run(reg1, 1);
    const auto four = run(reg4, 4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        ASSERT_EQ(one[i].size(), four[i].size());
        EXPECT_EQ(std::memcmp(one[i].data(), four[i].data(),
                              one[i].size() * sizeof(float)),
                  0)
            << "request " << i << " differs between 1 and 4 workers";
    }
}

TEST(MultiTenant, ScaleUpKeepsZeroRepacksAndZeroSteadyAllocs)
{
    Rng rng(29);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 4, 3)),
              RegisterStatus::Registered);
    MultiTenantEngine engine(reg, engineConfig(2));
    Rng inputs(31);
    const Shape &in = reg.model(0).inputShape();

    auto wave = [&](int n) {
        std::vector<std::future<TenantResult>> futs;
        for (int i = 0; i < n; ++i) {
            auto sub = engine.submit(0, TaskClass::Background,
                                     randomInput(inputs, in));
            ASSERT_EQ(sub.status, SubmitStatus::Accepted);
            futs.push_back(std::move(sub.result));
        }
        for (auto &f : futs)
            ASSERT_FALSE(f.get().shed);
    };

    wave(16);
    // Construction materialized every panel: cloning two more
    // replicas and serving through them must not pack anything new
    // (shared panels) nor allocate in any steady-state forward
    // (makeReplica warms each clone at maxBatch before publishing).
    const std::uint64_t packs = weightPackCount();
    const std::uint64_t wino = winogradPackCount();
    ASSERT_EQ(engine.scaleTo(0, 3), 3u);
    wave(48);
    EXPECT_EQ(weightPackCount(), packs)
        << "scale-up repacked SGEMM panels";
    EXPECT_EQ(winogradPackCount(), wino)
        << "scale-up re-transformed winograd weights";

    const TenantMetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.steadyAllocs, 0u);
    if (allocCountingEnabled()) {
        EXPECT_GT(m.steadyProbedBatches, 0u);
    }
    // The trajectory recorded the initial replica and the scale-up.
    ASSERT_GE(m.replicaTrajectory.size(), 3u);
    EXPECT_EQ(m.replicaTrajectory.front().replicas, 1u);
    EXPECT_EQ(m.replicaTrajectory.back().replicas, 3u);
}

TEST(MultiTenant, ArenaGaugesTrackPoolsAndRegistry)
{
    Rng rng(37);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 2, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 2, 4)),
              RegisterStatus::Registered);
    MultiTenantEngine engine(reg, engineConfig(1));

    const std::size_t perVgg = reg.model(0).replicaArenaBytes();
    const std::size_t perAlex = reg.model(1).replicaArenaBytes();
    EXPECT_EQ(engine.liveArenaBytes(), perVgg + perAlex);
    ASSERT_EQ(engine.scaleTo(0, 3), 3u);
    EXPECT_EQ(engine.liveArenaBytes(), 3 * perVgg + perAlex);
    ASSERT_EQ(engine.scaleTo(0, 1), 1u);
    EXPECT_EQ(engine.liveArenaBytes(), perVgg + perAlex);

    const TenantMetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.liveArenaBytes, engine.liveArenaBytes());
    EXPECT_EQ(m.reservedArenaBytes, reg.totalReservedArenaBytes());
    if (graphEnabled()) {
        EXPECT_GT(perVgg, 0u);
        EXPECT_LE(m.liveArenaBytes, m.reservedArenaBytes);
    }
}

TEST(MultiTenant, ScalerThreadGrowsUnderLoadAndShrinksWhenIdle)
{
    Rng rng(41);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 4, 3)),
              RegisterStatus::Registered);
    MultiEngineConfig cfg;
    cfg.workers = 2;
    cfg.initialReplicas = 1;
    cfg.autoscaleTickS = 0.002;
    cfg.autoscaler = scalerConfig();
    cfg.autoscaler.maxReplicas = 3;
    // Tiny thresholds: any real backlog (millisecond forwards) is
    // pressure; a drained queue is idle.
    cfg.autoscaler.growBacklogS = 0.0005;
    cfg.autoscaler.shrinkBacklogS = 0.0002;
    MultiTenantEngine engine(reg, cfg);
    Rng inputs(43);
    const Shape &in = reg.model(0).inputShape();

    // Sustained background flood: keep the queue pinned at capacity
    // so the backlog signal is unambiguous (one MiniVgg forward is
    // ~0.1 ms — trickling requests would be served in place and the
    // scaler would rightly hold at one replica). Bounded by a
    // generous deadline, not by timing assumptions.
    std::vector<std::future<TenantResult>> futs;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (engine.replicaCount(0) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        auto sub = engine.submit(0, TaskClass::Background,
                                 randomInput(inputs, in));
        if (sub.status == SubmitStatus::Accepted)
            futs.push_back(std::move(sub.result));
        else // queue full: let the workers and the scaler run
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
    }
    EXPECT_GE(engine.replicaCount(0), 2u)
        << "pool never grew under sustained backlog";
    for (auto &f : futs)
        f.get();

    // Idle: the pool must come back down to one replica...
    const auto shrinkBy = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (engine.replicaCount(0) > 1 &&
           std::chrono::steady_clock::now() < shrinkBy)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(engine.replicaCount(0), 1u)
        << "pool never shrank after the load drained";

    // ...and stay there: steady zero load must not flap.
    const std::size_t events = engine.metrics().replicaTrajectory.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(engine.metrics().replicaTrajectory.size(), events)
        << "replica pool flapped on steady zero load";
}

TEST(MultiTenant, DrainsEverythingOnStopAndRejectsAfter)
{
    Rng rng(47);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 4, 2)),
              RegisterStatus::Registered);
    MultiTenantEngine engine(reg, engineConfig(1));
    Rng inputs(53);
    const Shape &in = reg.model(0).inputShape();

    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 12; ++i) {
        auto sub = engine.submit(
            0,
            i % 3 == 0 ? TaskClass::Interactive : TaskClass::Background,
            randomInput(inputs, in));
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    engine.stop();
    // Every accepted request was served exactly once, none dropped.
    for (auto &f : futs) {
        const TenantResult r = f.get();
        EXPECT_FALSE(r.shed);
        EXPECT_GT(r.logits.size(), 0u);
    }
    EXPECT_EQ(engine
                  .submit(0, TaskClass::Interactive,
                          randomInput(inputs, in))
                  .status,
              SubmitStatus::Stopped);
}

TEST(MultiTenant, MetricsCountClassesAndTails)
{
    Rng rng(59);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 4, 1)),
              RegisterStatus::Registered);
    MultiTenantEngine engine(reg, engineConfig(1));
    Rng inputs(61);
    const Shape &in = reg.model(0).inputShape();

    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 12; ++i) {
        auto sub = engine.submit(
            0,
            i % 3 == 0 ? TaskClass::Background : TaskClass::Interactive,
            randomInput(inputs, in));
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    for (auto &f : futs)
        ASSERT_FALSE(f.get().shed);

    const TenantMetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.completed, 12u);
    EXPECT_EQ(m.shed, 0u);
    const std::pair<TaskClass, std::uint64_t> expected[] = {
        {TaskClass::Interactive, 8},
        {TaskClass::RealTime, 0},
        {TaskClass::Background, 4},
    };
    for (const auto &[cls, n] : expected) {
        const TenantClassStats &c =
            m.byClass[static_cast<std::size_t>(cls)];
        EXPECT_EQ(c.completed, n);
        EXPECT_EQ(c.shed, 0u);
        EXPECT_EQ(c.sloMet + c.sloMissed, n);
        EXPECT_EQ(c.latency.count, n);
        if (n == 0)
            continue;
        EXPECT_GT(c.latency.p50S, 0.0);
        EXPECT_LE(c.latency.p50S, c.latency.p99S);
        EXPECT_LE(c.latency.p99S, c.latency.p999S);
        EXPECT_LE(c.latency.p999S, c.latency.maxS);
        EXPECT_LE(c.queueWait.maxS, c.latency.maxS);
    }
    EXPECT_GT(m.throughputRps, 0.0);
    EXPECT_GE(m.queueHighWater, 1u);
}

TEST(MultiTenant, LanePartitionComposesWithoutOversubscription)
{
    Rng rng(47);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 1, 2)),
              RegisterStatus::Registered);
    MultiEngineConfig cfg = engineConfig(2);
    cfg.lanesPerWorker = 1;
    MultiTenantEngine engine(reg, cfg);
    EXPECT_EQ(engine.lanesPerWorker(), 1u);

    Rng inputs(53);
    auto sub = engine.submit(0, TaskClass::Interactive,
                             randomInput(inputs,
                                         reg.model(0).inputShape()));
    ASSERT_EQ(sub.status, SubmitStatus::Accepted);
    EXPECT_FALSE(sub.result.get().shed);
}

TEST(MultiTenant, SubmitRejectsMalformedRequestsWithoutQueueing)
{
    Rng rng(67);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 1, 1)),
              RegisterStatus::Registered);
    const Shape in = reg.model(0).inputShape();
    Rng inputs(71);
    const Tensor x = randomInput(inputs, in);
    const Tensor want = reg.model(0).prototype().forward(x, false);
    MultiTenantEngine engine(reg, engineConfig(1));

    // Unknown model index.
    auto badModel = engine.submit(engine.modelCount(),
                                  TaskClass::Interactive, x);
    EXPECT_EQ(badModel.status, SubmitStatus::InvalidArgument);
    EXPECT_FALSE(badModel.result.valid());

    // Wrong batch dimension and wrong per-item shape.
    for (const Shape &bad :
         {Shape{2, in.c, in.h, in.w}, Shape{1, in.c + 1, in.h, in.w},
          Shape{1, in.c, in.h + 1, in.w}}) {
        Tensor t(bad);
        t.fillUniform(inputs, -1.0f, 1.0f);
        auto sub = engine.submit(0, TaskClass::Background, t);
        EXPECT_EQ(sub.status, SubmitStatus::InvalidArgument)
            << bad.str();
        EXPECT_FALSE(sub.result.valid());
    }

    // Nothing reached the fabric or the metrics...
    EXPECT_EQ(engine.queueFabric().queued(0), 0u);
    const TenantMetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_EQ(m.queueHighWater, 0u);

    // ...and the engine still serves a valid request bitwise.
    auto ok = engine.submit(0, TaskClass::Interactive, x);
    ASSERT_EQ(ok.status, SubmitStatus::Accepted);
    const TenantResult r = ok.result.get();
    ASSERT_EQ(r.logits.size(), want.size());
    EXPECT_EQ(std::memcmp(r.logits.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
}

TEST(MultiTenant, ScaleToAndReplicaCountRejectUnknownModel)
{
    Rng rng(73);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 1, 2)),
              RegisterStatus::Registered);
    MultiTenantEngine engine(reg, engineConfig(1));
    const std::size_t bad = engine.modelCount();

    // An unknown model has no pool: both calls answer 0, which no
    // served model can report, and leave every pool alone.
    EXPECT_EQ(engine.replicaCount(bad), 0u);
    EXPECT_EQ(engine.scaleTo(bad, 2), 0u);
    EXPECT_EQ(engine.replicaCount(bad + 100), 0u);
    EXPECT_EQ(engine.scaleTo(bad + 100, 0), 0u);
    EXPECT_EQ(engine.replicaCount(0), 1u);
    EXPECT_EQ(engine.metrics().replicaTrajectory.size(), 1u);

    // The known model still scales.
    EXPECT_EQ(engine.scaleTo(0, 2), 2u);
    EXPECT_EQ(engine.replicaCount(0), 2u);
}

TEST(MultiTenant, DefaultLayoutFollowsThreadCount)
{
    Rng rng(79);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 1, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 1, 1)),
              RegisterStatus::Registered);

    struct Layout
    {
        std::size_t threads, workers, lanes;
    };
    for (const Layout &want :
         {Layout{1, 1, 1}, Layout{2, 1, 2}, Layout{4, 2, 2}}) {
        setThreadCount(want.threads);
        {
            MultiTenantEngine engine(reg, MultiEngineConfig{});
            EXPECT_EQ(engine.workerCount(), want.workers)
                << want.threads << " threads";
            EXPECT_EQ(engine.lanesPerWorker(), want.lanes)
                << want.threads << " threads";
            // One replica per worker, up to each model's ceiling.
            EXPECT_EQ(engine.replicaCount(0), want.workers);
            EXPECT_EQ(engine.replicaCount(1), 1u);
        }
        // Explicit values still win over the derived ones.
        MultiEngineConfig cfg;
        cfg.workers = 3;
        cfg.initialReplicas = 1;
        MultiTenantEngine engine(reg, cfg);
        EXPECT_EQ(engine.workerCount(), 3u);
        EXPECT_EQ(engine.replicaCount(0), 1u);
    }
    setThreadCount(0);
}

TEST(MultiTenant, ParallelInitialBuildKeepsZeroRepacks)
{
    Rng rng(83);
    ModelRegistry reg;
    ASSERT_EQ(reg.registerModel(makeMiniAlexNet(rng),
                                modelConfig("alex", 1, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniVgg(rng),
                                modelConfig("vgg", 1, 4)),
              RegisterStatus::Registered);
    ASSERT_EQ(reg.registerModel(makeMiniInception(rng),
                                modelConfig("incep", 1, 4)),
              RegisterStatus::Registered);

    Rng inputs(89);
    std::vector<std::vector<Tensor>> xs(reg.size());
    std::vector<std::vector<Tensor>> want(reg.size());
    for (std::size_t m = 0; m < reg.size(); ++m) {
        for (int i = 0; i < 6; ++i) {
            xs[m].push_back(
                randomInput(inputs, reg.model(m).inputShape()));
            want[m].push_back(
                reg.model(m).prototype().forward(xs[m].back(), false));
        }
    }

    // The default layout builds every model's replicas concurrently
    // (one replica per worker); serving through them must neither
    // repack a panel nor move a bit.
    MultiTenantEngine engine(reg, MultiEngineConfig{});
    for (std::size_t m = 0; m < reg.size(); ++m)
        EXPECT_EQ(engine.replicaCount(m),
                  std::min<std::size_t>(4, engine.workerCount()));
    const std::uint64_t packs = weightPackCount();
    const std::uint64_t wino = winogradPackCount();

    std::vector<std::vector<std::future<TenantResult>>> futs(reg.size());
    for (int round = 0; round < 4; ++round) {
        for (std::size_t m = 0; m < reg.size(); ++m) {
            for (const Tensor &x : xs[m]) {
                auto sub = engine.submit(m, TaskClass::Interactive, x);
                ASSERT_EQ(sub.status, SubmitStatus::Accepted);
                futs[m].push_back(std::move(sub.result));
            }
        }
    }
    for (std::size_t m = 0; m < reg.size(); ++m) {
        for (std::size_t i = 0; i < futs[m].size(); ++i) {
            const Tensor &ref = want[m][i % want[m].size()];
            const TenantResult r = futs[m][i].get();
            ASSERT_FALSE(r.shed);
            ASSERT_EQ(r.logits.size(), ref.size());
            EXPECT_EQ(std::memcmp(r.logits.data(), ref.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << "model " << m << " request " << i;
        }
    }
    EXPECT_EQ(weightPackCount(), packs)
        << "serving repacked SGEMM panels";
    EXPECT_EQ(winogradPackCount(), wino)
        << "serving re-transformed winograd weights";
    EXPECT_EQ(engine.metrics().steadyAllocs, 0u);
}

// ------------------------------------- shared-weight contracts

TEST(Serve, BatchedForwardIsBitwiseRowInvariant)
{
    // The engine serves one request inside varying batch sizes; this
    // only preserves bitwise reproducibility because a batched
    // forward computes each item exactly as a batch-1 forward would.
    Rng rng(7);
    Network net = makeMiniAlexNet(rng);
    Tensor batch(Shape{3, net.inputShape().c, net.inputShape().h,
                       net.inputShape().w});
    batch.fillUniform(rng, -1.0f, 1.0f);

    const Tensor together = net.forward(batch, false);
    for (std::size_t i = 0; i < 3; ++i) {
        const Tensor alone = net.forward(batch.item(i), false);
        ASSERT_EQ(alone.size(), together.shape().itemSize());
        EXPECT_EQ(std::memcmp(alone.data(),
                              together.data() +
                                  i * together.shape().itemSize(),
                              alone.size() * sizeof(float)),
                  0)
            << "batch row " << i << " differs from batch-1 forward";
    }
}

using ServeDeathTest = ::testing::Test;

TEST(ServeDeathTest, SgdStepOnSharedWeightsFails)
{
    Rng rng(59);
    Network net = makeMiniAlexNet(rng);
    Network replica = net.cloneSharingWeights();
    SgdOptimizer opt(SgdConfig{});
    EXPECT_DEATH(opt.step(net.params()), "shared across serving");
}

TEST(ServeDeathTest, WeightLoadIntoSharedWeightsFails)
{
    Rng rng(61);
    Network net = makeMiniAlexNet(rng);
    const auto bytes = serializeWeights(net);
    Network replica = net.cloneSharingWeights();
    EXPECT_DEATH((void)deserializeWeights(net, bytes),
                 "shared across");
}

TEST(ServeDeathTest, MarkUpdatedOnSharedParamFails)
{
    Rng rng(67);
    Network net = makeMiniAlexNet(rng);
    Network replica = net.cloneSharingWeights();
    Param *p = net.params().front();
    ASSERT_TRUE(p->isShared());
    EXPECT_DEATH(p->markUpdated(), "read-only");
}

TEST(Serve, CloneSharesStorageAndFreezesBothSides)
{
    Rng rng(71);
    Network net = makeMiniAlexNet(rng);
    Network replica = net.cloneSharingWeights();

    const auto orig = net.params();
    const auto copy = replica.params();
    ASSERT_EQ(orig.size(), copy.size());
    for (std::size_t i = 0; i < orig.size(); ++i) {
        // Same Param object: storage is shared, not duplicated.
        EXPECT_EQ(orig[i], copy[i]);
        EXPECT_TRUE(orig[i]->isShared());
    }
}

} // namespace
} // namespace pcnn
