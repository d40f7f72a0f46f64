/**
 * @file
 * Compiled-graph execution tests (DESIGN.md §5j).
 *
 * The contract under test has three legs:
 *
 *  1. Bitwise parity. The graph path invokes the same layer forwards
 *     in the same order on the same bytes as the legacy ping-pong
 *     chain, so logits must be bitwise identical for every model-zoo
 *     network, batch size and kernel tier (fp32 / int8 /
 *     perforated) — at every PCNN_THREADS width (the .threads2
 *     re-run covers that axis).
 *
 *  2. The static arena. One allocation per compiled graph, offsets
 *     respecting lifetimes, peak activation memory well below the
 *     legacy ping-pong + per-layer scratch sum, and zero allocator
 *     traffic in steady state.
 *
 *  3. Plan v4. A schedule round-trips through the plan file format,
 *     and hostile bytes — truncation, out-of-range offsets, edited
 *     lifetimes that alias live values, an undersized arena — are
 *     rejected by the hardened reader, never executed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/graph/compiled_graph.hh"
#include "nn/graph/graph_ir.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "pcnn/offline/compiler.hh"
#include "pcnn/offline/plan_io.hh"
#include "serve/multi_engine.hh"

namespace pcnn {
namespace {

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

Network
zooNet(int which, unsigned seed)
{
    Rng rng(seed);
    switch (which) {
    case 0: return makeMiniVgg(rng);
    case 1: return makeMiniInception(rng);
    case 2: return makeMiniAlexNet(rng);
    default: return makeMiniNet(MiniSize::Medium, rng);
    }
}

constexpr int kZooCount = 4;

Tensor
zooInput(const Network &net, std::size_t n, unsigned seed)
{
    Rng rng(seed);
    Tensor x(Shape{n, net.inputShape().c, net.inputShape().h,
                   net.inputShape().w});
    x.fillUniform(rng, -1.0f, 1.0f);
    return x;
}

/** Legacy logits vs. graph logits on the same network and input. */
void
expectGraphParity(Network &net, const Tensor &x)
{
    net.setGraphDispatch(false);
    Tensor legacy;
    net.forwardInto(x, false, legacy);
    net.setGraphDispatch(true);
    Tensor graph;
    net.forwardInto(x, false, graph);
    EXPECT_TRUE(bitwiseEqual(legacy, graph))
        << net.name() << " n=" << x.shape().n
        << ": graph logits diverge from the legacy chain";
}

// ------------------------------------------------- bitwise parity

TEST(GraphParity, MatchesLegacyAcrossZooAndBatches)
{
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 11u + unsigned(z));
        for (std::size_t n : {std::size_t(1), std::size_t(3),
                              std::size_t(16)}) {
            const Tensor x = zooInput(net, n, 77u + unsigned(n));
            expectGraphParity(net, x);
        }
    }
}

TEST(GraphParity, MatchesLegacyUnderForcedInt8)
{
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 41u + unsigned(z));
        net.setQuantized(true);
        const Tensor x = zooInput(net, 4, 43u);
        // Dynamic activation-quant params are batch-coupled, so the
        // compiler must fall back to batch-wide execution.
        expectGraphParity(net, x);
        ASSERT_NE(net.compiledGraph(), nullptr);
        EXPECT_EQ(net.compiledGraph()->schedule().tiledOps, 0u)
            << net.name() << ": int8 schedules must not item-tile";
    }
}

TEST(GraphParity, MatchesLegacyUnderPerforation)
{
    Network net = zooNet(0, 53u); // MiniVgg: conv-heavy
    for (ConvLayer *c : net.convLayers())
        c->setComputedPositions((c->fullPositions() + 1) / 2);
    const Tensor x = zooInput(net, 6, 59u);
    expectGraphParity(net, x);
}

TEST(GraphParity, ToggleFlipsRecompileNotCorrupt)
{
    // Flipping the int8 route between graph runs must recompile
    // (stale fingerprint) and keep matching the legacy chain.
    Network net = zooNet(1, 61u); // MiniInception
    const Tensor x = zooInput(net, 4, 67u);
    net.setQuantized(false);
    expectGraphParity(net, x);
    const std::size_t compiles = net.graphCompileCount();
    net.setQuantized(true);
    expectGraphParity(net, x);
    EXPECT_GT(net.graphCompileCount(), compiles);
    net.setQuantized(false);
    expectGraphParity(net, x);
}

TEST(GraphParity, RepeatRunsAreDeterministic)
{
    Network net = zooNet(2, 71u);
    net.setGraphDispatch(true);
    const Tensor x = zooInput(net, 8, 73u);
    Tensor a, b;
    net.forwardInto(x, false, a);
    net.forwardInto(x, false, b);
    EXPECT_TRUE(bitwiseEqual(a, b));
    EXPECT_EQ(net.graphCompileCount(), 1u);
}

// ------------------------------------------------- pass pipeline

TEST(GraphPasses, NamesInExecutionOrder)
{
    const std::vector<std::string> expected{
        "prune-dropout", "fuse-relu", "concat-elim", "dce"};
    EXPECT_EQ(graphPassNames(), expected);
}

TEST(GraphPasses, DropoutIsPruned)
{
    // MiniAlexNet carries dropout layers; inference dropout is an
    // identity copy, so no schedule op may reference one.
    Network net = zooNet(2, 79u);
    const GraphSchedule s = buildGraphSchedule(net, 4);
    for (const GraphOp &op : s.ops)
        EXPECT_NE(op.layerKind, "dropout");
    EXPECT_TRUE(validateGraphSchedule(s));
}

TEST(GraphPasses, FusedReluOpsAppearWhenFoldingOn)
{
    Network net = zooNet(0, 83u); // MiniVgg: conv+relu chains
    const GraphSchedule fused = buildGraphSchedule(net, 4);
    std::size_t fusedOps = 0;
    for (const GraphOp &op : fused.ops) {
        fusedOps += op.exec == GraphOpExec::LayerFusedRelu ? 1 : 0;
        EXPECT_NE(op.layerKind, "relu")
            << "every MiniVgg ReLU follows a fusable producer";
    }
    EXPECT_GT(fusedOps, 0u);
}

TEST(GraphPasses, InceptionConcatStagingIsEliminatedWhenTiled)
{
    Network net = zooNet(1, 89u); // MiniInception
    const GraphSchedule s = buildGraphSchedule(net, 16);
    EXPECT_GT(s.tiledOps, 0u);
    for (const GraphOp &op : s.ops)
        EXPECT_NE(int(op.exec), int(GraphOpExec::CopyWindow))
            << "tiled inception branches must write their concat "
               "windows directly";
}

// ------------------------------------------------- the arena plan

TEST(GraphArena, PeakMemoryDropsAtLeast30Percent)
{
    // The acceptance criterion: peak steady activation memory on
    // MiniVgg and MiniInception at batch 16 drops >= 30% vs. the
    // legacy ping-pong chain + per-layer scratch (conv scratch
    // belongs to the calling threads on both paths and is counted on
    // neither). Fresh networks per path so neither measurement
    // carries the other's buffers.
    for (int z : {0, 1}) {
        Network legacy = zooNet(z, 97u + unsigned(z));
        Network graph = zooNet(z, 97u + unsigned(z));
        legacy.setGraphDispatch(false);
        graph.setGraphDispatch(true);
        const Tensor x = zooInput(legacy, 16, 101u);
        Tensor out;
        legacy.forwardInto(x, false, out);
        legacy.forwardInto(x, false, out);
        const std::size_t legacyBytes = legacy.steadyMemoryBytes();
        graph.forwardInto(x, false, out);
        graph.forwardInto(x, false, out);
        const std::size_t graphBytes = graph.steadyMemoryBytes();
        EXPECT_LE(double(graphBytes), 0.70 * double(legacyBytes))
            << legacy.name() << ": arena " << graphBytes
            << " bytes vs legacy " << legacyBytes;
    }
}

TEST(GraphArena, ScheduleSurvivesValidation)
{
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 103u + unsigned(z));
        for (std::size_t b : {std::size_t(1), std::size_t(16)}) {
            const GraphSchedule s = buildGraphSchedule(net, b);
            EXPECT_TRUE(validateGraphSchedule(s))
                << net.name() << " b=" << b;
            EXPECT_EQ(s.batch, b);
            EXPECT_GT(s.arenaFloats, 0u);
        }
    }
}

TEST(GraphArena, SteadyStateRunsAreAllocationFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";
    for (int z = 0; z < kZooCount; ++z) {
        Network net = zooNet(z, 107u + unsigned(z));
        net.setGraphDispatch(true);
        const Tensor x16 = zooInput(net, 16, 109u);
        const Tensor x1 = zooInput(net, 1, 113u);
        Tensor out16, out1;
        net.forwardInto(x16, false, out16);
        net.forwardInto(x16, false, out16);
        net.forwardInto(x1, false, out1);
        {
            ScopedAllocCount probe;
            net.forwardInto(x16, false, out16);
            EXPECT_EQ(probe.allocs(), 0u)
                << net.name() << " batch 16 steady state";
        }
        {
            ScopedAllocCount probe;
            net.forwardInto(x1, false, out1);
            EXPECT_EQ(probe.allocs(), 0u)
                << net.name() << " batch 1 steady state";
        }
        EXPECT_EQ(net.graphCompileCount(), 1u) << net.name();
    }
}

// ------------------------------------------------- plan format v4

/** A v4 plan for MiniVgg with an attached schedule + the network. */
struct PlanFixture
{
    Network net;
    CompiledPlan plan;

    explicit PlanFixture(std::size_t batch = 4)
        : net(zooNet(0, 127u))
    {
        const OfflineCompiler compiler(jetsonTx1());
        plan = compiler.compileAtBatch(describe(net), batch);
        attachGraphSchedule(plan, net);
    }
};

TEST(GraphPlanV4, RoundTripPreservesSchedule)
{
    PlanFixture fx;
    ASSERT_TRUE(fx.plan.schedule.has_value());
    const auto bytes = serializePlan(fx.plan);
    ASSERT_GE(bytes.size(), 9u);
    EXPECT_EQ(bytes[8], 4u); // v4 discriminated by the version byte

    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->schedule.has_value());
    const GraphSchedule &a = *fx.plan.schedule;
    const GraphSchedule &b = *loaded->schedule;
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.arenaFloats, b.arenaFloats);
    EXPECT_EQ(a.tiledOps, b.tiledOps);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(int(a.ops[i].exec), int(b.ops[i].exec));
        EXPECT_EQ(a.ops[i].layer, b.ops[i].layer);
        EXPECT_EQ(a.ops[i].input, b.ops[i].input);
        EXPECT_EQ(a.ops[i].output, b.ops[i].output);
        EXPECT_EQ(a.ops[i].chanOff, b.ops[i].chanOff);
        EXPECT_EQ(a.ops[i].chanCount, b.ops[i].chanCount);
        EXPECT_EQ(a.ops[i].tiled, b.ops[i].tiled);
        EXPECT_EQ(a.ops[i].layerKind, b.ops[i].layerKind);
        EXPECT_EQ(a.ops[i].layerName, b.ops[i].layerName);
    }
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        EXPECT_EQ(a.values[i].offset, b.values[i].offset);
        EXPECT_EQ(a.values[i].extent, b.values[i].extent);
        EXPECT_EQ(a.values[i].def, b.values[i].def);
        EXPECT_EQ(a.values[i].lastUse, b.values[i].lastUse);
    }
}

TEST(GraphPlanV4, AdoptedScheduleMatchesLegacyBitwise)
{
    PlanFixture fx;
    const auto bytes = serializePlan(fx.plan);
    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value() && loaded->schedule.has_value());

    // attachGraphSchedule pinned fx.net to the plan's tier choices;
    // the adopted schedule must reproduce the pinned legacy chain.
    fx.net.adoptGraphSchedule(*loaded->schedule);
    const Tensor x = zooInput(fx.net, fx.plan.batch, 131u);
    fx.net.setGraphDispatch(false);
    Tensor legacy;
    fx.net.forwardInto(x, false, legacy);
    fx.net.setGraphDispatch(true);
    Tensor graph;
    fx.net.forwardInto(x, false, graph);
    EXPECT_TRUE(bitwiseEqual(legacy, graph));
    // Adoption counts as the one compile; running must not add more.
    EXPECT_EQ(fx.net.graphCompileCount(), 1u);
}

TEST(GraphPlanV4, OlderVersionsStillLoadWithoutSchedule)
{
    PlanFixture fx;
    for (std::uint8_t v : {std::uint8_t(2), std::uint8_t(3)}) {
        const auto bytes = serializePlan(fx.plan, v);
        const auto loaded = deserializePlan(bytes);
        ASSERT_TRUE(loaded.has_value()) << "version " << int(v);
        EXPECT_FALSE(loaded->schedule.has_value());
    }
}

TEST(GraphPlanV4, V4WithoutScheduleLoads)
{
    PlanFixture fx;
    fx.plan.schedule.reset();
    const auto loaded = deserializePlan(serializePlan(fx.plan));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_FALSE(loaded->schedule.has_value());
}

TEST(GraphPlanV4, TruncatedScheduleIsRejected)
{
    PlanFixture fx;
    const auto bytes = serializePlan(fx.plan);
    // Chop anywhere inside the schedule section: every prefix must
    // come back nullopt, never crash or half-parse.
    const auto noSched = serializePlan(fx.plan, 3);
    for (std::size_t cut = noSched.size() + 1; cut < bytes.size();
         cut += 7) {
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin() +
                                                  std::ptrdiff_t(cut));
        EXPECT_FALSE(deserializePlan(trunc).has_value())
            << "cut at " << cut << " of " << bytes.size();
    }
}

TEST(GraphPlanV4, OutOfRangeArenaOffsetIsRejected)
{
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    // Push one non-output value past the end of the arena.
    for (GraphValue &v : s.values)
        if (!v.isOutput) {
            v.offset = s.arenaFloats;
            break;
        }
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, UndersizedArenaIsRejected)
{
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    ASSERT_GT(s.arenaFloats, 1u);
    s.arenaFloats -= 1; // smaller than the max offset + extent
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, EditedLifetimesAreRejected)
{
    // Shortening a lifetime is the classic aliasing attack: two
    // simultaneously-live values end up sharing bytes. The reader
    // recomputes lifetimes from the op list and must refuse the
    // mismatch.
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    for (GraphValue &v : s.values)
        if (!v.isOutput && v.lastUse > v.def) {
            v.lastUse = v.def;
            break;
        }
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, OverlappingLiveValuesAreRejected)
{
    // Same bytes for two values whose recomputed lifetimes overlap
    // (a producer and its consumer are always simultaneously live).
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    int first = -1;
    bool tampered = false;
    for (std::size_t v = 0; v < s.values.size() && !tampered; ++v) {
        if (s.values[v].isOutput)
            continue;
        if (first < 0) {
            first = int(v);
            continue;
        }
        const GraphValue &a = s.values[std::size_t(first)];
        GraphValue &b = s.values[v];
        if (a.def <= b.lastUse && b.def <= a.lastUse) {
            b.offset = a.offset; // force address overlap
            tampered = true;
        }
    }
    ASSERT_TRUE(tampered);
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

TEST(GraphPlanV4, ScheduleBatchMismatchIsRejected)
{
    PlanFixture fx;
    GraphSchedule s = *fx.plan.schedule;
    fx.plan.batch += 1; // splice: plan header batch != schedule batch
    fx.plan.schedule = s;
    EXPECT_FALSE(deserializePlan(serializePlan(fx.plan)).has_value());
}

// ------------------------------------------------- serving

TEST(GraphServe, OneArenaPerReplicaAndBitwiseResults)
{
    Network proto = zooNet(1, 137u); // MiniInception
    const Tensor probe = zooInput(proto, 1, 139u);
    proto.setGraphDispatch(false);
    Tensor want;
    proto.forwardInto(probe, false, want);

    proto.setGraphDispatch(true);
    ModelRegistry reg;
    ModelConfig mc;
    mc.name = "incep";
    mc.maxBatch = 4;
    mc.maxReplicas = 2;
    ASSERT_EQ(reg.registerModel(std::move(proto), std::move(mc)),
              RegisterStatus::Registered);
    Model &model = reg.model(0);

    // Exactly one compile — one arena allocation — per replica,
    // taken when the replica adopts the registration-time schedule
    // at the batch ceiling.
    std::vector<Network> replicas;
    for (int i = 0; i < 2; ++i) {
        replicas.push_back(model.makeReplica(1));
        const Network &r = replicas.back();
        EXPECT_EQ(r.graphCompileCount(), 1u) << "replica " << i;
        ASSERT_NE(r.compiledGraph(), nullptr) << "replica " << i;
        EXPECT_GT(r.compiledGraph()->arenaBytes(), 0u)
            << "replica " << i;
    }

    MultiEngineConfig cfg;
    cfg.workers = 2;
    cfg.initialReplicas = 2;
    MultiTenantEngine engine(reg, cfg);
    std::vector<std::future<TenantResult>> futs;
    for (int i = 0; i < 12; ++i) {
        auto sub = engine.submit(0, TaskClass::Interactive, probe);
        ASSERT_EQ(sub.status, SubmitStatus::Accepted);
        futs.push_back(std::move(sub.result));
    }
    for (auto &f : futs) {
        const TenantResult r = f.get();
        EXPECT_TRUE(bitwiseEqual(r.logits, want))
            << "served logits diverge from the prototype's";
    }
    engine.stop();
    // A recompile inside a worker would allocate a fresh arena in
    // the steady-state probe window.
    EXPECT_EQ(engine.metrics().steadyAllocs, 0u);

    // A replica that has served batches up to the ceiling still
    // owns the one graph it adopted.
    Tensor batch(Shape{4, probe.shape().c, probe.shape().h,
                       probe.shape().w});
    for (std::size_t i = 0; i < 4; ++i)
        std::memcpy(batch.data() + i * probe.size(), probe.data(),
                    probe.size() * sizeof(float));
    for (Network &r : replicas) {
        Tensor out;
        r.forwardInto(probe, false, out);
        EXPECT_TRUE(bitwiseEqual(out, want));
        r.forwardInto(batch, false, out);
        EXPECT_TRUE(bitwiseEqual(out.item(3), want));
        EXPECT_EQ(r.graphCompileCount(), 1u)
            << "replica recompiled while serving";
    }
}

} // namespace
} // namespace pcnn
