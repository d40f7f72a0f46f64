/**
 * @file
 * Int8 quantized inference path (DESIGN.md §5i).
 *
 * The int8 scheme is built for determinism: int32 accumulation is
 * exact (qgemm bounds K) and every tier applies the identical scalar
 * dequant epilogue, so quantized results must be *bitwise* identical
 * across kernel tiers, thread counts, and serving replicas — a
 * stronger contract than the fp32 path's per-tier reproducibility.
 * These tests pin that contract end to end, check the quantizers'
 * corner cases, harden the QuantProfile / plan-v3 readers against
 * hostile bytes, and cover the tuner's precision-vs-perforation walk.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/alloc_count.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "data/synthetic.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "pcnn/offline/compiler.hh"
#include "pcnn/offline/plan_io.hh"
#include "pcnn/offline/quant_profile.hh"
#include "pcnn/runtime/accuracy_tuner.hh"
#include "pcnn/runtime/executor.hh"
#include "tensor/quant.hh"
#include "tensor/tensor_ops.hh"
#include "train/loss.hh"
#include "train/trainer.hh"

namespace pcnn {
namespace {

/** Restores the ambient pool width when a test resizes it. */
class ThreadCountGuard
{
  public:
    ThreadCountGuard() : saved(threadCount()) {}
    ~ThreadCountGuard() { setThreadCount(saved); }

  private:
    std::size_t saved;
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------- quantizers

TEST(Quant, ActivationParamsCoverRangeAndZero)
{
    // A positive-only range still includes 0 (padding and ReLU
    // outputs must be exactly representable).
    const float pos[] = {1.0f, 2.0f, 4.0f};
    const QuantParams p = computeQuantParams(pos, 3);
    EXPECT_GT(p.scale, 0.0f);
    EXPECT_EQ(p.zero, 0u); // range widened down to 0
    EXPECT_NEAR(p.scale * 127.0f, 4.0f, 1e-5);

    const float mixed[] = {-2.0f, 0.5f, 2.0f};
    const QuantParams m = computeQuantParams(mixed, 3);
    // real(q=zero) == 0 by construction of the asymmetric scheme.
    EXPECT_GT(m.zero, 0u);
    EXPECT_LE(m.zero, 127u);
    EXPECT_NEAR(m.scale * 127.0f, 4.0f, 0.1f);
}

TEST(Quant, DegenerateRangesYieldIdentityParams)
{
    const QuantParams none = computeQuantParams(nullptr, 0);
    EXPECT_EQ(none.scale, 1.0f);
    EXPECT_EQ(none.zero, 0u);

    const float zeros[] = {0.0f, 0.0f};
    const QuantParams z = computeQuantParams(zeros, 2);
    EXPECT_EQ(z.scale, 1.0f);
    EXPECT_EQ(z.zero, 0u);

    const float bad[] = {1.0f, std::nanf("")};
    const QuantParams n = computeQuantParams(bad, 2);
    EXPECT_EQ(n.scale, 1.0f);
    EXPECT_EQ(n.zero, 0u);
}

TEST(Quant, WeightPanelLayoutAndRowSums)
{
    // 2 x 6 weights, K padded to 8; row 1 is all zeros (scale 1).
    const float w[] = {1.0f, -1.0f, 0.5f, 0.25f, -0.5f, 1.0f,
                       0.0f, 0.0f,  0.0f, 0.0f,  0.0f,  0.0f};
    QuantizedPanel panel;
    quantizeWeights(2, 6, w, panel);
    EXPECT_EQ(panel.rows, 2u);
    EXPECT_EQ(panel.cols, 6u);
    EXPECT_EQ(panel.kp, 8u);
    // Row 0: maxabs 1 -> scale 1/127, q = round(w * 127).
    EXPECT_NEAR(panel.scales[0], 1.0f / 127.0f, 1e-7);
    EXPECT_EQ(panel.data[0], 127);
    EXPECT_EQ(panel.data[1], -127);
    EXPECT_EQ(panel.data[6], 0); // pad bytes are zero
    EXPECT_EQ(panel.data[7], 0);
    std::int32_t sum = 0;
    for (int i = 0; i < 8; ++i)
        sum += panel.data[i];
    EXPECT_EQ(panel.rowSums[0], sum);
    // All-zero row quantizes as identity, not a division by zero.
    EXPECT_EQ(panel.scales[1], 1.0f);
    EXPECT_EQ(panel.rowSums[1], 0);
}

TEST(Quant, PackActivationsMatchesScalarReference)
{
    // The packer has a vectorized fast path on AVX2 hosts; this pins
    // it (and the column padding) to an independent scalar rendering
    // of the documented layout: np = quantPackedCols(n) columns,
    // group g stores column j at g*4np + 4j, k-pad rows and column
    // pads hold the zero point, quantization rounds to nearest-even.
    Rng rng(31);
    const std::size_t shapes[][2] = {
        {1, 1}, {4, 8}, {7, 33}, {13, 100}, {6, 32}, {9, 129}};
    for (const auto &s : shapes) {
        const std::size_t k = s[0], n = s[1];
        const std::size_t np = quantPackedCols(n);
        std::vector<float> x(k * n);
        for (float &v : x)
            v = rng.uniform(-2.0f, 3.0f);
        const QuantParams qp = computeQuantParams(x.data(), x.size());
        std::vector<std::uint8_t> got;
        quantizePackActivations(x.data(), k, n, n, false, qp, got);

        const std::size_t groups = (k + 3) / 4;
        std::vector<std::uint8_t> want(groups * 4 * np, qp.zero);
        const float inv = 1.0f / qp.scale; // as the packer computes it
        for (std::size_t p = 0; p < k; ++p)
            for (std::size_t j = 0; j < n; ++j) {
                long q = std::lrintf(x[p * n + j] * inv) + qp.zero;
                q = std::max(0l, std::min(127l, q));
                want[(p / 4) * 4 * np + 4 * j + p % 4] =
                    std::uint8_t(q);
            }
        ASSERT_GE(got.size(), want.size()) << k << "x" << n;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
            << k << "x" << n;
    }
}

// ------------------------------------------ qgemm vs integer oracle

/** Bit-exact reference: same int32 math and the same scalar dequant
 * sequence as every micro-kernel tier, computed the naive way. */
void
naiveQgemm(std::size_t m, std::size_t n, std::size_t k,
           const QuantizedPanel &a, const std::uint8_t *b,
           const QuantParams &bq, float *c, const float *bias,
           bool relu)
{
    const std::size_t groups = a.kp / 4;
    const std::size_t ldb = 4 * quantPackedCols(n);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::size_t g = 0; g < groups; ++g)
                for (std::size_t t = 0; t < 4; ++t)
                    acc += std::int64_t(a.data[r * a.kp + g * 4 + t]) *
                           std::int64_t(b[g * ldb + 4 * j + t]);
            const std::int64_t adj =
                acc - std::int64_t(bq.zero) * a.rowSums[r];
            float v = float(adj) * (a.scales[r] * bq.scale);
            if (bias != nullptr)
                v += bias[r];
            if (relu && v < 0.0f)
                v = 0.0f;
            c[r * n + j] = v;
        }
    }
    (void)k;
}

struct QgemmCase
{
    std::size_t m, n, k;
    bool bias, relu;
};

/** Shapes chosen to hit full tiles, row/col edges, and K padding in
 * every tier (mr up to 8, nr up to 32, K % 4 != 0). */
const QgemmCase kCases[] = {
    {1, 1, 1, false, false},   {4, 8, 16, true, false},
    {8, 32, 64, true, true},   {13, 37, 10, true, true},
    {37, 53, 129, true, true}, {6, 130, 48, false, true},
};

void
runQgemmCase(const QgemmCase &cs, Rng &rng, std::vector<float> &got,
             std::vector<float> &want)
{
    std::vector<float> w(cs.m * cs.k), x(cs.k * cs.n),
        bias(cs.m);
    for (float &v : w)
        v = rng.uniform(-1.5f, 1.5f);
    for (float &v : x)
        v = rng.uniform(-2.0f, 3.0f);
    for (float &v : bias)
        v = rng.uniform(-0.5f, 0.5f);

    QuantizedPanel panel;
    quantizeWeights(cs.m, cs.k, w.data(), panel);
    const QuantParams aq = computeQuantParams(x.data(), x.size());
    std::vector<std::uint8_t> bp;
    quantizePackActivations(x.data(), cs.k, cs.n, cs.n, false, aq, bp);

    got.assign(cs.m * cs.n, -1e30f);
    want.assign(cs.m * cs.n, 1e30f);
    qgemm(cs.m, cs.n, cs.k, panel, bp.data(), aq, got.data(),
          cs.bias ? bias.data() : nullptr, cs.relu);
    naiveQgemm(cs.m, cs.n, cs.k, panel, bp.data(), aq, want.data(),
               cs.bias ? bias.data() : nullptr, cs.relu);
}

TEST(Quant, QgemmMatchesIntegerOracleExactly)
{
    Rng rng(11);
    for (const QgemmCase &cs : kCases) {
        std::vector<float> got, want;
        runQgemmCase(cs, rng, got, want);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << cs.m << "x" << cs.n << "x" << cs.k;
    }
}

TEST(Quant, QgemmBitwiseIdenticalAcrossTiers)
{
    // The determinism contract is *cross*-tier: every supported tier
    // must agree with the integer oracle bit for bit.
    for (KernelTier tier : supportedKernelTiers()) {
        setKernelTier(tier);
        Rng rng(12); // same inputs for every tier
        for (const QgemmCase &cs : kCases) {
            std::vector<float> got, want;
            runQgemmCase(cs, rng, got, want);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << kernelTierName(tier) << " " << cs.m << "x" << cs.n
                << "x" << cs.k;
        }
    }
    resetKernelTier();
}

TEST(Quant, QgemmBitwiseIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const QgemmCase cs{37, 96, 200, true, true};
    Rng rng(13);
    std::vector<float> base, want;
    setThreadCount(1);
    runQgemmCase(cs, rng, base, want);
    for (std::size_t threads : {std::size_t(2), std::size_t(4)}) {
        setThreadCount(threads);
        Rng rng2(13);
        std::vector<float> got, w2;
        runQgemmCase(cs, rng2, got, w2);
        EXPECT_EQ(std::memcmp(base.data(), got.data(),
                              base.size() * sizeof(float)),
                  0)
            << threads << " threads";
    }
}

TEST(QuantDeath, QgemmRejectsOversizedK)
{
    const std::size_t k = kQuantMaxK + 1;
    std::vector<float> w(k, 0.25f), x(k, 1.0f);
    QuantizedPanel panel;
    quantizeWeights(1, k, w.data(), panel);
    const QuantParams aq = computeQuantParams(x.data(), x.size());
    std::vector<std::uint8_t> bp;
    quantizePackActivations(x.data(), k, 1, 1, false, aq, bp);
    float c = 0.0f;
    EXPECT_DEATH(qgemm(1, 1, k, panel, bp.data(), aq, &c, nullptr,
                       false),
                 "exact-int32");
}

// --------------------------------------------- end-to-end networks

Tensor
makeInput(const Network &net, std::size_t batch, std::uint64_t seed)
{
    const Shape &in = net.inputShape();
    Tensor x(Shape{batch, in.c, in.h, in.w});
    Rng rng(seed);
    x.fillGaussian(rng, 0, 1);
    return x;
}

TEST(Quant, Fp32PathBitwiseUnchangedByToggle)
{
    Rng rng(21);
    Network net = makeMiniAlexNet(rng);
    const Tensor x = makeInput(net, 4, 22);

    // Pin both states explicitly so the test also holds under a
    // PCNN_QUANTIZE=1 environment (the CI smoke leg).
    Tensor before, during, after;
    net.setQuantized(false);
    net.forwardInto(x, false, before);
    net.setQuantized(true);
    net.forwardInto(x, false, during);
    net.setQuantized(false);
    net.forwardInto(x, false, after);

    // Paper-fidelity default: with quantization off the fp32 result
    // is bit-identical to a build that never heard of int8.
    EXPECT_TRUE(bitwiseEqual(before, after));
    // And the quantized pass really took the other route.
    EXPECT_FALSE(bitwiseEqual(before, during));
}

TEST(Quant, ForwardBitwiseIdenticalAcrossThreadCounts)
{
    ThreadCountGuard tguard;

    for (int zoo = 0; zoo < 3; ++zoo) {
        Rng rng(31);
        Network net = zoo == 0   ? makeMiniAlexNet(rng)
                      : zoo == 1 ? makeMiniVgg(rng)
                                 : makeMiniInception(rng);
        net.setQuantized(true);
        const Tensor x = makeInput(net, 4, 32);
        setThreadCount(1);
        Tensor base;
        net.forwardInto(x, false, base);
        for (std::size_t threads : {std::size_t(2), std::size_t(4)}) {
            setThreadCount(threads);
            Tensor y;
            net.forwardInto(x, false, y);
            EXPECT_TRUE(bitwiseEqual(base, y))
                << "zoo " << zoo << " threads " << threads;
        }
    }
}

TEST(Quant, ForwardBitwiseIdenticalAcrossTiers)
{
    Rng rng(41);
    Network net = makeMiniVgg(rng);
    net.setQuantized(true);
    const Tensor x = makeInput(net, 2, 42);

    setKernelTier(KernelTier::Portable);
    Tensor base;
    net.forwardInto(x, false, base);
    for (KernelTier tier : supportedKernelTiers()) {
        setKernelTier(tier);
        Tensor y;
        net.forwardInto(x, false, y);
        EXPECT_TRUE(bitwiseEqual(base, y)) << kernelTierName(tier);
    }
    resetKernelTier();
}

TEST(Quant, BatchOneMatchesBatchedRows)
{
    // The FC layer takes a dedicated batch-1 route (qgemm straight
    // into y); it must agree bitwise with the same item inside a
    // batch, because qgemm's per-column math is independent of n.
    Rng rng(51);
    Network net = makeMiniAlexNet(rng);
    net.setQuantized(true);
    const Tensor x = makeInput(net, 1, 52);
    Tensor y1;
    net.forwardInto(x, false, y1);
    Tensor y2;
    net.forwardInto(x, false, y2);
    EXPECT_TRUE(bitwiseEqual(y1, y2));
}

TEST(Quant, ReplicasShareQuantizedPanels)
{
    Rng rng(61);
    Network net = makeMiniAlexNet(rng);
    net.setQuantized(true);
    const Tensor x = makeInput(net, 2, 62);

    // Warm up the base so every shared panel exists before cloning.
    Tensor y;
    net.forwardInto(x, false, y);

    Network replica = net.cloneSharingWeights();
    const std::uint64_t packs = quantPackCount();
    Tensor yr;
    replica.forwardInto(x, false, yr);
    replica.forwardInto(x, false, yr);
    // Replica forwards reuse the shared panels: zero re-quantization.
    EXPECT_EQ(quantPackCount(), packs);
    EXPECT_TRUE(bitwiseEqual(y, yr));
}

TEST(QuantAllocProbe, WarmQuantizedForwardIsAllocFree)
{
    if (!allocCountingEnabled())
        GTEST_SKIP() << "PCNN_COUNT_ALLOCS disabled in this build";

    ThreadCountGuard tguard;

    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(4)}) {
        setThreadCount(threads);
        for (int zoo = 0; zoo < 3; ++zoo) {
            Rng rng(71);
            Network net = zoo == 0   ? makeMiniAlexNet(rng)
                          : zoo == 1 ? makeMiniVgg(rng)
                                     : makeMiniInception(rng);
            net.setQuantized(true);
            const Tensor x = makeInput(net, 4, 72);
            Tensor y;
            net.forwardInto(x, false, y);
            net.forwardInto(x, false, y);

            ScopedAllocCount probe;
            net.forwardInto(x, false, y);
            EXPECT_EQ(probe.allocs(), 0u)
                << "zoo " << zoo << " threads " << threads;
            EXPECT_EQ(probe.frees(), 0u)
                << "zoo " << zoo << " threads " << threads;
        }
    }
}

TEST(Quant, TrainedTopOneSurvivesQuantization)
{
    SyntheticTaskConfig cfg;
    cfg.difficulty = 0.4;
    cfg.seed = 80;
    SyntheticTask task(cfg);
    Dataset train_set = task.generate(768);
    Dataset test_set = task.generate(192);
    Rng rng(81);
    Network net = makeMiniNet(MiniSize::Medium, rng);
    TrainConfig tc;
    tc.epochs = 4;
    Trainer trainer(net, tc);
    trainer.fit(train_set);

    const Tensor inputs = test_set.batch(0, test_set.size());
    net.setQuantized(false);
    const Tensor fp_logits = net.forward(inputs, false);
    const double fp_acc = accuracy(fp_logits, test_set.labels());

    net.setQuantized(true);
    const Tensor q_logits = net.forward(inputs, false);
    const double q_acc = accuracy(q_logits, test_set.labels());

    // 7-bit activations + per-channel weights keep the top-1 within
    // the entropy-threshold budget the tuner works against.
    EXPECT_GE(q_acc, fp_acc - 0.05)
        << "fp32 " << fp_acc << " int8 " << q_acc;
}

// ---------------------------------------------------- QuantProfile

QuantProfile
sampleProfile()
{
    QuantProfile p;
    p.entries.push_back({"conv1", {0.031f, 64}});
    p.entries.push_back({"fc1", {0.125f, 0}});
    return p;
}

TEST(QuantProfileIo, RoundTrip)
{
    const QuantProfile p = sampleProfile();
    const auto loaded = deserializeQuantProfile(serializeQuantProfile(p));
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->entries.size(), 2u);
    EXPECT_EQ(loaded->entries[0].layer, "conv1");
    EXPECT_EQ(loaded->entries[0].params.scale, 0.031f);
    EXPECT_EQ(loaded->entries[0].params.zero, 64u);
    EXPECT_EQ(loaded->entries[1].layer, "fc1");
    ASSERT_NE(loaded->find("fc1"), nullptr);
    EXPECT_EQ(loaded->find("nope"), nullptr);
}

TEST(QuantProfileIo, FileRoundTrip)
{
    const QuantProfile p = sampleProfile();
    const std::string path = "/tmp/pcnn_quant_profile_test.bin";
    ASSERT_TRUE(saveQuantProfile(p, path));
    const auto loaded = loadQuantProfile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->entries.size(), 2u);
    std::remove(path.c_str());
    EXPECT_FALSE(loadQuantProfile(path).has_value());
}

TEST(QuantProfileIo, RejectsHostileBytes)
{
    // Truncations at every prefix length must fail cleanly.
    const auto good = serializeQuantProfile(sampleProfile());
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        std::vector<std::uint8_t> t(good.begin(),
                                    good.begin() + std::ptrdiff_t(cut));
        EXPECT_FALSE(deserializeQuantProfile(t).has_value())
            << "cut " << cut;
    }
    // Wrong magic.
    auto bad = good;
    bad[0] = 'X';
    EXPECT_FALSE(deserializeQuantProfile(bad).has_value());
    // Trailing bytes after a valid payload.
    bad = good;
    bad.push_back(0);
    EXPECT_FALSE(deserializeQuantProfile(bad).has_value());
    // Hostile 2^64-ish string length must not wrap the cursor.
    std::vector<std::uint8_t> wrap(good.begin(), good.begin() + 16);
    for (int i = 0; i < 8; ++i)
        wrap.push_back(0xFF);
    EXPECT_FALSE(deserializeQuantProfile(wrap).has_value());
}

TEST(QuantProfileIo, RejectsBadParams)
{
    auto mutated = [](QuantParams params) {
        QuantProfile p;
        p.entries.push_back({"layer", params});
        return deserializeQuantProfile(serializeQuantProfile(p));
    };
    EXPECT_TRUE(mutated({0.5f, 127}).has_value());
    EXPECT_FALSE(mutated({std::nanf(""), 0}).has_value());
    EXPECT_FALSE(mutated({HUGE_VALF, 0}).has_value());
    EXPECT_FALSE(mutated({0.0f, 0}).has_value());
    EXPECT_FALSE(mutated({-1.0f, 0}).has_value());
    // Zero point beyond the u7 range: the serialized u64 field is
    // patched directly since QuantParams can't even hold it.
    QuantProfile p;
    p.entries.push_back({"z", {1.0f, 127}});
    auto bytes = serializeQuantProfile(p);
    bytes[bytes.size() - 8] = 128;
    EXPECT_FALSE(deserializeQuantProfile(bytes).has_value());
}

TEST(QuantProfileIo, CalibratedProfileAppliesAndRoundTrips)
{
    Rng rng(91);
    Network net = makeMiniAlexNet(rng);
    const Tensor x = makeInput(net, 4, 92);
    const QuantProfile profile = calibrateQuantProfile(net, x);
    // One entry per top-level conv/fc layer.
    EXPECT_EQ(profile.entries.size(),
              net.convLayers().size() + net.fcLayers().size());

    const auto loaded =
        deserializeQuantProfile(serializeQuantProfile(profile));
    ASSERT_TRUE(loaded.has_value());
    applyQuantProfile(net, *loaded);
    for (ConvLayer *c : net.convLayers()) {
        EXPECT_TRUE(c->quantizedEnabled());
        EXPECT_TRUE(c->hasInputQuant());
    }
    // Static ranges: logits are a pure function of the batch, and
    // the route still runs end to end.
    Tensor a, b;
    net.forwardInto(x, false, a);
    net.forwardInto(x, false, b);
    EXPECT_TRUE(bitwiseEqual(a, b));
    net.setQuantized(false);
    for (ConvLayer *c : net.convLayers())
        EXPECT_FALSE(c->quantizedEnabled());
}

// ------------------------------------------------------- plan v3

TEST(QuantPlanIo, V3RoundTripPreservesQuantizedFlags)
{
    const OfflineCompiler compiler(jetsonTx1());
    CompiledPlan plan = compiler.compileAtBatch(alexNet(), 2);
    plan.layers[0].kernel.quantized = true;
    plan.layers[2].kernel.quantized = true;

    const auto bytes = serializePlan(plan, 3);
    ASSERT_GE(bytes.size(), 9u);
    EXPECT_EQ(bytes[8], 3u); // v3 discriminated by the version byte

    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value());
    for (std::size_t i = 0; i < plan.layers.size(); ++i)
        EXPECT_EQ(loaded->layers[i].kernel.quantized,
                  plan.layers[i].kernel.quantized)
            << "layer " << i;
}

TEST(QuantPlanIo, V2ReadDefaultsToFp32)
{
    const OfflineCompiler compiler(jetsonTx1());
    CompiledPlan plan = compiler.compileAtBatch(alexNet(), 1);
    plan.layers[0].kernel.quantized = true; // v2 cannot carry this
    const auto bytes = serializePlan(plan, 2);
    EXPECT_EQ(bytes[8], 2u);
    const auto loaded = deserializePlan(bytes);
    ASSERT_TRUE(loaded.has_value());
    for (const LayerSchedule &ls : loaded->layers)
        EXPECT_FALSE(ls.kernel.quantized);
}

TEST(QuantPlanIo, RejectsHostileQuantizedEncoding)
{
    const OfflineCompiler compiler(jetsonTx1());
    CompiledPlan plan = compiler.compileAtBatch(alexNet(), 1);
    const auto off_bytes = serializePlan(plan);
    plan.layers[0].kernel.quantized = true;
    const auto on_bytes = serializePlan(plan);

    // The flag is a u64 0/1; find its low byte by diffing the two
    // serializations, then write an out-of-range value into it.
    ASSERT_EQ(off_bytes.size(), on_bytes.size());
    std::size_t flag_at = std::size_t(-1);
    for (std::size_t i = 0; i < on_bytes.size(); ++i) {
        if (off_bytes[i] != on_bytes[i]) {
            ASSERT_EQ(flag_at, std::size_t(-1)) << "one-byte diff";
            flag_at = i;
        }
    }
    ASSERT_NE(flag_at, std::size_t(-1));
    auto hostile = on_bytes;
    hostile[flag_at] = 2;
    EXPECT_FALSE(deserializePlan(hostile).has_value());
    // Truncating the trailing v3 field must also fail.
    auto truncated = on_bytes;
    truncated.resize(truncated.size() - 4);
    EXPECT_FALSE(deserializePlan(truncated).has_value());
}

// ---------------------------------- tuning table + precision walk

TuningEntry
tableEntry(double time_s, std::vector<std::uint8_t> quant)
{
    TuningEntry e;
    e.positions = {100, 100};
    e.quant = std::move(quant);
    e.predictedTimeS = time_s;
    e.speedup = 1.0 / time_s;
    return e;
}

TEST(QuantTuningTable, AcceptsMonotonePrecisionPath)
{
    TuningTable t;
    t.push(tableEntry(1.0, {0, 0}));
    t.push(tableEntry(0.8, {1, 0}));
    t.push(tableEntry(0.6, {1, 1}));
    // Legacy entries (no precision axis) interoperate.
    t.push(tableEntry(0.5, {}));
    EXPECT_EQ(t.levels(), 4u);
}

TEST(QuantTuningTableDeath, RejectsDequantizedLayer)
{
    TuningTable t;
    t.push(tableEntry(1.0, {1, 0}));
    EXPECT_DEATH(t.push(tableEntry(0.9, {0, 0})), "de-quantized");
    TuningTable u;
    u.push(tableEntry(1.0, {0, 0}));
    EXPECT_DEATH(u.push(tableEntry(0.9, {0})), "layer count");
}

class QuantTunerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SyntheticTaskConfig cfg;
        cfg.difficulty = 0.4;
        cfg.seed = 70;
        task.emplace(cfg);
        Dataset train_set = task->generate(768);
        rng.emplace(71);
        net.emplace(makeMiniNet(MiniSize::Medium, *rng));
        TrainConfig tc;
        tc.epochs = 4;
        Trainer trainer(*net, tc);
        trainer.fit(train_set);
        const OfflineCompiler compiler(jetsonTx1());
        plan = compiler.compileAtBatch(describe(*net), 64);
    }

    std::optional<SyntheticTask> task;
    std::optional<Rng> rng;
    std::optional<Network> net;
    CompiledPlan plan;
};

TEST_F(QuantTunerFixture, PrecisionAxisJoinsTheGreedyWalk)
{
    TunerConfig cfg;
    cfg.entropyThreshold = 1.4;
    cfg.allowQuantize = true;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const Dataset tune_data = task->generate(128);
    const TuningTable table = tuner.tuneNetwork(
        *net, plan, tune_data.batch(0, tune_data.size()));

    ASSERT_GE(table.levels(), 2u) << "tuner never moved";
    bool flipped = false;
    for (std::size_t i = 0; i < table.levels(); ++i) {
        const TuningEntry &e = table.entry(i);
        ASSERT_EQ(e.quant.size(), e.positions.size());
        if (i > 0) {
            EXPECT_LT(e.predictedTimeS,
                      table.entry(i - 1).predictedTimeS);
            for (std::size_t l = 0; l < e.quant.size(); ++l)
                EXPECT_GE(e.quant[l], table.entry(i - 1).quant[l]);
        }
        flipped = flipped || e.adjustedPrecision;
    }
    // An int8 flip halves a layer's modeled time at near-zero
    // entropy cost, so the TE metric must pick at least one.
    EXPECT_TRUE(flipped);

    // The tuner leaves the network exact afterwards.
    for (ConvLayer *c : net->convLayers()) {
        EXPECT_FALSE(c->perforated());
        EXPECT_FALSE(c->quantizedEnabled());
    }
}

TEST_F(QuantTunerFixture, PrecisionAxisOffKeepsLegacyEntries)
{
    TunerConfig cfg;
    cfg.entropyThreshold = 1.4;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const Dataset tune_data = task->generate(128);
    const TuningTable table = tuner.tuneNetwork(
        *net, plan, tune_data.batch(0, tune_data.size()));
    for (std::size_t i = 0; i < table.levels(); ++i) {
        EXPECT_TRUE(table.entry(i).quant.empty());
        EXPECT_FALSE(table.entry(i).adjustedPrecision);
    }
}

TEST(QuantTuner, Int8SpeedupPricesLayerTime)
{
    const OfflineCompiler compiler(jetsonTx1());
    const CompiledPlan plan = compiler.compileAtBatch(alexNet(), 1);
    TunerConfig cfg;
    cfg.int8Speedup = 2.0;
    const AccuracyTuner tuner(jetsonTx1(), cfg);
    const double fp = tuner.layerTimeAt(plan, 0, 0);
    const double q = tuner.layerTimeAt(plan, 0, 0, true);
    EXPECT_NEAR(q, fp / 2.0, fp * 1e-12);

    // A sub-1x factor is clamped: "quantized" never prices slower.
    TunerConfig bad = cfg;
    bad.int8Speedup = 0.25;
    const AccuracyTuner clamped(jetsonTx1(), bad);
    EXPECT_LE(clamped.layerTimeAt(plan, 0, 0, true), fp * (1 + 1e-12));
}

TEST(QuantExecutor, PlanV3FlagsReachTheLayers)
{
    Rng rng(95);
    Network net = makeMiniAlexNet(rng);
    const GpuSpec gpu = jetsonTx1();
    const OfflineCompiler compiler(gpu);
    CompiledPlan plan = compiler.compileAtBatch(describe(net), 1);
    plan.layers[0].kernel.quantized = true;

    const Executor exec(net, plan, gpu);
    const auto &convs = net.convLayers();
    EXPECT_TRUE(convs[0]->quantizedEnabled());
    for (std::size_t i = 1; i < convs.size(); ++i)
        EXPECT_FALSE(convs[i]->quantizedEnabled());
    net.setQuantized(false);
}

} // namespace
} // namespace pcnn
