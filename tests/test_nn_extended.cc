/**
 * @file
 * Tests for the extended nn substrate: LRN, average pooling, padded
 * max pooling, inception modules, and weight serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/parallel.hh"
#include "data/synthetic.hh"
#include "nn/avgpool_layer.hh"
#include "nn/inception_layer.hh"
#include "nn/lrn_layer.hh"
#include "nn/model_zoo.hh"
#include "nn/pool_layer.hh"
#include "nn/serialize.hh"
#include "pcnn/offline/compiler.hh"
#include "train/trainer.hh"

namespace pcnn {
namespace {

// ---------------------------------------------------------------- LRN

TEST(LrnLayer, IdentityShapeAndDirection)
{
    LrnLayer lrn("lrn");
    Rng rng(1);
    Tensor x(2, 8, 3, 3);
    x.fillGaussian(rng, 0, 2);
    const Tensor y = lrn.forward(x, false);
    EXPECT_EQ(y.shape(), x.shape());
    // Normalization shrinks magnitudes (scale >= k = 2, beta > 0).
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_LE(std::abs(y[i]), std::abs(x[i]) + 1e-6);
        EXPECT_EQ(std::signbit(y[i]), std::signbit(x[i]));
    }
}

TEST(LrnLayer, StrongNeighborsSuppressMore)
{
    // Same activation, but one sits among large neighbors.
    LrnLayer lrn("lrn", 5, 0.5, 0.75, 2.0);
    Tensor x(1, 5, 1, 1);
    x.fill(0.0f);
    x.at(0, 2, 0, 0) = 1.0f; // isolated
    const Tensor y_isolated = lrn.forward(x, false);

    x.fill(3.0f); // loud neighborhood
    x.at(0, 2, 0, 0) = 1.0f;
    const Tensor y_crowded = lrn.forward(x, false);
    EXPECT_GT(y_isolated.at(0, 2, 0, 0), y_crowded.at(0, 2, 0, 0));
}

TEST(LrnLayer, ForwardBitwiseAcrossLaneCounts)
{
    const std::size_t size = 5;
    const float alpha = 0.5f, beta = 0.75f, k = 2.0f;
    Rng rng(3);
    // 24 (n, h) rows and ~4.6k elements: enough estimated work for the
    // cost gate to fan out over every tested lane count.
    Tensor x(2, 16, 12, 12);
    x.fillGaussian(rng, 0, 2);

    // Serial reference: the plain per-cell loop over at().
    Tensor want(x.shape());
    const Shape &s = x.shape();
    const long half = long(size / 2);
    for (std::size_t n = 0; n < s.n; ++n)
        for (std::size_t c = 0; c < s.c; ++c)
            for (std::size_t h = 0; h < s.h; ++h)
                for (std::size_t w = 0; w < s.w; ++w) {
                    double sum = 0.0;
                    for (long dc = -half; dc <= half; ++dc) {
                        const long cc = long(c) + dc;
                        if (cc < 0 || cc >= long(s.c))
                            continue;
                        const double v = x.at(n, std::size_t(cc), h, w);
                        sum += v * v;
                    }
                    const float sc = k + alpha / float(size) * float(sum);
                    want.at(n, c, h, w) =
                        x.at(n, c, h, w) * std::pow(sc, -beta);
                }

    Tensor dy(x.shape());
    dy.fillGaussian(rng, 0, 1);
    Tensor dx_ref;
    for (std::size_t lanes : {1, 2, 4}) {
        setThreadCount(lanes);
        LrnLayer lrn("lrn", size, alpha, beta, k);
        const Tensor y = lrn.forward(x, true);
        ASSERT_EQ(y.size(), want.size());
        EXPECT_EQ(std::memcmp(y.data(), want.data(),
                              y.size() * sizeof(float)),
                  0)
            << "lanes " << lanes;
        // backward reads the cached scales, so equal gradients mean
        // the parallel forward cached identical scales too.
        const Tensor dx = lrn.backward(dy);
        if (lanes == 1)
            dx_ref = dx;
        EXPECT_EQ(std::memcmp(dx.data(), dx_ref.data(),
                              dx.size() * sizeof(float)),
                  0)
            << "lanes " << lanes;
    }
    setThreadCount(0);
}

TEST(LrnLayer, GradientMatchesNumeric)
{
    LrnLayer lrn("lrn", 3, 0.3, 0.75, 2.0);
    Rng rng(2);
    Tensor x(1, 6, 2, 2);
    x.fillGaussian(rng, 0, 1);
    Tensor w_obj(x.shape());
    w_obj.fillGaussian(rng, 0, 1);

    auto objective = [&]() {
        const Tensor y = lrn.forward(x, true);
        double s = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += double(y[i]) * double(w_obj[i]);
        return s;
    };
    objective();
    Tensor dy = w_obj;
    const Tensor dx = lrn.backward(dy);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.size(); i += 3) {
        const float orig = x[i];
        x[i] = orig + eps;
        const double up = objective();
        x[i] = orig - eps;
        const double dn = objective();
        x[i] = orig;
        const double numeric = (up - dn) / (2.0 * eps);
        ASSERT_NEAR(dx[i], numeric, 1e-3 + 0.02 * std::abs(numeric))
            << "coord " << i;
    }
}

// ------------------------------------------------------------ avgpool

TEST(AvgPoolLayer, WindowedAverage)
{
    AvgPoolLayer pool("ap", 2, 2);
    Tensor x(1, 1, 2, 2);
    x[0] = 1;
    x[1] = 2;
    x[2] = 3;
    x[3] = 6;
    const Tensor y = pool.forward(x, false);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPoolLayer, GlobalMode)
{
    AvgPoolLayer pool("gap", 0);
    Rng rng(3);
    Tensor x(2, 4, 7, 7);
    x.fillGaussian(rng, 1.0, 0.5);
    const Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 4, 1, 1}));
    // Per-channel mean.
    double manual = 0.0;
    for (std::size_t h = 0; h < 7; ++h)
        for (std::size_t w = 0; w < 7; ++w)
            manual += x.at(1, 2, h, w);
    EXPECT_NEAR(y.at(1, 2, 0, 0), manual / 49.0, 1e-4);
}

TEST(AvgPoolLayer, BackwardSpreadsUniformly)
{
    AvgPoolLayer pool("ap", 2, 2);
    Tensor x(1, 1, 2, 2);
    x.fill(1.0f);
    pool.forward(x, true);
    Tensor dy(1, 1, 1, 1);
    dy[0] = 4.0f;
    const Tensor dx = pool.backward(dy);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

// --------------------------------------------------- padded max pool

TEST(MaxPoolLayer, PaddedSameSize)
{
    // GoogLeNet inception pool: 3x3 stride 1 pad 1 keeps the size.
    MaxPoolLayer pool("p", 3, 1, 1);
    const Shape out = pool.outputShape(Shape{1, 2, 8, 8});
    EXPECT_EQ(out.h, 8u);
    EXPECT_EQ(out.w, 8u);
}

TEST(MaxPoolLayer, PaddingNeverWins)
{
    MaxPoolLayer pool("p", 3, 1, 1);
    Tensor x(1, 1, 2, 2);
    x.fill(-5.0f); // all negative; zero padding must not leak in
    const Tensor y = pool.forward(x, false);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], -5.0f);
}

// ---------------------------------------------------------- inception

TEST(InceptionLayer, StandardModuleShape)
{
    Rng rng(4);
    auto module = InceptionLayer::standard("3a", 192, 28, 64, 96, 128,
                                           16, 32, 32, rng);
    // GoogLeNet 3a: 64 + 128 + 32 + 32 = 256 channels, same spatial.
    const Shape out = module->outputShape(Shape{1, 192, 28, 28});
    EXPECT_EQ(out.c, 256u);
    EXPECT_EQ(out.h, 28u);
    EXPECT_EQ(module->branchCount(), 4u);
    EXPECT_EQ(module->convLayers().size(), 6u);
}

TEST(InceptionLayer, ForwardConcatenatesBranches)
{
    Rng rng(5);
    auto module = InceptionLayer::standard("t", 4, 6, 2, 2, 3, 2, 2, 2,
                                           rng);
    Tensor x(2, 4, 6, 6);
    x.fillGaussian(rng, 0, 1);
    const Tensor y = module->forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 9, 6, 6}));
    // Branch 0 (1x1 conv + relu) alone must equal channels [0, 2).
    // Recreate with the same seed to get identical weights.
    Rng rng2(5);
    auto module2 = InceptionLayer::standard("t", 4, 6, 2, 2, 3, 2, 2,
                                            2, rng2);
    const Tensor y2 = module2->forward(x, false);
    EXPECT_LT(y.maxAbsDiff(y2), 1e-6);
}

TEST(InceptionLayer, GradientFlowsThroughAllBranches)
{
    Rng rng(6);
    auto module = InceptionLayer::standard("t", 3, 5, 2, 2, 2, 2, 2, 2,
                                           rng);
    Tensor x(1, 3, 5, 5);
    x.fillGaussian(rng, 0, 1);
    const Tensor y = module->forward(x, true);
    Tensor dy(y.shape());
    dy.fill(1.0f);
    for (Param *p : module->params())
        p->zeroGrad();
    const Tensor dx = module->backward(dy);
    EXPECT_EQ(dx.shape(), x.shape());
    // Every conv's weight gradient received signal.
    for (Param *p : module->params()) {
        double mag = 0.0;
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            mag += std::abs(p->grad[i]);
        EXPECT_GT(mag, 0.0);
    }
}

TEST(InceptionLayer, NumericInputGradient)
{
    Rng rng(7);
    auto module = InceptionLayer::standard("t", 2, 4, 1, 1, 2, 1, 1, 1,
                                           rng);
    Tensor x(1, 2, 4, 4);
    x.fillGaussian(rng, 0, 1);
    Tensor w_obj(module->outputShape(x.shape()));
    w_obj.fillGaussian(rng, 0, 1);

    auto objective = [&]() {
        const Tensor y = module->forward(x, true);
        double s = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += double(y[i]) * double(w_obj[i]);
        return s;
    };
    objective();
    Tensor dy = w_obj;
    const Tensor dx = module->backward(dy);

    const float eps = 1e-2f;
    for (std::size_t i = 0; i < x.size(); i += 5) {
        const float orig = x[i];
        x[i] = orig + eps;
        const double up = objective();
        x[i] = orig - eps;
        const double dn = objective();
        x[i] = orig;
        const double numeric = (up - dn) / (2.0 * eps);
        ASSERT_NEAR(dx[i], numeric, 2e-2 * (1.0 + std::abs(numeric)));
    }
}

TEST(MiniInception, TrainsOnSyntheticTask)
{
    SyntheticTaskConfig cfg;
    cfg.difficulty = 0.35;
    cfg.seed = 8;
    SyntheticTask task(cfg);
    Dataset train_set = task.generate(768);
    Dataset test_set = task.generate(192);

    Rng rng(9);
    Network net = makeMiniInception(rng);
    // Inner inception convs are visible for perforation control.
    EXPECT_EQ(net.convLayers().size(), 7u); // stem + 6 module convs

    TrainConfig tc;
    tc.epochs = 5;
    Trainer trainer(net, tc);
    trainer.fit(train_set);
    const EvalResult r = trainer.evaluate(test_set);
    EXPECT_GT(r.accuracy, 0.7);
}

TEST(MiniInception, PerforationWorksInsideBranches)
{
    Rng rng(10);
    Network net = makeMiniInception(rng);
    Tensor x(1, 1, 16, 16);
    x.fillGaussian(rng, 0, 1);
    const Tensor y0 = net.forward(x, false);
    for (ConvLayer *c : net.convLayers())
        c->setComputedPositions(c->fullPositions() / 2);
    const Tensor y1 = net.forward(x, false);
    EXPECT_EQ(y0.shape(), y1.shape());
    net.clearPerforation();
    const Tensor y2 = net.forward(x, false);
    EXPECT_LT(y0.maxAbsDiff(y2), 1e-6);
}

// ------------------------------------------------- interpolation mode

TEST(Interpolation, AverageExactAtComputedPositions)
{
    Rng rng(60);
    ConvSpec s;
    s.name = "c";
    s.inC = 2;
    s.outC = 3;
    s.kernel = 3;
    s.stride = 1;
    s.pad = 1;
    s.inH = s.inW = 12;
    ConvLayer exact(s, rng);
    Rng rng2(60);
    ConvLayer perf(s, rng2); // same weights
    perf.setComputedPositions(36);
    perf.setInterpolationMode(InterpolationMode::Average);

    Tensor x(1, 2, 12, 12);
    x.fillGaussian(rng, 0, 1);
    const Tensor ye = exact.forward(x, false);
    const Tensor yp = perf.forward(x, false);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < yp.size(); ++i)
        hits += std::abs(yp[i] - ye[i]) < 1e-5f;
    EXPECT_GE(hits, 3u * perf.computedPositions());
}

TEST(Interpolation, AverageBeatsNearestOnSmoothSignals)
{
    // On spatially smooth activations, averaging the surrounding
    // computed values reconstructs better than copying the nearest
    // one (the reason Fig. 11 interpolates rather than replicates).
    Rng rng(61);
    ConvSpec s;
    s.name = "c";
    s.inC = 1;
    s.outC = 1;
    s.kernel = 3;
    s.stride = 1;
    s.pad = 1;
    s.inH = s.inW = 16;

    auto reconstruction_error = [&](InterpolationMode mode) {
        Rng wr(62); // identical weights across modes
        ConvLayer exact(s, wr);
        Rng wr2(62);
        ConvLayer perf(s, wr2);
        perf.setComputedPositions(64);
        perf.setInterpolationMode(mode);

        // Smooth input: low-frequency ramp + gentle sinusoid.
        Tensor x(1, 1, 16, 16);
        for (std::size_t y = 0; y < 16; ++y)
            for (std::size_t w = 0; w < 16; ++w)
                x.at(0, 0, y, w) =
                    float(0.2 * y + 0.1 * w +
                          std::sin(0.4 * double(y + w)));
        const Tensor ye = exact.forward(x, false);
        const Tensor yp = perf.forward(x, false);
        double err = 0.0;
        for (std::size_t i = 0; i < ye.size(); ++i)
            err += std::abs(ye[i] - yp[i]);
        return err / double(ye.size());
    };
    EXPECT_LT(reconstruction_error(InterpolationMode::Average),
              reconstruction_error(InterpolationMode::Nearest));
}

TEST(Interpolation, ModePreservedAcrossResampling)
{
    Rng rng(63);
    ConvSpec s;
    s.name = "c";
    s.inC = 1;
    s.outC = 1;
    s.kernel = 3;
    s.stride = 1;
    s.pad = 1;
    s.inH = s.inW = 8;
    ConvLayer layer(s, rng);
    layer.setInterpolationMode(InterpolationMode::Average);
    layer.setComputedPositions(16);
    layer.setComputedPositions(32);
    EXPECT_EQ(layer.interpolationMode(), InterpolationMode::Average);
    Tensor x(1, 1, 8, 8);
    x.fillGaussian(rng, 0, 1);
    EXPECT_EQ(layer.forward(x, false).shape(), (Shape{1, 1, 8, 8}));
}

TEST(MiniAlexNet, TrainsWithLrnAndGroupedConv)
{
    SyntheticTaskConfig cfg;
    cfg.difficulty = 0.35;
    cfg.seed = 40;
    SyntheticTask task(cfg);
    Dataset train_set = task.generate(768);
    Dataset test_set = task.generate(192);

    Rng rng(41);
    Network net = makeMiniAlexNet(rng);
    // Structure: 2 convs (one grouped), 2 fcs.
    EXPECT_EQ(net.convLayers().size(), 2u);
    EXPECT_EQ(net.convLayers()[1]->spec().groups, 2u);
    EXPECT_EQ(net.fcLayers().size(), 2u);

    TrainConfig tc;
    tc.epochs = 5;
    Trainer trainer(net, tc);
    const auto history = trainer.fit(train_set);
    EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
    EXPECT_GT(trainer.evaluate(test_set).accuracy, 0.6);
}

TEST(MiniAlexNet, CompilesAndTunes)
{
    Rng rng(42);
    Network net = makeMiniAlexNet(rng);
    const OfflineCompiler compiler(jetsonTx1());
    const CompiledPlan plan =
        compiler.compileAtBatch(describe(net), 32);
    EXPECT_EQ(plan.layers.size(), 2u);
    // Grouped conv lowers to 2 GEMMs.
    EXPECT_EQ(plan.layers[1].layer.gemmCount(), 2u);
    EXPECT_GT(plan.latencyS(), 0.0);
}

// ------------------------------------------------------ serialization

TEST(Serialize, RoundTripPreservesWeights)
{
    Rng rng(11);
    Network a = makeMiniNet(MiniSize::Medium, rng);
    Rng rng2(12); // different weights
    Network b = makeMiniNet(MiniSize::Medium, rng2);

    Tensor x(2, 1, 16, 16);
    Rng xr(13);
    x.fillGaussian(xr, 0, 1);
    const Tensor ya = a.forward(x, false);
    const Tensor yb_before = b.forward(x, false);
    EXPECT_GT(ya.maxAbsDiff(yb_before), 1e-3);

    const auto bytes = serializeWeights(a);
    ASSERT_TRUE(deserializeWeights(b, bytes));
    const Tensor yb_after = b.forward(x, false);
    EXPECT_LT(ya.maxAbsDiff(yb_after), 1e-7);
}

TEST(Serialize, RejectsWrongArchitecture)
{
    Rng rng(14);
    Network a = makeMiniNet(MiniSize::Small, rng);
    Network b = makeMiniNet(MiniSize::Large, rng);
    const auto bytes = serializeWeights(a);
    EXPECT_FALSE(deserializeWeights(b, bytes));
}

TEST(Serialize, RejectsCorruptedData)
{
    Rng rng(15);
    Network net = makeMiniNet(MiniSize::Small, rng);
    auto bytes = serializeWeights(net);
    EXPECT_FALSE(deserializeWeights(net, {}));
    auto truncated = bytes;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(deserializeWeights(net, truncated));
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_FALSE(deserializeWeights(net, bad_magic));
    // An oversized payload is as suspect as a truncated one.
    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_FALSE(deserializeWeights(net, trailing));
}

TEST(Serialize, FileRoundTrip)
{
    Rng rng(16);
    Network a = makeMiniNet(MiniSize::Small, rng);
    const std::string path = "/tmp/pcnn_weights_test.bin";
    ASSERT_TRUE(saveWeights(a, path));
    Rng rng2(17);
    Network b = makeMiniNet(MiniSize::Small, rng2);
    ASSERT_TRUE(loadWeights(b, path));

    Tensor x(1, 1, 16, 16);
    Rng xr(18);
    x.fillGaussian(xr, 0, 1);
    EXPECT_LT(a.forward(x, false).maxAbsDiff(b.forward(x, false)),
              1e-7);
    std::remove(path.c_str());
}

TEST(Serialize, InceptionRoundTrip)
{
    Rng rng(19);
    Network a = makeMiniInception(rng);
    Rng rng2(20);
    Network b = makeMiniInception(rng2);
    ASSERT_TRUE(deserializeWeights(b, serializeWeights(a)));
    Tensor x(1, 1, 16, 16);
    Rng xr(21);
    x.fillGaussian(xr, 0, 1);
    EXPECT_LT(a.forward(x, false).maxAbsDiff(b.forward(x, false)),
              1e-7);
}

} // namespace
} // namespace pcnn
