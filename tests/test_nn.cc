/**
 * @file
 * Unit tests for the nn module: layers (including perforated
 * convolution), gradients, network plumbing, and the model zoo
 * against the published architecture numbers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "nn/conv_layer.hh"
#include "nn/dropout_layer.hh"
#include "nn/fc_layer.hh"
#include "nn/inference_defaults.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/pool_layer.hh"
#include "nn/relu_layer.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {
namespace {

ConvSpec
spec(std::size_t in_c, std::size_t out_c, std::size_t k,
     std::size_t stride, std::size_t pad, std::size_t hw,
     std::size_t groups = 1)
{
    ConvSpec s;
    s.name = "conv";
    s.inC = in_c;
    s.outC = out_c;
    s.kernel = k;
    s.stride = stride;
    s.pad = pad;
    s.inH = hw;
    s.inW = hw;
    s.groups = groups;
    return s;
}

/** Direct (loop-nest) convolution reference. */
Tensor
refConv(const Tensor &x, const Tensor &w, const Tensor &b,
        const ConvSpec &s)
{
    const std::size_t oh = s.outH(), ow = s.outW();
    const std::size_t in_cg = s.inC / s.groups;
    const std::size_t out_cg = s.outC / s.groups;
    Tensor y(x.shape().n, s.outC, oh, ow);
    for (std::size_t n = 0; n < x.shape().n; ++n) {
        for (std::size_t f = 0; f < s.outC; ++f) {
            const std::size_t g = f / out_cg;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    double acc = b.data()[f];
                    for (std::size_t c = 0; c < in_cg; ++c) {
                        for (std::size_t ky = 0; ky < s.kernel; ++ky) {
                            for (std::size_t kx = 0; kx < s.kernel;
                                 ++kx) {
                                const long iy =
                                    long(oy * s.stride + ky) -
                                    long(s.pad);
                                const long ix =
                                    long(ox * s.stride + kx) -
                                    long(s.pad);
                                if (iy < 0 || iy >= long(s.inH) ||
                                    ix < 0 || ix >= long(s.inW)) {
                                    continue;
                                }
                                acc += double(x.at(n, g * in_cg + c,
                                                   iy, ix)) *
                                       double(w.at(f, c, ky, kx));
                            }
                        }
                    }
                    y.at(n, f, oy, ox) = float(acc);
                }
            }
        }
    }
    return y;
}

// ---------------------------------------------------------- ConvLayer

TEST(ConvLayer, MatchesDirectConvolution)
{
    Rng rng(1);
    ConvLayer layer(spec(3, 8, 3, 1, 1, 7), rng);
    Tensor x(2, 3, 7, 7);
    x.fillGaussian(rng, 0, 1);
    const Tensor y = layer.forward(x, false);

    Tensor w = layer.params()[0]->value;
    Tensor b = layer.params()[1]->value;
    const Tensor ref = refConv(x, w, b, layer.spec());
    EXPECT_LT(y.maxAbsDiff(ref), 1e-4);
}

TEST(ConvLayer, StridedMatchesDirect)
{
    Rng rng(2);
    ConvLayer layer(spec(2, 4, 5, 2, 2, 11), rng);
    Tensor x(1, 2, 11, 11);
    x.fillGaussian(rng, 0, 1);
    const Tensor y = layer.forward(x, false);
    const Tensor ref = refConv(x, layer.params()[0]->value,
                               layer.params()[1]->value, layer.spec());
    EXPECT_LT(y.maxAbsDiff(ref), 1e-4);
}

TEST(ConvLayer, GroupedMatchesDirect)
{
    Rng rng(3);
    ConvLayer layer(spec(4, 6, 3, 1, 1, 5, 2), rng);
    Tensor x(2, 4, 5, 5);
    x.fillGaussian(rng, 0, 1);
    const Tensor y = layer.forward(x, false);
    const Tensor ref = refConv(x, layer.params()[0]->value,
                               layer.params()[1]->value, layer.spec());
    EXPECT_LT(y.maxAbsDiff(ref), 1e-4);
}

TEST(ConvLayer, OutputShape)
{
    Rng rng(4);
    ConvLayer layer(spec(3, 96, 11, 4, 0, 227), rng);
    const Shape out = layer.outputShape(Shape{2, 3, 227, 227});
    EXPECT_EQ(out.n, 2u);
    EXPECT_EQ(out.c, 96u);
    EXPECT_EQ(out.h, 55u);
}

TEST(ConvLayer, PerforationKeepsShape)
{
    Rng rng(5);
    ConvLayer layer(spec(3, 8, 3, 1, 1, 16), rng);
    Tensor x(1, 3, 16, 16);
    x.fillGaussian(rng, 0, 1);
    layer.setComputedPositions(64);
    const Tensor y = layer.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{1, 8, 16, 16}));
    EXPECT_TRUE(layer.perforated());
    EXPECT_NEAR(layer.perforationRate(),
                1.0 - double(layer.computedPositions()) / 256.0, 1e-9);
}

TEST(ConvLayer, PerforationExactAtComputedPositions)
{
    // Values at computed grid points must equal the exact conv.
    Rng rng(6);
    ConvLayer exact(spec(2, 4, 3, 1, 1, 12), rng);
    Rng rng2(6);
    ConvLayer perf(spec(2, 4, 3, 1, 1, 12), rng2);
    Tensor x(1, 2, 12, 12);
    x.fillGaussian(rng, 0, 1);
    // Same seed -> same weights.
    const Tensor ye = exact.forward(x, false);
    perf.setComputedPositions(36);
    const Tensor yp = perf.forward(x, false);

    // Interpolated outputs approximate the exact ones on smooth-ish
    // inputs; at least the overall error stays bounded.
    EXPECT_LT(yp.maxAbsDiff(ye), 10.0);
    // And a decent fraction of positions (the computed ones) match
    // exactly.
    std::size_t exact_hits = 0;
    for (std::size_t i = 0; i < yp.size(); ++i)
        exact_hits += std::abs(yp[i] - ye[i]) < 1e-5f;
    EXPECT_GE(exact_hits, 4u * perf.computedPositions());
}

TEST(ConvLayer, PerforationFullGridIsExact)
{
    Rng rng(7);
    ConvLayer layer(spec(1, 2, 3, 1, 1, 6), rng);
    Tensor x(1, 1, 6, 6);
    x.fillGaussian(rng, 0, 1);
    const Tensor y0 = layer.forward(x, false);
    layer.setComputedPositions(36); // full
    EXPECT_FALSE(layer.perforated());
    const Tensor y1 = layer.forward(x, false);
    EXPECT_LT(y0.maxAbsDiff(y1), 1e-7);
}

TEST(ConvLayer, PerforationRoundTripRestores)
{
    Rng rng(8);
    ConvLayer layer(spec(1, 2, 3, 1, 1, 8), rng);
    Tensor x(1, 1, 8, 8);
    x.fillGaussian(rng, 0, 1);
    const Tensor y0 = layer.forward(x, false);
    layer.setComputedPositions(16);
    layer.setComputedPositions(0); // restore
    const Tensor y1 = layer.forward(x, false);
    EXPECT_LT(y0.maxAbsDiff(y1), 1e-7);
}

TEST(ConvLayerDeath, TrainingWhilePerforatedPanics)
{
    Rng rng(9);
    ConvLayer layer(spec(1, 2, 3, 1, 1, 8), rng);
    Tensor x(1, 1, 8, 8);
    layer.setComputedPositions(16);
    EXPECT_DEATH(layer.forward(x, true), "perforation");
}

// Parameterized sweep: perforation must monotonically reduce the
// number of computed positions and never break shapes.
class PerforationSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PerforationSweep, AchievedCloseToRequested)
{
    Rng rng(10);
    ConvLayer layer(spec(1, 2, 3, 1, 1, 16), rng);
    const std::size_t req = GetParam();
    layer.setComputedPositions(req);
    const std::size_t got = layer.computedPositions();
    EXPECT_GE(got, 1u);
    EXPECT_LE(got, 256u);
    // Achieved count is within a factor of ~2 of the request (grid
    // realization rounds both dimensions).
    EXPECT_LE(got, 2 * req + 8);
    EXPECT_GE(got * 2 + 8, req);

    Tensor x(1, 1, 16, 16);
    x.fillGaussian(rng, 0, 1);
    EXPECT_EQ(layer.forward(x, false).shape(), (Shape{1, 2, 16, 16}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PerforationSweep,
                         ::testing::Values(1, 4, 9, 16, 36, 64, 100,
                                           144, 196, 256));

// -------------------------------------------------- numeric gradients

/** Central-difference gradient check of a layer's parameters. */
void
gradCheck(Layer &layer, const Shape &in_shape, double tol)
{
    Rng rng(77);
    Tensor x(in_shape);
    x.fillGaussian(rng, 0, 1);

    // Scalar objective: sum of outputs weighted by fixed noise.
    Tensor w_obj(layer.outputShape(in_shape));
    w_obj.fillGaussian(rng, 0, 1);

    auto objective = [&]() {
        const Tensor y = layer.forward(x, true);
        double s = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += double(y[i]) * double(w_obj[i]);
        return s;
    };

    // Analytic gradients.
    objective();
    for (Param *p : layer.params())
        p->zeroGrad();
    Tensor dy(w_obj.shape());
    for (std::size_t i = 0; i < dy.size(); ++i)
        dy[i] = w_obj[i];
    layer.backward(dy);

    // Compare a handful of coordinates numerically.
    const float eps = 1e-2f;
    for (Param *p : layer.params()) {
        const std::size_t stride = std::max<std::size_t>(
            1, p->value.size() / 5);
        for (std::size_t i = 0; i < p->value.size(); i += stride) {
            // Direct writes to a Param must announce themselves so
            // packed-weight caches (DESIGN.md §5d) are invalidated.
            const float orig = p->value[i];
            p->value[i] = orig + eps;
            p->markUpdated();
            const double up = objective();
            p->value[i] = orig - eps;
            p->markUpdated();
            const double dn = objective();
            p->value[i] = orig;
            p->markUpdated();
            const double numeric = (up - dn) / (2.0 * eps);
            ASSERT_NEAR(p->grad[i], numeric,
                        tol * (1.0 + std::abs(numeric)))
                << "param coord " << i;
        }
    }
}

TEST(Gradients, ConvLayer)
{
    Rng rng(20);
    ConvLayer layer(spec(2, 3, 3, 1, 1, 5), rng);
    gradCheck(layer, Shape{2, 2, 5, 5}, 2e-2);
}

TEST(Gradients, GroupedConvLayer)
{
    Rng rng(21);
    ConvLayer layer(spec(4, 4, 3, 1, 1, 5, 2), rng);
    gradCheck(layer, Shape{1, 4, 5, 5}, 2e-2);
}

TEST(Gradients, FcLayer)
{
    Rng rng(22);
    FcLayer layer("fc", 12, 5, rng);
    gradCheck(layer, Shape{3, 12, 1, 1}, 2e-2);
}

TEST(Gradients, ConvInputGradient)
{
    // Check dx numerically as well (needed for stacked layers).
    Rng rng(23);
    ConvLayer layer(spec(2, 2, 3, 1, 0, 5), rng);
    Tensor x(1, 2, 5, 5);
    x.fillGaussian(rng, 0, 1);
    Tensor w_obj(layer.outputShape(x.shape()));
    w_obj.fillGaussian(rng, 0, 1);

    auto objective = [&]() {
        const Tensor y = layer.forward(x, true);
        double s = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += double(y[i]) * double(w_obj[i]);
        return s;
    };
    objective();
    Tensor dy = w_obj;
    const Tensor dx = layer.backward(dy);

    const float eps = 1e-2f;
    for (std::size_t i = 0; i < x.size(); i += 7) {
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

// -------------------------------------------------------- other layers

TEST(ReluLayer, ForwardClampsNegatives)
{
    ReluLayer relu("r");
    Tensor x(1, 1, 1, 4);
    x[0] = -1;
    x[1] = 2;
    x[2] = 0;
    x[3] = -0.5;
    const Tensor y = relu.forward(x, false);
    EXPECT_FLOAT_EQ(y[0], 0);
    EXPECT_FLOAT_EQ(y[1], 2);
    EXPECT_FLOAT_EQ(y[2], 0);
}

TEST(ReluLayer, BackwardMasks)
{
    ReluLayer relu("r");
    Tensor x(1, 1, 1, 3);
    x[0] = -1;
    x[1] = 2;
    x[2] = 3;
    relu.forward(x, true);
    Tensor dy(x.shape());
    dy.fill(1.0f);
    const Tensor dx = relu.backward(dy);
    EXPECT_FLOAT_EQ(dx[0], 0);
    EXPECT_FLOAT_EQ(dx[1], 1);
}

TEST(MaxPoolLayer, ForwardPicksMax)
{
    MaxPoolLayer pool("p", 2, 2);
    Tensor x(1, 1, 2, 2);
    x[0] = 1;
    x[1] = 5;
    x[2] = 3;
    x[3] = 2;
    const Tensor y = pool.forward(x, false);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 5);
}

TEST(MaxPoolLayer, OverlappingWindows)
{
    // AlexNet-style 3x3 stride-2 pooling: 5 -> 2.
    MaxPoolLayer pool("p", 3, 2);
    const Shape out = pool.outputShape(Shape{1, 1, 5, 5});
    EXPECT_EQ(out.h, 2u);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax)
{
    MaxPoolLayer pool("p", 2, 2);
    Tensor x(1, 1, 2, 2);
    x[0] = 1;
    x[1] = 5;
    x[2] = 3;
    x[3] = 2;
    pool.forward(x, true);
    Tensor dy(1, 1, 1, 1);
    dy[0] = 7.0f;
    const Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx[1], 7.0f);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(FcLayer, LinearInInput)
{
    Rng rng(30);
    FcLayer fc("fc", 4, 2, rng);
    Tensor x(1, 4, 1, 1);
    x.fill(0.0f);
    const Tensor y0 = fc.forward(x, false);
    x.fill(2.0f);
    const Tensor y2 = fc.forward(x, false);
    x.fill(1.0f);
    const Tensor y1 = fc.forward(x, false);
    // Affine: y2 - y0 == 2*(y1 - y0).
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_NEAR(y2[j] - y0[j], 2.0f * (y1[j] - y0[j]), 1e-4);
}

TEST(DropoutLayer, InferenceIsIdentity)
{
    Rng rng(31);
    DropoutLayer drop("d", 0.5, rng);
    Tensor x(1, 1, 1, 8);
    x.fillGaussian(rng, 0, 1);
    const Tensor y = drop.forward(x, false);
    EXPECT_LT(y.maxAbsDiff(x), 1e-7);
}

TEST(DropoutLayer, TrainingDropsAndScales)
{
    Rng rng(32);
    DropoutLayer drop("d", 0.5, rng);
    Tensor x(1, 1, 1, 1000);
    x.fill(1.0f);
    const Tensor y = drop.forward(x, true);
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        if (y[i] == 0.0f) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(y[i], 2.0f); // inverted scaling
        }
    }
    EXPECT_NEAR(double(zeros) / 1000.0, 0.5, 0.08);
}

// ------------------------------------------------------------ Network

TEST(Network, ForwardShapesCompose)
{
    Rng rng(40);
    Network net = makeMiniNet(MiniSize::Small, rng);
    Tensor x(3, 1, 16, 16);
    x.fillGaussian(rng, 0, 1);
    const Tensor logits = net.forward(x, false);
    EXPECT_EQ(logits.shape(), (Shape{3, 8, 1, 1}));
}

TEST(Network, PredictIsSoftmaxed)
{
    Rng rng(41);
    Network net = makeMiniNet(MiniSize::Small, rng);
    Tensor x(2, 1, 16, 16);
    x.fillGaussian(rng, 0, 1);
    const Tensor p = net.predict(x);
    for (std::size_t i = 0; i < 2; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < 8; ++j)
            s += p.data()[i * 8 + j];
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Network, ConvLayersExposed)
{
    Rng rng(42);
    Network net = makeMiniNet(MiniSize::Large, rng);
    EXPECT_EQ(net.convLayers().size(), 3u);
    EXPECT_EQ(net.fcLayers().size(), 2u);
    EXPECT_EQ(net.convSpecs().size(), 3u);
}

TEST(Network, ClearPerforationResetsAll)
{
    Rng rng(43);
    Network net = makeMiniNet(MiniSize::Medium, rng);
    for (ConvLayer *c : net.convLayers())
        c->setComputedPositions(8);
    net.clearPerforation();
    for (ConvLayer *c : net.convLayers())
        EXPECT_FALSE(c->perforated());
}

TEST(Network, FlopsPerImagePositive)
{
    Rng rng(44);
    Network net = makeMiniNet(MiniSize::Medium, rng);
    EXPECT_GT(net.flopsPerImage(), 1e4);
}

/** Layers and networks start from the environment's defaults, and
 * replicas copy the network's explicit setting. */
TEST(Network, SettingsStartFromEnvDefaultsAndSurviveClone)
{
    const InferenceDefaults &d = inferenceDefaults();
    Rng rng(45);
    Network net = makeMiniInception(rng);
    EXPECT_EQ(net.graphDispatch(), d.graph);
    for (const ConvLayer *c : net.convLayers())
        EXPECT_EQ(c->quantizedEnabled(), d.quantize) << c->name();
    for (const FcLayer *f : net.fcLayers())
        EXPECT_EQ(f->quantizedEnabled(), d.quantize) << f->name();

    for (bool on : {true, false}) {
        net.setGraphDispatch(on);
        EXPECT_EQ(net.cloneSharingWeights().graphDispatch(), on);
    }
}

// ------------------------------------------------- inference defaults

/** Parse the three variables from a fake environment. */
InferenceDefaults
parseFrom(const std::map<std::string, std::string> &env)
{
    return parseInferenceDefaults([&env](const char *name) {
        const auto it = env.find(name);
        return it == env.end() ? nullptr : it->second.c_str();
    });
}

TEST(InferenceDefaults, OneParseRuleForEveryVariable)
{
    const InferenceDefaults unset = parseFrom({});
    EXPECT_FALSE(unset.graph);
    EXPECT_FALSE(unset.quantize);
    EXPECT_FALSE(unset.convAlgo.has_value());

    for (const char *on : {"1", "true"}) {
        const InferenceDefaults d = parseFrom(
            {{"PCNN_GRAPH", on}, {"PCNN_QUANTIZE", on}});
        EXPECT_TRUE(d.graph) << on;
        EXPECT_TRUE(d.quantize) << on;
    }
    // Off spellings and unknown values (warned about) both leave the
    // default, off; for the algorithm, "auto" is one more off value.
    for (const char *off :
         {"", "0", "false", "on", "yes", "ture", "2", "auto"}) {
        const InferenceDefaults d =
            parseFrom({{"PCNN_GRAPH", off},
                       {"PCNN_QUANTIZE", off},
                       {"PCNN_CONV_ALGO", off}});
        EXPECT_FALSE(d.graph) << off;
        EXPECT_FALSE(d.quantize) << off;
        EXPECT_FALSE(d.convAlgo.has_value()) << off;
    }

    const std::pair<const char *, ConvAlgo> algos[] = {
        {"im2col", ConvAlgo::Im2col},
        {"direct1x1", ConvAlgo::Direct1x1},
        {"winograd", ConvAlgo::Winograd}};
    for (const auto &[name, algo] : algos) {
        const InferenceDefaults d = parseFrom({{"PCNN_CONV_ALGO", name}});
        ASSERT_TRUE(d.convAlgo.has_value()) << name;
        EXPECT_EQ(*d.convAlgo, algo) << name;
    }
    for (const char *bad : {"1", "true", "fast"})
        EXPECT_FALSE(
            parseFrom({{"PCNN_CONV_ALGO", bad}}).convAlgo.has_value())
            << bad;
}

// ---------------------------------------------------------- model zoo

TEST(ModelZoo, AlexNetLayerShapes)
{
    const NetDescriptor d = alexNet();
    ASSERT_EQ(d.convs.size(), 5u);
    // Table IV: CONV2's per-group GEMM result matrix is 128 x 729.
    const GemmShape conv2 = d.convs[1].gemmShape(1);
    EXPECT_EQ(conv2.m, 128u);
    EXPECT_EQ(conv2.n, 729u);
    EXPECT_EQ(conv2.k, 1200u);
    // Table IV: CONV5 is 128 x 169.
    const GemmShape conv5 = d.convs[4].gemmShape(1);
    EXPECT_EQ(conv5.m, 128u);
    EXPECT_EQ(conv5.n, 169u);
    EXPECT_EQ(conv5.k, 1728u);
}

TEST(ModelZoo, AlexNetParameterCount)
{
    // ~61M parameters in the published network.
    const double params = double(alexNet().weightCount());
    EXPECT_NEAR(params, 61e6, 2e6);
}

TEST(ModelZoo, AlexNetFlops)
{
    // ~1.4 GFLOP per image (2x the ~0.7 GMAC literature figure).
    const double flops = alexNet().totalFlopsPerImage();
    EXPECT_GT(flops, 1.2e9);
    EXPECT_LT(flops, 1.7e9);
}

TEST(ModelZoo, Vgg16Flops)
{
    // The paper's intro: VGGNet needs ~1.5e10 multiplications, i.e.
    // ~3e10 FLOPs per image.
    const double flops = vgg16().totalFlopsPerImage();
    EXPECT_GT(flops, 2.7e10);
    EXPECT_LT(flops, 3.4e10);
}

TEST(ModelZoo, Vgg16ParameterCount)
{
    EXPECT_NEAR(double(vgg16().weightCount()), 138e6, 4e6);
}

TEST(ModelZoo, GoogLeNetStructure)
{
    const NetDescriptor d = googleNet();
    // conv1 + conv2(2) + 9 inceptions x 6 branches = 57 conv layers.
    EXPECT_EQ(d.convs.size(), 57u);
    // ~7M parameters, ~3-3.4 GFLOPs.
    EXPECT_LT(double(d.weightCount()), 9e6);
    EXPECT_GT(d.totalFlopsPerImage(), 2.5e9);
    EXPECT_LT(d.totalFlopsPerImage(), 4e9);
}

TEST(ModelZoo, PaperBatchSizes)
{
    // Section III.B: 128 for AlexNet, 64 for GoogLeNet, 32 for VGGNet.
    EXPECT_EQ(alexNet().paperBatch, 128u);
    EXPECT_EQ(googleNet().paperBatch, 64u);
    EXPECT_EQ(vgg16().paperBatch, 32u);
}

TEST(ModelZoo, MiniNetCapacitiesOrdered)
{
    Rng rng(50);
    Network s = makeMiniNet(MiniSize::Small, rng);
    Network m = makeMiniNet(MiniSize::Medium, rng);
    Network l = makeMiniNet(MiniSize::Large, rng);
    EXPECT_LT(s.flopsPerImage(), m.flopsPerImage());
    EXPECT_LT(m.flopsPerImage(), l.flopsPerImage());
}

TEST(ModelZoo, DescribeRoundTrip)
{
    Rng rng(51);
    Network net = makeMiniNet(MiniSize::Medium, rng);
    const NetDescriptor d = describe(net);
    EXPECT_EQ(d.convs.size(), 2u);
    EXPECT_EQ(d.fcs.size(), 2u);
    EXPECT_EQ(d.fcs[0].second, 48u);
}

} // namespace
} // namespace pcnn
