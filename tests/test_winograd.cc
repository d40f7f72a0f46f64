/**
 * @file
 * Tests for the winograd F(2x2,3x3) conv route and its dispatch
 * plumbing: numerical agreement with a direct-convolution reference
 * under a declared tolerance budget, bitwise determinism across
 * thread counts, odd-extent edge tiles, grouped convolution, the
 * pre-transformed weight cache's generation protocol, and the
 * precedence rules of effectiveAlgo() (force > pin > cost model,
 * training/perforation always exact).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "common/parallel.hh"
#include "common/random.hh"
#include "nn/conv_layer.hh"
#include "nn/inference_defaults.hh"
#include "tensor/tensor.hh"
#include "tensor/winograd.hh"
#include "tolerance.hh"

namespace pcnn {
namespace {

// Budget for winograd vs. a double-accumulated direct convolution:
// the transform evaluates the same sums in a different association
// order, so roundoff differs by a few ULPs per element — and near
// zero the float-accumulated routes see catastrophic cancellation
// the double reference does not, hence the absolute floor (elements
// below it are judged on absolute error / floor instead). 1e-3
// relative with a 1e-2 floor means ~0.1% on well-scaled values and
// 1e-5 absolute near zero; a transform or tiling bug overshoots
// both by orders of magnitude. EXPERIMENTS.md documents the budget.
constexpr double kWinoRelBudget = 1e-3;
constexpr double kAbsFloor = 1e-2;

ConvLayer
makeConv(Rng &rng, std::size_t in_c, std::size_t out_c,
         std::size_t kernel, std::size_t stride, std::size_t pad,
         std::size_t h, std::size_t w, std::size_t groups = 1)
{
    ConvSpec s;
    s.name = "w";
    s.inC = in_c;
    s.outC = out_c;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = pad;
    s.inH = h;
    s.inW = w;
    s.groups = groups;
    return ConvLayer(s, rng);
}

Tensor
randomInput(std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::uint64_t seed)
{
    Tensor x(n, c, h, w);
    Rng rng(seed);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = float(rng.uniform(-1.0, 1.0));
    return x;
}

/**
 * Direct 7-loop convolution with double accumulation: independent of
 * every lowering under test (no im2col, no SGEMM, no transforms).
 */
Tensor
directReference(ConvLayer &layer, const Tensor &x)
{
    const ConvSpec &s = layer.spec();
    const std::size_t in_cg = s.inC / s.groups;
    const std::size_t out_cg = s.outC / s.groups;
    const std::size_t oh = s.outH(), ow = s.outW();
    const Tensor &wt = layer.params()[0]->value;
    const Tensor &b = layer.params()[1]->value;
    Tensor y(x.shape().n, s.outC, oh, ow);
    for (std::size_t item = 0; item < x.shape().n; ++item)
        for (std::size_t g = 0; g < s.groups; ++g)
            for (std::size_t oc = 0; oc < out_cg; ++oc) {
                const float *wk =
                    wt.data() + (g * out_cg + oc) * in_cg *
                                    s.kernel * s.kernel;
                float *yp =
                    y.data() +
                    ((item * s.outC + g * out_cg + oc) * oh) * ow;
                for (std::size_t oy = 0; oy < oh; ++oy)
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        double acc = b[g * out_cg + oc];
                        for (std::size_t ic = 0; ic < in_cg; ++ic)
                            for (std::size_t ky = 0; ky < s.kernel;
                                 ++ky)
                                for (std::size_t kx = 0;
                                     kx < s.kernel; ++kx) {
                                    const std::ptrdiff_t iy =
                                        std::ptrdiff_t(
                                            oy * s.stride + ky) -
                                        std::ptrdiff_t(s.pad);
                                    const std::ptrdiff_t ix =
                                        std::ptrdiff_t(
                                            ox * s.stride + kx) -
                                        std::ptrdiff_t(s.pad);
                                    if (iy < 0 ||
                                        iy >= std::ptrdiff_t(s.inH) ||
                                        ix < 0 ||
                                        ix >= std::ptrdiff_t(s.inW))
                                        continue;
                                    acc +=
                                        double(wk[(ic * s.kernel +
                                                   ky) *
                                                      s.kernel +
                                                  kx]) *
                                        double(
                                            x[((item * s.inC +
                                                g * in_cg + ic) *
                                                   s.inH +
                                               std::size_t(iy)) *
                                                  s.inW +
                                              std::size_t(ix)]);
                                }
                        yp[oy * ow + ox] = float(acc);
                    }
            }
    return y;
}

// --------------------------------------------- numerical agreement

/**
 * Winograd output within budget of the direct reference across a
 * shape sweep that exercises even grids, odd-extent tail tiles in
 * both axes, rectangular inputs, and pad-0 geometries. The im2col
 * route is held to the same budget as a cross-check of the
 * reference itself.
 */
TEST(Winograd, MatchesDirectReferenceAcrossShapes)
{
    struct Case
    {
        std::size_t h, w, pad;
    };
    const Case cases[] = {{8, 8, 1}, {7, 7, 1}, {9, 5, 1},
                          {6, 6, 0}, {5, 5, 0}, {4, 4, 1},
                          {3, 3, 1}};
    for (const Case &c : cases) {
        Rng rng(100 + c.h * 10 + c.w + c.pad);
        ConvLayer layer = makeConv(rng, 5, 7, 3, 1, c.pad, c.h, c.w);
        ASSERT_TRUE(layer.spec().algoEligible(ConvAlgo::Winograd));
        const Tensor x = randomInput(2, 5, c.h, c.w, 7 * c.h + c.w);
        const Tensor want = directReference(layer, x);

        layer.setAlgo(ConvAlgo::Winograd);
        const Tensor wino = layer.forward(x, false);
        EXPECT_TRUE(
            allClose(want, wino, kWinoRelBudget, kAbsFloor))
            << "winograd h=" << c.h << " w=" << c.w
            << " pad=" << c.pad;

        layer.setAlgo(ConvAlgo::Im2col);
        const Tensor exact = layer.forward(x, false);
        EXPECT_TRUE(
            allClose(want, exact, kWinoRelBudget, kAbsFloor))
            << "im2col h=" << c.h << " w=" << c.w
            << " pad=" << c.pad;
    }
}

/** Grouped winograd transforms each group's channel slice alone. */
TEST(Winograd, GroupedMatchesDirectReference)
{
    Rng rng(41);
    ConvLayer layer =
        makeConv(rng, 6, 8, 3, 1, 1, 7, 7, /*groups=*/2);
    layer.setAlgo(ConvAlgo::Winograd);
    const Tensor x = randomInput(3, 6, 7, 7, 42);
    const Tensor want = directReference(layer, x);
    const Tensor got = layer.forward(x, false);
    EXPECT_TRUE(allClose(want, got, kWinoRelBudget, kAbsFloor));
}

// ------------------------------------------------------ determinism

/**
 * The winograd route honors the substrate's determinism contract:
 * bitwise-identical output at every PCNN_THREADS value (tiles are
 * disjoint, per-tile accumulation is a pure k-walk).
 */
TEST(Winograd, BitwiseIdenticalAcrossThreadCounts)
{
    Rng rng(55);
    ConvLayer layer = makeConv(rng, 8, 6, 3, 1, 1, 9, 7);
    layer.setAlgo(ConvAlgo::Winograd);
    const Tensor x = randomInput(2, 8, 9, 7, 56);

    const std::size_t saved = threadCount();
    setThreadCount(1);
    const Tensor base = layer.forward(x, false);
    for (std::size_t threads : {2u, 4u}) {
        setThreadCount(threads);
        const Tensor got = layer.forward(x, false);
        ASSERT_EQ(base.size(), got.size());
        for (std::size_t i = 0; i < base.size(); ++i)
            EXPECT_EQ(base[i], got[i])
                << "threads=" << threads << " i=" << i;
    }
    setThreadCount(saved);
}

// ------------------------------------------- weight-cache protocol

/**
 * The pre-transformed U^T panels must notice weight updates via the
 * Param generation counter: warm the cache, perturb the weights,
 * and the next forward must track the new values (a stale panel
 * would be off by the perturbation, far beyond the budget).
 */
TEST(Winograd, WeightUpdateInvalidatesTransformCache)
{
    Rng rng(61);
    ConvLayer layer = makeConv(rng, 4, 4, 3, 1, 1, 8, 8);
    layer.setAlgo(ConvAlgo::Winograd);
    const Tensor x = randomInput(1, 4, 8, 8, 62);
    (void)layer.forward(x, false); // warm the transform cache

    Param *w = layer.params()[0];
    for (std::size_t i = 0; i < w->value.size(); i += 3)
        w->value[i] += 0.5f;
    w->markUpdated();

    const Tensor want = directReference(layer, x);
    const Tensor got = layer.forward(x, false);
    EXPECT_TRUE(allClose(want, got, kWinoRelBudget, kAbsFloor));
}

// --------------------------------------------- dispatch precedence

TEST(Winograd, EligibilityPredicates)
{
    Rng rng(71);
    const ConvLayer k3 = makeConv(rng, 4, 4, 3, 1, 1, 8, 8);
    EXPECT_TRUE(k3.spec().algoEligible(ConvAlgo::Im2col));
    EXPECT_FALSE(k3.spec().algoEligible(ConvAlgo::Direct1x1));
    EXPECT_TRUE(k3.spec().algoEligible(ConvAlgo::Winograd));

    const ConvLayer k3s2 = makeConv(rng, 4, 4, 3, 2, 1, 8, 8);
    EXPECT_FALSE(k3s2.spec().algoEligible(ConvAlgo::Winograd));

    const ConvLayer k1 = makeConv(rng, 4, 4, 1, 1, 0, 8, 8);
    EXPECT_TRUE(k1.spec().algoEligible(ConvAlgo::Direct1x1));
    EXPECT_FALSE(k1.spec().algoEligible(ConvAlgo::Winograd));

    const ConvLayer k5 = makeConv(rng, 4, 4, 5, 1, 2, 8, 8);
    EXPECT_FALSE(k5.spec().algoEligible(ConvAlgo::Winograd));
    EXPECT_FALSE(k5.spec().algoEligible(ConvAlgo::Direct1x1));
}

/** Training and perforated forwards always take the exact route. */
TEST(Winograd, TrainingAndPerforationForceExactRoute)
{
    Rng rng(81);
    ConvLayer layer = makeConv(rng, 4, 4, 3, 1, 1, 8, 8);
    layer.setAlgo(ConvAlgo::Winograd);
    EXPECT_EQ(layer.effectiveAlgo(false), ConvAlgo::Winograd);
    EXPECT_EQ(layer.effectiveAlgo(true), ConvAlgo::Im2col);

    layer.setComputedPositions(layer.fullPositions() / 2);
    EXPECT_EQ(layer.effectiveAlgo(false), ConvAlgo::Im2col);
    layer.setComputedPositions(0); // back to the full grid
    EXPECT_EQ(layer.effectiveAlgo(false), ConvAlgo::Winograd);
}

/**
 * The PCNN_CONV_ALGO default pins each layer it is eligible for at
 * construction, leaves the others to the cost model, and an explicit
 * pin replaces it. Holds at every value of the variable.
 */
TEST(Winograd, ForcedAlgoPrecedence)
{
    const std::optional<ConvAlgo> env = inferenceDefaults().convAlgo;
    Rng rng(91);
    ConvLayer layer = makeConv(rng, 4, 4, 3, 1, 1, 8, 8);
    ConvLayer big = makeConv(rng, 4, 4, 5, 1, 2, 8, 8);
    for (const ConvLayer *l : {&layer, &big}) {
        const bool pinned = env && l->spec().algoEligible(*env);
        EXPECT_EQ(l->effectiveAlgo(false),
                  pinned ? *env : selectConvAlgo(l->spec()))
            << l->spec().kernel << "x" << l->spec().kernel;
    }

    for (ConvAlgo a : {ConvAlgo::Winograd, ConvAlgo::Im2col}) {
        layer.setAlgo(a);
        EXPECT_EQ(layer.effectiveAlgo(false), a);
    }
}

/**
 * The construction-default route computes the right numbers; under
 * PCNN_CONV_ALGO=winograd (the CI algo leg) that is the winograd one.
 */
TEST(Winograd, ForcedWinogradMatchesReference)
{
    Rng rng(95);
    ConvLayer layer = makeConv(rng, 4, 6, 3, 1, 1, 7, 7);
    const Tensor x = randomInput(2, 4, 7, 7, 96);
    const Tensor want = directReference(layer, x);

    const Tensor got = layer.forward(x, false);
    EXPECT_TRUE(allClose(want, got, kWinoRelBudget, kAbsFloor));
}

// ------------------------------------------------------ cost model

TEST(Winograd, CostModelSelectsEligibleAlgo)
{
    Rng rng(99);
    // Pure channel mixer: the 1x1 shortcut is free and exact.
    EXPECT_EQ(selectConvAlgo(
                  makeConv(rng, 16, 16, 1, 1, 0, 8, 8).spec()),
              ConvAlgo::Direct1x1);
    // Deep 3x3 stride-1: winograd's 2.25x MAC saving dominates the
    // transform overhead by orders of magnitude at this size.
    EXPECT_EQ(selectConvAlgo(
                  makeConv(rng, 64, 64, 3, 1, 1, 56, 56).spec()),
              ConvAlgo::Winograd);
    // Strided large kernel: only im2col is eligible.
    EXPECT_EQ(selectConvAlgo(
                  makeConv(rng, 3, 32, 11, 4, 0, 227, 227).spec()),
              ConvAlgo::Im2col);
    // Whatever it picks must be eligible for the geometry.
    const ConvSpec s = makeConv(rng, 2, 2, 3, 1, 1, 4, 4).spec();
    EXPECT_TRUE(s.algoEligible(selectConvAlgo(s)));
}

/** Tile-count helpers agree with the clipped-tile definition. */
TEST(Winograd, TileGeometryHelpers)
{
    Rng rng(103);
    const ConvSpec even = makeConv(rng, 2, 2, 3, 1, 1, 8, 8).spec();
    EXPECT_EQ(even.outH(), 8u);
    EXPECT_EQ(even.winogradTiles(), 4u * 4u);

    const ConvSpec odd = makeConv(rng, 2, 2, 3, 1, 1, 7, 5).spec();
    EXPECT_EQ(odd.outH(), 7u);
    EXPECT_EQ(odd.outW(), 5u);
    EXPECT_EQ(odd.winogradTiles(), 4u * 3u);

    const GemmShape g = odd.winogradGemmShape(3);
    EXPECT_EQ(g.m, 3u * 4u * 3u);
    EXPECT_EQ(g.n, 2u);
    EXPECT_EQ(g.k, 2u);
}

} // namespace
} // namespace pcnn
