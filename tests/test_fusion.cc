/**
 * @file
 * Tests for the inference ReLU-folding peephole and the fused SGEMM
 * epilogues behind it. The folding contract (DESIGN.md §5e): at
 * inference, a Conv/Fc layer followed by a ReLU layer runs its
 * fused-epilogue forward and the ReLU layer is skipped; the result
 * is BITWISE identical to the unfolded pair, because the epilogue
 * clamps exactly the sums the separate ReLU pass would have seen.
 * Training-mode forwards never fold (the ReLU layer must cache its
 * mask for backward). The unfolded reference runs every layer's own
 * forwardInto in order, inception branches included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "nn/conv_layer.hh"
#include "nn/fc_layer.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/relu_layer.hh"
#include "tensor/tensor.hh"
#include "tolerance.hh"
#include "train/sgd.hh"

namespace pcnn {
namespace {

ConvSpec
convSpec(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::size_t hw)
{
    ConvSpec s;
    s.name = "c";
    s.inC = in_c;
    s.outC = out_c;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = pad;
    s.inH = hw;
    s.inW = hw;
    return s;
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
 * One layer chain run layer by layer, never folding a ReLU. Inception
 * modules are rebuilt from their branches, so their own training
 * caches stay empty.
 */
template <typename Chain>
Tensor
unfoldedChain(const Chain &chain, const Tensor &x, bool train)
{
    Tensor cur = x;
    for (const auto &layer : chain) {
        Tensor next;
        if (auto *inc = dynamic_cast<InceptionLayer *>(&*layer)) {
            // The module's own forwardInto folds its branch chains;
            // rebuild its concat from unfolded branches instead.
            Tensor y(inc->outputShape(cur.shape()));
            const std::size_t n = cur.shape().n;
            std::size_t off = 0;
            for (const InceptionLayer::Branch &b : inc->branchList()) {
                const Tensor part = unfoldedChain(b, cur, train);
                const std::size_t item = part.shape().itemSize();
                for (std::size_t i = 0; i < n; ++i)
                    std::copy(part.data() + i * item,
                              part.data() + (i + 1) * item,
                              y.data() + i * y.shape().itemSize() + off);
                off += item;
            }
            next = std::move(y);
        } else {
            layer->forwardInto(cur, train, next);
        }
        cur = std::move(next);
    }
    return cur;
}

/** `net`'s logits with no ReLU folded anywhere. */
Tensor
unfoldedForward(Network &net, const Tensor &x, bool train = false)
{
    std::vector<Layer *> chain;
    for (std::size_t i = 0; i < net.size(); ++i)
        chain.push_back(&net.layer(i));
    return unfoldedChain(chain, x, train);
}

/** Pin every conv layer, inception branches included, to `algo`. */
void
pinAll(Network &net, ConvAlgo algo)
{
    for (ConvLayer *c : net.convLayers())
        c->setAlgo(algo);
}

void
expectBitwise(const Tensor &want, const Tensor &got,
              const char *what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(want[i], got[i]) << what << " i=" << i;
}

/** Folded vs. unfolded conv+relu on one pinned algorithm. */
void
checkConvReluFold(ConvAlgo algo, std::size_t kernel,
                  std::size_t pad)
{
    Rng rng(7 + std::size_t(algo));
    Network net("t", Shape{1, 4, 8, 8});
    net.add<ConvLayer>(convSpec(4, 6, kernel, 1, pad, 8), rng);
    net.add<ReluLayer>("relu0");
    net.convLayers()[0]->setAlgo(algo);

    const Tensor x = randomInput(2, 4, 8, 8, 11);
    const Tensor unfolded = unfoldedForward(net, x);
    const Tensor folded = net.forward(x, false);
    expectBitwise(unfolded, folded, convAlgoName(algo));

    // The clamp really ran: a ReLU'd output has no negatives.
    for (std::size_t i = 0; i < folded.size(); ++i)
        ASSERT_GE(folded[i], 0.0f) << "i=" << i;
}

TEST(Fusion, ConvReluFoldBitwiseIm2col)
{
    checkConvReluFold(ConvAlgo::Im2col, 3, 1);
}

TEST(Fusion, ConvReluFoldBitwiseDirect1x1)
{
    checkConvReluFold(ConvAlgo::Direct1x1, 1, 0);
}

TEST(Fusion, ConvReluFoldBitwiseWinograd)
{
    // Winograd computes the same sums pre-clamp in its own order, so
    // folded-vs-unfolded is bitwise *within* the winograd route too.
    checkConvReluFold(ConvAlgo::Winograd, 3, 1);
}

TEST(Fusion, FcReluFoldBitwise)
{
    Rng rng(21);
    Network net("t", Shape{1, 3, 4, 4});
    net.add<FcLayer>("fc0", 3 * 4 * 4, 10, rng);
    net.add<ReluLayer>("relu0");

    const Tensor x = randomInput(3, 3, 4, 4, 22);
    const Tensor unfolded = unfoldedForward(net, x);
    const Tensor folded = net.forward(x, false);
    expectBitwise(unfolded, folded, "fc");
    for (std::size_t i = 0; i < folded.size(); ++i)
        ASSERT_GE(folded[i], 0.0f);
}

/**
 * A folded pair inside a whole network: MiniVgg has conv+relu and
 * fc+relu pairs plus pooling between them. Pinning the exact
 * algorithm keeps the comparison bitwise end to end.
 */
TEST(Fusion, MiniVggFoldedVsUnfoldedBitwiseOnExactRoute)
{
    Rng rng(31);
    Network net = makeMiniVgg(rng);
    pinAll(net, ConvAlgo::Im2col);
    const Tensor x = randomInput(2, 1, 16, 16, 32);

    const Tensor unfolded = unfoldedForward(net, x);
    const Tensor folded = net.forward(x, false);
    expectBitwise(unfolded, folded, "minivgg");
}

/** Same end-to-end check under cost-model dispatch: tolerance. */
TEST(Fusion, MiniVggFoldedVsUnfoldedAutoDispatch)
{
    Rng rng(35);
    Network net = makeMiniVgg(rng);
    const Tensor x = randomInput(2, 1, 16, 16, 36);

    const Tensor unfolded = unfoldedForward(net, x);
    const Tensor folded = net.forward(x, false);
    // Same algorithm either way, so still bitwise in practice; hold
    // it to the winograd budget to keep the test pinned to the
    // documented contract rather than an implementation detail.
    EXPECT_TRUE(allClose(unfolded, folded, 1e-3, 1e-2));
}

/** Inception branch chains fold their conv+relu pairs too. */
TEST(Fusion, MiniInceptionFoldedVsUnfoldedBitwise)
{
    Rng rng(41);
    Network net = makeMiniInception(rng);
    pinAll(net, ConvAlgo::Im2col);
    const Tensor x = randomInput(1, 1, 16, 16, 42);

    const Tensor unfolded = unfoldedForward(net, x);
    const Tensor folded = net.forward(x, false);
    expectBitwise(unfolded, folded, "miniinception");
}

/**
 * Training-mode forwards never fold: the ReLU layers must see the
 * pre-activation values and cache their masks, so a full
 * forward/backward cycle works, and the training forward is bitwise
 * equal to the layer-by-layer chain.
 */
TEST(Fusion, TrainingNeverFolds)
{
    Rng rng_a(51);
    Network a = makeMiniVgg(rng_a);
    pinAll(a, ConvAlgo::Im2col);
    Rng rng_b(51);
    Network b = makeMiniVgg(rng_b);
    pinAll(b, ConvAlgo::Im2col);
    const Tensor x = randomInput(2, 1, 16, 16, 52);

    const Tensor la = a.forward(x, true);
    const Tensor lb = unfoldedForward(b, x, true);
    expectBitwise(lb, la, "train forward");

    // Backward through the (not-folded) ReLU layers must work and
    // produce identical gradients on both networks.
    a.backward(la);
    b.backward(lb);
    auto pa = a.params();
    auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->grad.size(), pb[i]->grad.size());
        for (std::size_t j = 0; j < pa[i]->grad.size(); ++j)
            ASSERT_EQ(pa[i]->grad[j], pb[i]->grad[j])
                << "param " << i << " j=" << j;
    }
}

} // namespace
} // namespace pcnn
