#include "nn/fc_layer.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/tags.hh"
#include "nn/inference_defaults.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {

FcLayer::FcLayer(std::string name, std::size_t in_features,
                 std::size_t out_features, Rng &rng)
    : layerName(std::move(name)), nIn(in_features), nOut(out_features),
      w(std::make_shared<FcWeights>())
{
    pcnn_assert(nIn > 0 && nOut > 0, "fc ", layerName,
                ": feature counts must be positive");
    w->weight.value.resize(Shape{nOut, nIn, 1, 1});
    w->weight.grad.resize(w->weight.value.shape());
    w->bias.value.resize(Shape{1, nOut, 1, 1});
    w->bias.grad.resize(w->bias.value.shape());
    w->weight.value.fillGaussian(rng, 0.0f,
                                 float(std::sqrt(2.0 / double(nIn))));
    quantOn = inferenceDefaults().quantize;
}

std::unique_ptr<Layer>
FcLayer::cloneShared()
{
    // Freeze first so no mutation can slip between clone and serve.
    w->weight.setShared();
    w->bias.setShared();
    auto clone = std::unique_ptr<FcLayer>(new FcLayer(*this));
    clone->lastInput = Tensor();
    clone->haveCache = false;
    clone->qx.clear(); // activations scratch stays per-replica
    clone->yT.clear();
    return clone;
}

Shape
FcLayer::outputShape(const Shape &in) const
{
    PCNN_CHECK_EQ(in.itemSize(), nIn, "fc ", layerName, ": input ",
                  in.str(), " does not flatten to the weight matrix");
    return Shape{in.n, nOut, 1, 1};
}

std::vector<Param *>
FcLayer::params()
{
    return {&w->weight, &w->bias};
}

double
FcLayer::flopsPerImage(const Shape &in) const
{
    (void)in;
    return 2.0 * double(nIn) * double(nOut);
}

const PackedPanel &
FcLayer::packedWeightT()
{
    if (w->wPack.generation != w->weight.generation()) {
        packWeights(true, nIn, nOut, w->weight.value.data(), w->wPack);
        w->wPack.generation = w->weight.generation();
    }
    return w->wPack;
}

const QuantizedPanel &
FcLayer::quantizedWeight()
{
    if (w->qPack.generation != w->weight.generation()) {
        quantizeWeights(nOut, nIn, w->weight.value.data(), w->qPack);
        w->qPack.generation = w->weight.generation();
    }
    return w->qPack;
}

bool
FcLayer::effectiveQuantized(bool train) const
{
    // Training always runs fp32 (backward needs exact activations).
    return !train && quantOn;
}

void
FcLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    forwardImpl(x, train, false, y);
}

void
FcLayer::forwardFusedReluInto(const Tensor &x, Tensor &y)
{
    forwardImpl(x, false, true, y);
}

PCNN_HOT_PATH
void
FcLayer::forwardImpl(const Tensor &x, bool train, bool fuse_relu,
                     Tensor &y)
{
    const Shape out = outputShape(x.shape());
    const std::size_t batch = x.shape().n;
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(out);

    if (effectiveQuantized(train)) {
        // Int8 route: y^T = W_q x_q^T with the dequant+bias+ReLU
        // epilogue fused into the register tile. The trans pack
        // reads x^T without materializing it; at batch 1 (the
        // serving case) y^T is y, so qgemm stores straight into
        // the output and nothing else runs.
        const QuantizedPanel &qp = quantizedWeight();
        const QuantParams aq =
            haveInQuant ? inQuant
                        : computeQuantParams(x.data(), x.size());
        quantizePackActivations(x.data(), nIn, batch, nIn, true, aq,
                                qx);
        const float *bias = w->bias.value.data();
        if (batch == 1) {
            qgemm(nOut, 1, nIn, qp, qx.data(), aq, y.data(), bias,
                  fuse_relu);
            return;
        }
        // pcnn-analyze: allow(hot-path-alloc): grow-only per-layer
        // staging for the y^T -> y transpose.
        if (yT.size() < nOut * batch)
            yT.resize(nOut * batch);
        qgemm(nOut, batch, nIn, qp, qx.data(), aq, yT.data(), bias,
              fuse_relu);
        for (std::size_t i = 0; i < batch; ++i)
            for (std::size_t f = 0; f < nOut; ++f)
                y.data()[i * nOut + f] = yT[f * batch + i];
        return;
    }

    // Seed every output row with the bias, then accumulate the
    // product on top (beta = 1) so y is streamed through only once:
    // y[batch x nOut] = bias + x[batch x nIn] * W^T[nIn x nOut].
    // W^T comes from the persistent packed panel, so the weight is
    // repacked only when it changes — not on every forward call.
    // A folded ReLU rides the epilogue store pass (bias is already
    // seeded, so the epilogue clamps only) — bitwise equal to a
    // separate ReLU sweep.
    for (std::size_t i = 0; i < batch; ++i)
        std::copy(w->bias.value.data(), w->bias.value.data() + nOut,
                  y.data() + i * nOut);
    Epilogue epi;
    if (fuse_relu)
        epi.op = EpilogueOp::BiasRelu;
    sgemmPrepacked(batch, nOut, nIn, x.data(), packedWeightT(),
                   y.data(), 1.0f, epi);

    if (train) {
        lastInput = x;
        lastInput.reshape(Shape{batch, nIn, 1, 1});
        haveCache = true;
    }
}

Tensor
FcLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "fc ", layerName,
                ": backward without forward(train)");
    const std::size_t batch = dy.shape().n;
    PCNN_CHECK_EQ(dy.shape().itemSize(), nOut, "fc ", layerName,
                  ": gradient ", dy.shape().str(), " mismatch");
    PCNN_CHECK_EQ(batch, lastInput.shape().n, "fc ", layerName,
                  ": gradient batch mismatches cached activation");

    // dW += dY^T * X  (nOut x batch) * (batch x nIn)
    sgemm(true, false, nOut, nIn, batch, dy.data(), lastInput.data(),
          w->weight.grad.data(), 1.0f);

    // db += column sums of dY.
    for (std::size_t i = 0; i < batch; ++i)
        for (std::size_t f = 0; f < nOut; ++f)
            w->bias.grad.data()[f] += dy.data()[i * nOut + f];

    // dX = dY * W  (batch x nOut) * (nOut x nIn)
    Tensor dx(Shape{batch, nIn, 1, 1});
    sgemm(false, false, batch, nIn, nOut, dy.data(),
          w->weight.value.data(), dx.data());
    return dx;
}

} // namespace pcnn
