#include "nn/relu_layer.hh"

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pcnn {

ReluLayer::ReluLayer(std::string name) : layerName(std::move(name)) {}

void
ReluLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    y.resize(x.shape());
    if (train)
        mask.resize(x.shape());
    // The mask branch is hoisted out of the element loop: the
    // inference body is a pure select the compiler turns into
    // branchless vector code, which matters because post-conv signs
    // are effectively random and a per-element branch mispredicts
    // half the time.
    parallelFor(x.size(), [&](std::size_t i0, std::size_t i1,
                              std::size_t) {
        if (train) {
            for (std::size_t i = i0; i < i1; ++i) {
                const bool pos = x[i] > 0.0f;
                y[i] = pos ? x[i] : 0.0f;
                mask[i] = pos ? 1.0f : 0.0f;
            }
        } else {
            const float *xs = x.data() + i0;
            float *ys = y.data() + i0;
            for (std::size_t i = 0; i < i1 - i0; ++i)
                ys[i] = xs[i] > 0.0f ? xs[i] : 0.0f;
        }
    }, double(x.size()) * cost::kSelectElem);
    haveCache = train;
}

Tensor
ReluLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "relu ", layerName,
                ": backward without forward(train)");
    pcnn_assert(dy.shape() == mask.shape(), "relu ", layerName,
                ": gradient shape mismatch");
    Tensor dx(dy.shape());
    parallelFor(dy.size(), [&](std::size_t i0, std::size_t i1,
                               std::size_t) {
        for (std::size_t i = i0; i < i1; ++i)
            dx[i] = dy[i] * mask[i];
    }, double(dy.size()) * cost::kSelectElem);
    return dx;
}

} // namespace pcnn
