#include "nn/pool_layer.hh"

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pcnn {

MaxPoolLayer::MaxPoolLayer(std::string name, std::size_t window,
                           std::size_t stride, std::size_t pad)
    : layerName(std::move(name)), window(window), stride(stride),
      pad(pad)
{
    pcnn_assert(window > 0 && stride > 0,
                "pool ", layerName, ": window/stride must be positive");
    pcnn_assert(pad < window,
                "pool ", layerName, ": padding must be under window");
}

Shape
MaxPoolLayer::outputShape(const Shape &in) const
{
    pcnn_assert(in.h + 2 * pad >= window && in.w + 2 * pad >= window,
                "pool ", layerName, ": input ", in.str(),
                " smaller than window ", window);
    return Shape{in.n, in.c, (in.h + 2 * pad - window) / stride + 1,
                 (in.w + 2 * pad - window) / stride + 1};
}

void
MaxPoolLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    const Shape out = outputShape(x.shape());
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(out);
    if (train) {
        inShape = x.shape();
        // pcnn-analyze: allow(hot-path-alloc): training-only
        // bookkeeping; inference never takes this branch.
        argmaxIdx.assign(out.size(), 0);
    }

    const Shape &in = x.shape();
    // Each (n, c) plane pools independently — fan out over the pool.
    // The valid tap window is clipped once per output coordinate
    // (padding never wins), so the inner loops scan raw rows with no
    // per-tap bounds tests; the scan order over valid taps is the
    // same (ky, kx) order as before, so `v > best` picks identical
    // winners. Inference skips the argmax bookkeeping entirely.
    parallelFor(in.n * in.c, [&](std::size_t p0, std::size_t p1,
                                 std::size_t) {
        for (std::size_t plane = p0; plane < p1; ++plane) {
            const float *src = x.data() + plane * in.h * in.w;
            float *dst = y.data() + plane * out.h * out.w;
            for (std::size_t oy = 0; oy < out.h; ++oy) {
                const std::size_t y0 =
                    oy * stride >= pad ? oy * stride - pad : 0;
                const std::size_t y1 = std::min<std::size_t>(
                    in.h, oy * stride + window - pad);
                for (std::size_t ox = 0; ox < out.w; ++ox) {
                    const std::size_t x0 =
                        ox * stride >= pad ? ox * stride - pad : 0;
                    const std::size_t x1 = std::min<std::size_t>(
                        in.w, ox * stride + window - pad);
                    float best = -1e30f;
                    std::size_t best_idx = 0;
                    for (std::size_t iy = y0; iy < y1; ++iy) {
                        const float *row = src + iy * in.w;
                        if (train) {
                            for (std::size_t ix = x0; ix < x1; ++ix) {
                                if (row[ix] > best) {
                                    best = row[ix];
                                    best_idx = plane * in.h * in.w +
                                               iy * in.w + ix;
                                }
                            }
                        } else {
                            for (std::size_t ix = x0; ix < x1; ++ix)
                                best = row[ix] > best ? row[ix] : best;
                        }
                    }
                    dst[oy * out.w + ox] = best;
                    if (train)
                        argmaxIdx[plane * out.h * out.w + oy * out.w +
                                  ox] = best_idx;
                }
            }
        }
    }, double(out.size()) * double(window * window) * cost::kPoolTap);
    haveCache = train;
}

Tensor
MaxPoolLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "pool ", layerName,
                ": backward without forward(train)");
    Tensor dx(inShape);
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx[argmaxIdx[i]] += dy[i];
    return dx;
}

} // namespace pcnn
