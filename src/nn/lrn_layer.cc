#include "nn/lrn_layer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pcnn {

LrnLayer::LrnLayer(std::string name, std::size_t size, double alpha,
                   double beta, double k)
    : layerName(std::move(name)), size(size), alpha(float(alpha)),
      beta(float(beta)), k(float(k))
{
    pcnn_assert(size >= 1, "lrn ", layerName, ": window must be >= 1");
}

void
LrnLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    const Shape &s = x.shape();
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(s);
    // Persistent scratch: the normalization scales are recomputed
    // every call but the buffer grows once and is then reused.
    Tensor &scale = scaleScratch;
    // pcnn-analyze: allow(hot-path-alloc): grow-only
    // persistent scratch (the comment above).
    scale.resize(s);
    const long half = long(size / 2);
    const float a_over_n = alpha / float(size);
    const std::size_t plane = s.h * s.w;

    // Each (n, h) row normalizes independently; every cell keeps its
    // ascending-window double sum, so any partition gives the same
    // bits.
    parallelFor(
        s.n * s.h,
        [&](std::size_t r0, std::size_t r1, std::size_t) {
            for (std::size_t r = r0; r < r1; ++r) {
                const std::size_t n = r / s.h, h = r % s.h;
                const std::size_t row = n * s.c * plane + h * s.w;
                const float *xr = x.data() + row;
                float *sr = scale.data() + row;
                float *yr = y.data() + row;
                for (std::size_t c = 0; c < s.c; ++c) {
                    const long c0 = std::max(long(c) - half, 0L);
                    const long c1 = std::min(long(c) + half, long(s.c) - 1);
                    for (std::size_t w = 0; w < s.w; ++w) {
                        double sum = 0.0;
                        for (long cc = c0; cc <= c1; ++cc) {
                            const double v = xr[std::size_t(cc) * plane + w];
                            sum += v * v;
                        }
                        const float sc = k + a_over_n * float(sum);
                        const std::size_t i = c * plane + w;
                        sr[i] = sc;
                        yr[i] = xr[i] * std::pow(sc, -beta);
                    }
                }
            }
        },
        double(s.size()) * cost::kLrnElem);
    if (train) {
        lastInput = x;
        lastScale = scale;
        haveCache = true;
    }
}

Tensor
LrnLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "lrn ", layerName,
                ": backward without forward(train)");
    const Shape &s = lastInput.shape();
    pcnn_assert(dy.shape() == s, "lrn ", layerName,
                ": gradient shape mismatch");

    // dL/dx_c = dy_c * scale_c^-beta
    //   - (2*alpha*beta/n) * x_c *
    //     sum_{c' : c in window(c')} dy_{c'} * x_{c'} *
    //     scale_{c'}^{-beta-1}
    Tensor dx(s);
    const long half = long(size / 2);
    const float a_over_n = alpha / float(size);

    for (std::size_t n = 0; n < s.n; ++n) {
        for (std::size_t h = 0; h < s.h; ++h) {
            for (std::size_t w = 0; w < s.w; ++w) {
                for (std::size_t c = 0; c < s.c; ++c) {
                    const float sc = lastScale.at(n, c, h, w);
                    double g = double(dy.at(n, c, h, w)) *
                               std::pow(sc, -beta);
                    double cross = 0.0;
                    for (long dc = -half; dc <= half; ++dc) {
                        const long cc = long(c) + dc;
                        if (cc < 0 || cc >= long(s.c))
                            continue;
                        const float sc2 =
                            lastScale.at(n, std::size_t(cc), h, w);
                        cross += double(dy.at(n, std::size_t(cc), h,
                                              w)) *
                                 double(lastInput.at(
                                     n, std::size_t(cc), h, w)) *
                                 std::pow(sc2, -beta - 1.0f);
                    }
                    g -= 2.0 * a_over_n * beta *
                         double(lastInput.at(n, c, h, w)) * cross;
                    dx.at(n, c, h, w) = float(g);
                }
            }
        }
    }
    return dx;
}

} // namespace pcnn
