/**
 * @file
 * Winograd F(2x2,3x3) convolution: transforms + batched tile-GEMM.
 *
 * Transform matrices (Lavin & Gray, "Fast Algorithms for
 * Convolutional Neural Networks"):
 *
 *   B^T = | 1  0 -1  0 |   G = | 1    0    0  |   A^T = | 1 1  1  0 |
 *         | 0  1  1  0 |       | 1/2  1/2  1/2|         | 0 1 -1 -1 |
 *         | 0 -1  1  0 |       | 1/2 -1/2  1/2|
 *         | 0  1  0 -1 |       | 0    0    1  |
 *
 * All three are applied as two 1-D passes (rows then columns); the
 * row/column passes below are the literal matrix products written
 * out, so each transform costs only adds (and two halvings on the
 * weight side).
 */

#include "tensor/winograd.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/check.hh"
#include "common/parallel.hh"
#include "common/tags.hh"

namespace pcnn {

namespace {

/** One row/column pass of B^T (and of B, which is its transpose
 *  applied from the right): [d0-d2, d1+d2, d2-d1, d1-d3]. */
inline void
inputPass(const float *s, std::size_t ss, float *t, std::size_t ts)
{
    const float d0 = s[0 * ss], d1 = s[1 * ss], d2 = s[2 * ss],
                d3 = s[3 * ss];
    t[0 * ts] = d0 - d2;
    t[1 * ts] = d1 + d2;
    t[2 * ts] = d2 - d1;
    t[3 * ts] = d1 - d3;
}

/** One row/column pass of A^T: [m0+m1+m2, m1-m2-m3]. */
inline void
outputPass(const float *s, std::size_t ss, float *t, std::size_t ts)
{
    const float m0 = s[0 * ss], m1 = s[1 * ss], m2 = s[2 * ss],
                m3 = s[3 * ss];
    t[0 * ts] = m0 + m1 + m2;
    t[1 * ts] = m1 - m2 - m3;
}

/// process-wide weight-transform counter (see header)
std::atomic<std::uint64_t> &
winoPackCounter()
{
    static std::atomic<std::uint64_t> count{0};
    return count;
}

} // namespace

std::uint64_t
winogradPackCount()
{
    return winoPackCounter().load(std::memory_order_relaxed);
}

void
winogradTransformWeights(const float *w, std::size_t in_c,
                         std::size_t out_c, WinogradWeights &out)
{
    PCNN_CHECK(in_c > 0 && out_c > 0 && w != nullptr,
               "winograd weight transform: empty group ", in_c, "x",
               out_c);
    winoPackCounter().fetch_add(1, std::memory_order_relaxed);
    const std::size_t plane = in_c * out_c;
    // pcnn-analyze: allow(hot-path-alloc): generation-gated
    // weight transform; never runs in a steady-state forward.
    if (out.data.size() < 16 * plane)
        out.data.resize(16 * plane);
    out.inC = in_c;
    out.outC = out_c;

    // U = G g G^T per (oc, ic) filter, scattered so each transform
    // point p is a contiguous row-major in_c x out_c SGEMM B operand.
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t ic = 0; ic < in_c; ++ic) {
            const float *g = w + (oc * in_c + ic) * 9;
            float t[4][3]; // G g
            for (std::size_t c = 0; c < 3; ++c) {
                const float g0 = g[0 + c], g1 = g[3 + c], g2 = g[6 + c];
                t[0][c] = g0;
                t[1][c] = 0.5f * (g0 + g1 + g2);
                t[2][c] = 0.5f * (g0 - g1 + g2);
                t[3][c] = g2;
            }
            float u[4][4]; // (G g) G^T
            for (std::size_t r = 0; r < 4; ++r) {
                u[r][0] = t[r][0];
                u[r][1] = 0.5f * (t[r][0] + t[r][1] + t[r][2]);
                u[r][2] = 0.5f * (t[r][0] - t[r][1] + t[r][2]);
                u[r][3] = t[r][2];
            }
            for (std::size_t p = 0; p < 16; ++p)
                out.data[p * plane + ic * out_c + oc] = u[p / 4][p % 4];
        }
    }
}

PCNN_HOT_PATH
void
winogradForward(const Tensor &x, std::size_t item, const ConvGeom &g,
                std::size_t chan_off, const WinogradWeights &wts,
                const float *bias, Tensor &y, std::size_t out_chan_off,
                bool fuse_relu, WinogradScratch &scratch)
{
    PCNN_CHECK(winogradApplicable(g),
               "winograd: geometry kernel=", g.kernel,
               " stride=", g.stride, " is not F(2x2,3x3)-eligible");
    PCNN_CHECK_EQ(wts.inC, g.inC, "winograd: weight/geometry channels");

    const std::size_t oh = g.outH(), ow = g.outW();
    const std::size_t th = winogradTileRows(oh);
    const std::size_t tw = winogradTileCols(ow);
    const std::size_t tiles = th * tw;
    const std::size_t in_c = g.inC, out_c = wts.outC;
    const std::size_t in_h = g.inH, in_w = g.inW;
    const std::size_t pad = g.pad;

    // pcnn-analyze: allow(hot-path-alloc): grow-only job
    // transform scratch; sized by the largest tile set seen.
    if (scratch.v.size() < 16 * tiles * in_c)
        scratch.v.resize(16 * tiles * in_c);
    // pcnn-analyze: allow(hot-path-alloc): see above.
    if (scratch.m.size() < 16 * tiles * out_c)
        scratch.m.resize(16 * tiles * out_c);
    float *v = scratch.v.data();
    float *mm = scratch.m.data();

    // 1. Input transform: V_p[t][ic] = (B^T d B)[p] of the 4x4 input
    // patch feeding tile t. Tiles are disjoint, so the partition is
    // thread-count-invariant (nested calls run inline).
    const float *xbase =
        x.data() + (item * x.shape().c + chan_off) * in_h * in_w;
    parallelFor(tiles, [&](std::size_t t0, std::size_t t1,
                           std::size_t) {
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t ty = t / tw, tx = t % tw;
            // Patch origin in input coordinates (stride 1, 2 outputs
            // per tile); may start before 0 or run past the edge.
            const std::ptrdiff_t iy0 =
                std::ptrdiff_t(2 * ty) - std::ptrdiff_t(pad);
            const std::ptrdiff_t ix0 =
                std::ptrdiff_t(2 * tx) - std::ptrdiff_t(pad);
            for (std::size_t ic = 0; ic < in_c; ++ic) {
                const float *xp = xbase + ic * in_h * in_w;
                float d[4][4];
                for (std::size_t r = 0; r < 4; ++r) {
                    const std::ptrdiff_t iy = iy0 + std::ptrdiff_t(r);
                    if (iy < 0 || iy >= std::ptrdiff_t(in_h)) {
                        d[r][0] = d[r][1] = d[r][2] = d[r][3] = 0.0f;
                        continue;
                    }
                    const float *row = xp + std::size_t(iy) * in_w;
                    for (std::size_t cc = 0; cc < 4; ++cc) {
                        const std::ptrdiff_t ix =
                            ix0 + std::ptrdiff_t(cc);
                        d[r][cc] =
                            (ix < 0 || ix >= std::ptrdiff_t(in_w))
                                ? 0.0f
                                : row[std::size_t(ix)];
                    }
                }
                float bt[4][4]; // B^T d
                for (std::size_t cc = 0; cc < 4; ++cc)
                    inputPass(&d[0][cc], 4, &bt[0][cc], 4);
                float vv[4][4]; // (B^T d) B
                for (std::size_t r = 0; r < 4; ++r)
                    inputPass(&bt[r][0], 1, &vv[r][0], 1);
                for (std::size_t p = 0; p < 16; ++p)
                    v[(p * tiles + t) * in_c + ic] = vv[p / 4][p % 4];
            }
        }
    }, double(tiles) * double(in_c) * cost::kWinogradTransform);

    // 2. Batched tile-GEMM: one product per transform point, each on
    // the persistent pre-transformed B operand. sgemm parallelizes
    // internally (or runs inline inside an outer parallel region).
    for (std::size_t p = 0; p < 16; ++p)
        sgemm(false, false, tiles, out_c, in_c,
              v + p * tiles * in_c, wts.point(p),
              mm + p * tiles * out_c);

    // 3. Output transform: Y = A^T M A per tile/channel, plus the
    // fused bias/ReLU epilogue, clipped at odd-extent edges.
    float *ybase =
        y.data() + (item * y.shape().c + out_chan_off) * oh * ow;
    parallelFor(tiles, [&](std::size_t t0, std::size_t t1,
                           std::size_t) {
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t ty = t / tw, tx = t % tw;
            const std::size_t oy0 = 2 * ty, ox0 = 2 * tx;
            const std::size_t ny = std::min<std::size_t>(2, oh - oy0);
            const std::size_t nx = std::min<std::size_t>(2, ow - ox0);
            for (std::size_t oc = 0; oc < out_c; ++oc) {
                float m4[4][4];
                for (std::size_t p = 0; p < 16; ++p)
                    m4[p / 4][p % 4] =
                        mm[(p * tiles + t) * out_c + oc];
                float at[2][4]; // A^T M
                for (std::size_t cc = 0; cc < 4; ++cc)
                    outputPass(&m4[0][cc], 4, &at[0][cc], 4);
                float yy[2][2]; // (A^T M) A
                for (std::size_t r = 0; r < 2; ++r)
                    outputPass(&at[r][0], 1, &yy[r][0], 1);
                const float b = bias ? bias[oc] : 0.0f;
                float *yp = ybase + oc * oh * ow;
                for (std::size_t r = 0; r < ny; ++r) {
                    float *yrow = yp + (oy0 + r) * ow + ox0;
                    for (std::size_t cc = 0; cc < nx; ++cc) {
                        float val = yy[r][cc] + b;
                        if (fuse_relu && val < 0.0f)
                            val = 0.0f;
                        yrow[cc] = val;
                    }
                }
            }
        }
    }, double(tiles) * double(out_c) * cost::kWinogradTransform);
}

} // namespace pcnn
