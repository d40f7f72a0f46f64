#include "tensor/tensor_ops.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/tags.hh"
#include "tensor/microkernel.hh"

namespace pcnn {

namespace {

// Row-block granule of the k == 0 epilogue-only pass. Elementwise, so
// any partition yields identical bits; 8 matches the portable tile.
constexpr std::size_t kEpiBlock = 8;

/**
 * Edge micro-tile for mr x nr remainders (mr <= kMaxMicroMR,
 * nr <= kMaxMicroNR), shared by every tier. Accumulation per cell is
 * the same pure k-order as the full kernels, and the full/edge split
 * depends only on (m, n) and the blocking, so a cell's value never
 * depends on the thread count.
 */
inline void
microEdge(std::size_t k, std::size_t mr, std::size_t nr, const float *a,
          std::size_t lda, const float *b, std::size_t ldb, float *c,
          std::size_t ldc)
{
    float acc[kMaxMicroMR][kMaxMicroNR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        for (std::size_t i = 0; i < mr; ++i) {
            const float av = a[i * lda + p];
            for (std::size_t j = 0; j < nr; ++j)
                acc[i][j] += av * brow[j];
        }
    }
    for (std::size_t i = 0; i < mr; ++i)
        for (std::size_t j = 0; j < nr; ++j)
            c[i * ldc + j] += acc[i][j];
}

/**
 * Epilogue store pass over the tile C[0..mr)x[0..nr): bias add
 * (row- or column-indexed) and/or ReLU, applied to the final
 * accumulated values while the tile is still cache-hot. `row0`/`col0`
 * are the tile's global C coordinates, used to index the bias vector.
 */
inline void
applyEpilogue(const Epilogue &epi, std::size_t row0, std::size_t col0,
              std::size_t mr, std::size_t nr, float *c,
              std::size_t ldc)
{
    const bool relu = epi.op == EpilogueOp::BiasRelu;
    for (std::size_t i = 0; i < mr; ++i) {
        float *crow = c + i * ldc;
        const float rb =
            (epi.bias && !epi.colBias) ? epi.bias[row0 + i] : 0.0f;
        if (epi.bias && epi.colBias) {
            const float *cb = epi.bias + col0;
            for (std::size_t j = 0; j < nr; ++j) {
                float v = crow[j] + cb[j];
                crow[j] = (relu && v < 0.0f) ? 0.0f : v;
            }
        } else if (epi.bias) {
            for (std::size_t j = 0; j < nr; ++j) {
                float v = crow[j] + rb;
                crow[j] = (relu && v < 0.0f) ? 0.0f : v;
            }
        } else {
            for (std::size_t j = 0; j < nr; ++j)
                crow[j] = crow[j] < 0.0f ? 0.0f : crow[j];
        }
    }
}

/**
 * Per-call resolution of the dispatch state: the active micro-kernel
 * plus the blocking hierarchy re-aligned to its register tile. The
 * narrow-N fallback keeps panels thinner than the tier's register
 * tile (winograd tile-GEMMs run n = 8..32, FC heads can be narrower
 * still) on the portable 8-wide kernel instead of pushing every
 * column into the scalar edge path. All of this depends only on the
 * shape and the pinned tier/blocking — never on the thread count.
 */
struct TiledGemm
{
    const MicroKernel *mk;
    std::size_t kc, mc, nc, pf;
};

TiledGemm
resolveGemm(std::size_t n)
{
    const MicroKernel *mk = &microKernelFor(activeKernelTier());
    if (n < mk->nr)
        mk = &microKernelFor(KernelTier::Portable);
    const GemmBlocking blk = activeBlocking();
    TiledGemm t;
    t.mk = mk;
    t.kc = std::max<std::size_t>(blk.kc, 1);
    t.mc = std::max(mk->mr, blk.mc - blk.mc % mk->mr);
    t.nc = std::max(mk->nr, blk.nc - blk.nc % mk->nr);
    t.pf = blk.prefetch;
    return t;
}

/**
 * Register-tile sweep of C rows [i0, i1) x cols [j0, j1) over the K
 * range [p0, p1): the innermost stop of the blocking hierarchy.
 * i0/j0 are mr/nr-aligned by construction of the partitions in
 * rangeSweep (thread bands, Mc blocks and Nc panels are all
 * register-tile multiples), so the full/edge kernel split depends
 * only on (m, n) and the blocking, not on the thread count. `epi` is
 * non-null only on the final K chunk; each cell belongs to exactly
 * one tile of that chunk, so the epilogue runs exactly once per cell
 * after its full-K accumulation. `row_off` maps tile rows to global
 * C rows for the bias indexing of packed row bands; columns are
 * always global.
 */
void
tileSweep(const TiledGemm &t, std::size_t i0, std::size_t i1,
          std::size_t j0, std::size_t j1, std::size_t p0,
          std::size_t p1, const float *a, std::size_t lda,
          const float *b, std::size_t ldb, float *c, std::size_t ldc,
          const Epilogue *epi, std::size_t row_off)
{
    const std::size_t mr = t.mk->mr, nr = t.mk->nr;
    const std::size_t kk = p1 - p0;
    const float *bbase = b + p0 * ldb;
    for (std::size_t i = i0; i < i1; i += mr) {
        const std::size_t mi = std::min(mr, i1 - i);
        const float *arow = a + i * lda + p0;
        for (std::size_t j = j0; j < j1; j += nr) {
            const std::size_t nj = std::min(nr, j1 - j);
            if (mi == mr && nj == nr)
                t.mk->full(kk, arow, lda, bbase + j, ldb,
                           c + i * ldc + j, ldc, t.pf);
            else
                microEdge(kk, mi, nj, arow, lda, bbase + j, ldb,
                          c + i * ldc + j, ldc);
            if (epi != nullptr)
                applyEpilogue(*epi, row_off + i, j, mi, nj,
                              c + i * ldc + j, ldc);
        }
    }
}

/**
 * Cache-blocked sweep of C rows [r0, r1) x cols [c0, c1): Nc panels
 * outermost (the Kc x Nc B slab stays L2-resident across the row
 * sweep), Kc chunks next (ascending, so every C cell accumulates its
 * K range in pure ascending order regardless of the blocking), Mc
 * row blocks innermost (the Mc x Kc A block stays near-L1 across the
 * panel). One thread owns the whole range, so per-cell accumulation
 * order is fixed for every thread count; the epilogue rides the last
 * Kc chunk. A is row-major with leading dimension lda >= k; rows are
 * relative to `a` (callers pass packed bands with row_off mapping
 * back to global C rows).
 */
void
rangeSweep(const TiledGemm &t, std::size_t r0, std::size_t r1,
           std::size_t c0, std::size_t c1, std::size_t k,
           const float *a, std::size_t lda, const float *b,
           std::size_t ldb, float *c, std::size_t ldc,
           const Epilogue &epi, std::size_t row_off)
{
    for (std::size_t jc = c0; jc < c1; jc += t.nc) {
        const std::size_t j1 = std::min(c1, jc + t.nc);
        for (std::size_t pc = 0; pc < k; pc += t.kc) {
            const std::size_t p1 = std::min(k, pc + t.kc);
            const Epilogue *e =
                (p1 == k && epi.active()) ? &epi : nullptr;
            for (std::size_t ic = r0; ic < r1; ic += t.mc)
                tileSweep(t, ic, std::min(r1, ic + t.mc), jc, j1, pc,
                          p1, a, lda, b, ldb, c, ldc, e, row_off);
        }
    }
}

/** Pack op(B) into a row-major k x n panel (cache-blocked transpose). */
void
packB(std::size_t n, std::size_t k, const float *b, float *bp)
{
    // b is stored n x k (trans_b); bp[p * n + j] = b[j * k + p].
    constexpr std::size_t kTile = 32;
    parallelFor(
        (k + kTile - 1) / kTile,
        [&](std::size_t t0, std::size_t t1, std::size_t) {
            for (std::size_t t = t0; t < t1; ++t) {
                const std::size_t p0 = t * kTile;
                const std::size_t p1 = std::min(k, p0 + kTile);
                for (std::size_t jj = 0; jj < n; jj += kTile) {
                    const std::size_t j1 = std::min(n, jj + kTile);
                    for (std::size_t j = jj; j < j1; ++j)
                        for (std::size_t p = p0; p < p1; ++p)
                            bp[p * n + j] = b[j * k + p];
                }
            }
        },
        double(n) * double(k) * cost::kGatherElem);
}

/** Pack op(A) rows [r0, r1) into a row-major (r1-r0) x k panel. */
void
packA(std::size_t r0, std::size_t r1, std::size_t m, std::size_t k,
      const float *a, float *ap)
{
    // a is stored k x m (trans_a); ap[(i - r0) * k + p] = a[p * m + i].
    for (std::size_t p = 0; p < k; ++p) {
        const float *arow = a + p * m;
        for (std::size_t i = r0; i < r1; ++i)
            ap[(i - r0) * k + p] = arow[i];
    }
}

/** Per-thread packing scratch, reused across sgemm calls. */
thread_local std::vector<float> tlPackA;
thread_local std::vector<float> tlPackB;

/** Latched by the first GEMM of the process; see gemmHasRun(). */
std::atomic<bool> &
gemmRanFlag() noexcept
{
    static std::atomic<bool> ran{false};
    return ran;
}

} // namespace

bool
gemmHasRun() noexcept
{
    return gemmRanFlag().load(std::memory_order_relaxed);
}

void
noteGemmRan() noexcept
{
    gemmRanFlag().store(true, std::memory_order_relaxed);
}

PCNN_HOT_PATH
void
sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
      std::size_t k, const float *a, const float *b, float *c,
      float beta, const Epilogue &epi)
{
    if (m == 0 || n == 0)
        return;
    noteGemmRan();
    PCNN_CHECK(c != nullptr, "sgemm: null C for m=", m, " n=", n);
    PCNN_CHECK(k == 0 || (a != nullptr && b != nullptr),
               "sgemm: null operand for m=", m, " n=", n, " k=", k);
    PCNN_CHECK(epi.op != EpilogueOp::Bias || epi.bias != nullptr,
               "sgemm: Bias epilogue without a bias vector");
    if (beta == 0.0f) {
        std::fill(c, c + m * n, 0.0f);
    } else if (beta != 1.0f) {
        for (std::size_t i = 0; i < m * n; ++i)
            c[i] *= beta;
    }
    if (k == 0) {
        // No accumulation pass will run, so apply the epilogue to the
        // beta-scaled C directly (elementwise, so the partition
        // cannot change bits).
        if (epi.active())
            parallelFor(
                (m + kEpiBlock - 1) / kEpiBlock,
                [&](std::size_t b0, std::size_t b1, std::size_t) {
                    const std::size_t r0 = b0 * kEpiBlock;
                    const std::size_t r1 = std::min(m, b1 * kEpiBlock);
                    applyEpilogue(epi, r0, 0, r1 - r0, n, c + r0 * n,
                                  n);
                },
                double(m) * double(n) * cost::kSelectElem);
        return;
    }

    // Operand packing normalizes all four transpose cases to the one
    // row-major blocked sweep above.
    const float *bmat = b;
    if (trans_b) {
        std::vector<float> &bp = tlPackB;
        // pcnn-analyze: allow(hot-path-alloc): grow-only
        // thread-local packing scratch.
        if (bp.size() < k * n)
            bp.resize(k * n);
        packB(n, k, b, bp.data());
        bmat = bp.data();
    }

    const TiledGemm t = resolveGemm(n);
    const std::size_t mr = t.mk->mr, nr = t.mk->nr;
    const std::size_t row_blocks = (m + mr - 1) / mr;
    const std::size_t col_blocks = (n + nr - 1) / nr;

    // Row-band parallelism over M; when M is a single block-row,
    // partition the N dimension instead. Both partitions are aligned
    // to the active tier's register blocking and every band runs its
    // own cache-blocked sweep with a fixed per-cell accumulation
    // order, so results are bitwise identical for every thread count
    // (per tier/blocking). The lane count follows the FLOPs.
    const double work =
        2.0 * double(m) * double(n) * double(k) * cost::kGemmFlop;
    if (row_blocks >= col_blocks || trans_a) {
        parallelFor(
            row_blocks,
            [&](std::size_t b0, std::size_t b1, std::size_t) {
                const std::size_t r0 = b0 * mr;
                const std::size_t r1 = std::min(m, b1 * mr);
                const float *amat = a + r0 * k;
                if (trans_a) {
                    std::vector<float> &ap = tlPackA;
                    // pcnn-analyze: allow(hot-path-alloc): grow-only
                    // thread-local packing scratch.
                    if (ap.size() < (r1 - r0) * k)
                        ap.resize((r1 - r0) * k);
                    packA(r0, r1, m, k, a, ap.data());
                    amat = ap.data();
                }
                rangeSweep(t, 0, r1 - r0, 0, n, k, amat, k, bmat, n,
                           c + r0 * n, n, epi, r0);
            },
            work);
    } else {
        parallelFor(
            col_blocks,
            [&](std::size_t b0, std::size_t b1, std::size_t) {
                const std::size_t j0 = b0 * nr;
                const std::size_t j1 = std::min(n, b1 * nr);
                rangeSweep(t, 0, m, j0, j1, k, a, k, bmat, n, c, n, epi,
                           0);
            },
            work);
    }
}

namespace {

/// process-wide packWeights() materialization counter (see header)
std::atomic<std::uint64_t> &
packCounter()
{
    static std::atomic<std::uint64_t> count{0};
    return count;
}

} // namespace

std::uint64_t
weightPackCount()
{
    return packCounter().load(std::memory_order_relaxed);
}

void
packWeights(bool trans, std::size_t rows, std::size_t cols,
            const float *w, PackedPanel &panel)
{
    PCNN_CHECK(rows * cols == 0 || w != nullptr,
               "packWeights: null source for ", rows, "x", cols);
    packCounter().fetch_add(1, std::memory_order_relaxed);
    // pcnn-analyze: allow(hot-path-alloc): generation-gated
    // weight repack; callers only invoke this when the source
    // weights changed.
    if (panel.data.size() < rows * cols)
        panel.data.resize(rows * cols);
    panel.rows = rows;
    panel.cols = cols;
    if (rows * cols == 0)
        return;
    if (trans)
        packB(cols, rows, w, panel.data.data());
    else
        std::memcpy(panel.data.data(), w,
                    rows * cols * sizeof(float));
}

PCNN_HOT_PATH
void
sgemmPrepacked(std::size_t m, std::size_t n, std::size_t k,
               const float *a, const PackedPanel &b, float *c,
               float beta, const Epilogue &epi)
{
    PCNN_CHECK(b.rows == k && b.cols == n, "sgemmPrepacked: panel ",
               b.rows, "x", b.cols, " mismatches k=", k, " n=", n);
    // A packed panel is the row-major k x n matrix the kernel wants;
    // the non-transposed sgemm path consumes it with zero copies and
    // the identical micro-kernel schedule.
    sgemm(false, false, m, n, k, a, b.ptr(), c, beta, epi);
}

std::size_t
ConvGeom::outH() const
{
    PCNN_CHECK_GT(kernel, 0u, "conv geometry: zero kernel");
    PCNN_CHECK_GT(stride, 0u, "conv geometry: zero stride");
    PCNN_CHECK_GE(inH + 2 * pad, kernel, "conv geometry under-sized: inH ",
                  inH, " pad ", pad, " kernel ", kernel);
    return (inH + 2 * pad - kernel) / stride + 1;
}

std::size_t
ConvGeom::outW() const
{
    PCNN_CHECK_GT(kernel, 0u, "conv geometry: zero kernel");
    PCNN_CHECK_GT(stride, 0u, "conv geometry: zero stride");
    PCNN_CHECK_GE(inW + 2 * pad, kernel, "conv geometry under-sized: inW ",
                  inW, " pad ", pad, " kernel ", kernel);
    return (inW + 2 * pad - kernel) / stride + 1;
}

namespace {

/**
 * The output columns [lo, hi) whose input tap ix = ox*stride + kx - pad
 * lands inside [0, inW); everything outside is padding.
 */
inline void
validColRange(std::size_t ow, std::size_t stride, std::size_t kx,
              std::size_t pad, std::size_t in_w, std::size_t &lo,
              std::size_t &hi)
{
    lo = (pad > kx) ? (pad - kx + stride - 1) / stride : 0;
    const long last = long(in_w) - 1 - long(kx) + long(pad);
    hi = last < 0 ? 0 : std::min<std::size_t>(ow, std::size_t(last) /
                                                      stride + 1);
    lo = std::min(lo, hi);
}

} // namespace

void
im2col(const Tensor &x, std::size_t item, const ConvGeom &g,
       std::vector<float> &cols, std::size_t chan_off)
{
    pcnn_assert(x.shape().c >= chan_off + g.inC &&
                    x.shape().h == g.inH && x.shape().w == g.inW,
                "im2col input ", x.shape().str(),
                " mismatches geometry at channel offset ", chan_off);
    const std::size_t oh = g.outH(), ow = g.outW();
    const std::size_t n_cols = oh * ow;
    const std::size_t rows = g.colRows();
    // Grow-only: alternating geometries (perforated vs. full layers
    // sharing one scratch pool) must not shrink and regrow the
    // allocation on every call.
    // pcnn-analyze: allow(hot-path-alloc): the grow-only
    // policy stated above.
    if (cols.size() < rows * n_cols)
        cols.resize(rows * n_cols);

    const std::size_t plane = g.inH * g.inW;
    const float *xbase =
        x.data() + (item * x.shape().c + chan_off) * plane;
    const std::size_t taps = g.kernel * g.kernel;

    // One thread per band of cols-matrix rows: each row (c, ky, kx)
    // is a shifted copy of one input plane, written contiguously.
    const double work = double(rows) * double(n_cols) * cost::kGatherElem;
    parallelFor(rows, [&](std::size_t r0, std::size_t r1,
                          std::size_t) {
        for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t c = r / taps;
            const std::size_t ky = (r % taps) / g.kernel;
            const std::size_t kx = r % g.kernel;
            const float *src_plane = xbase + c * plane;
            float *out = cols.data() + r * n_cols;
            std::size_t lo, hi;
            validColRange(ow, g.stride, kx, g.pad, g.inW, lo, hi);
            for (std::size_t oy = 0; oy < oh; ++oy) {
                float *orow = out + oy * ow;
                const long iy =
                    long(oy * g.stride + ky) - long(g.pad);
                if (iy < 0 || iy >= long(g.inH)) {
                    std::memset(orow, 0, ow * sizeof(float));
                    continue;
                }
                const float *src = src_plane + std::size_t(iy) * g.inW;
                if (lo > 0)
                    std::memset(orow, 0, lo * sizeof(float));
                if (g.stride == 1) {
                    std::memcpy(orow + lo, src + lo + kx - g.pad,
                                (hi - lo) * sizeof(float));
                } else {
                    for (std::size_t ox = lo; ox < hi; ++ox)
                        orow[ox] =
                            src[ox * g.stride + kx - g.pad];
                }
                if (hi < ow)
                    std::memset(orow + hi, 0,
                                (ow - hi) * sizeof(float));
            }
        }
    }, work);
}

void
im2colAt(const Tensor &x, std::size_t item, const ConvGeom &g,
         const std::vector<std::size_t> &positions,
         std::vector<float> &cols, std::size_t chan_off)
{
    pcnn_assert(x.shape().c >= chan_off + g.inC &&
                    x.shape().h == g.inH && x.shape().w == g.inW,
                "im2colAt input ", x.shape().str(),
                " mismatches geometry at channel offset ", chan_off);
    const std::size_t ow = g.outW();
    const std::size_t full = g.outH() * ow;
    for (std::size_t pos : positions)
        pcnn_assert(pos < full, "perforation position ", pos,
                    " outside output grid");
    const std::size_t n_cols = positions.size();
    const std::size_t rows = g.colRows();
    // pcnn-analyze: allow(hot-path-alloc): grow-only scratch
    // shared with im2col above.
    if (cols.size() < rows * n_cols)
        cols.resize(rows * n_cols);

    const std::size_t plane = g.inH * g.inW;
    const float *xbase =
        x.data() + (item * x.shape().c + chan_off) * plane;

    const double work = double(rows) * double(n_cols) * cost::kGatherElem;
    parallelFor(n_cols, [&](std::size_t i0, std::size_t i1,
                            std::size_t) {
        for (std::size_t i = i0; i < i1; ++i) {
            const std::size_t oy = positions[i] / ow;
            const std::size_t ox = positions[i] % ow;
            std::size_t row = 0;
            for (std::size_t c = 0; c < g.inC; ++c) {
                const float *src_plane = xbase + c * plane;
                for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                    const long iy =
                        long(oy * g.stride + ky) - long(g.pad);
                    const bool y_in = iy >= 0 && iy < long(g.inH);
                    const float *src =
                        y_in ? src_plane + std::size_t(iy) * g.inW
                             : nullptr;
                    for (std::size_t kx = 0; kx < g.kernel;
                         ++kx, ++row) {
                        const long ix =
                            long(ox * g.stride + kx) - long(g.pad);
                        const bool in =
                            y_in && ix >= 0 && ix < long(g.inW);
                        cols[row * n_cols + i] =
                            in ? src[std::size_t(ix)] : 0.0f;
                    }
                }
            }
        }
    }, work);
}

void
col2im(const std::vector<float> &cols, std::size_t item,
       const ConvGeom &g, Tensor &dx, std::size_t chan_off)
{
    pcnn_assert(dx.shape().c >= chan_off + g.inC &&
                    dx.shape().h == g.inH && dx.shape().w == g.inW,
                "col2im output ", dx.shape().str(),
                " mismatches geometry at channel offset ", chan_off);
    const std::size_t oh = g.outH(), ow = g.outW();
    const std::size_t n_cols = oh * ow;
    pcnn_assert(cols.size() >= g.colRows() * n_cols,
                "col2im buffer size mismatch");

    const std::size_t plane = g.inH * g.inW;
    float *dbase = dx.data() + (item * dx.shape().c + chan_off) * plane;
    const std::size_t taps = g.kernel * g.kernel;

    // Channels scatter into disjoint input planes, so the channel
    // dimension parallelizes; within a channel the (ky, kx, oy, ox)
    // accumulation order is fixed regardless of the partition.
    parallelFor(g.inC, [&](std::size_t c0, std::size_t c1,
                           std::size_t) {
        for (std::size_t c = c0; c < c1; ++c) {
            float *dst_plane = dbase + c * plane;
            for (std::size_t t = 0; t < taps; ++t) {
                const std::size_t ky = t / g.kernel;
                const std::size_t kx = t % g.kernel;
                const float *srow =
                    cols.data() + (c * taps + t) * n_cols;
                std::size_t lo, hi;
                validColRange(ow, g.stride, kx, g.pad, g.inW, lo, hi);
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    const long iy =
                        long(oy * g.stride + ky) - long(g.pad);
                    if (iy < 0 || iy >= long(g.inH))
                        continue;
                    float *drow = dst_plane + std::size_t(iy) * g.inW;
                    const float *sr = srow + oy * ow;
                    for (std::size_t ox = lo; ox < hi; ++ox)
                        drow[ox * g.stride + kx - g.pad] += sr[ox];
                }
            }
        }
    });
}

Tensor
softmax(const Tensor &logits)
{
    const Shape &s = logits.shape();
    pcnn_assert(s.h == 1 && s.w == 1, "softmax expects [n,k,1,1], got ",
                s.str());
    Tensor out(s);
    const std::size_t k = s.c;
    parallelFor(s.n, [&](std::size_t i0, std::size_t i1, std::size_t) {
        for (std::size_t i = i0; i < i1; ++i) {
            const float *row = logits.data() + i * k;
            float *orow = out.data() + i * k;
            const float mx = *std::max_element(row, row + k);
            double denom = 0.0;
            for (std::size_t j = 0; j < k; ++j) {
                orow[j] = std::exp(row[j] - mx);
                denom += orow[j];
            }
            for (std::size_t j = 0; j < k; ++j)
                orow[j] = float(orow[j] / denom);
        }
    });
    return out;
}

double
entropy(const float *probs, std::size_t k)
{
    double h = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
        const double p = probs[j];
        if (p > 0.0)
            h -= p * std::log(p);
    }
    return h;
}

double
batchEntropy(const Tensor &probs)
{
    const Shape &s = probs.shape();
    pcnn_assert(s.h == 1 && s.w == 1, "batchEntropy expects [n,k,1,1]");
    double h = 0.0;
    for (std::size_t i = 0; i < s.n; ++i)
        h += entropy(probs.data() + i * s.c, s.c);
    return h / double(s.n);
}

std::size_t
argmax(const float *row, std::size_t k)
{
    pcnn_assert(k > 0, "argmax of empty row");
    return std::size_t(std::max_element(row, row + k) - row);
}

std::vector<std::size_t>
argmaxRows(const Tensor &t)
{
    const Shape &s = t.shape();
    pcnn_assert(s.h == 1 && s.w == 1, "argmaxRows expects [n,k,1,1]");
    std::vector<std::size_t> out(s.n);
    for (std::size_t i = 0; i < s.n; ++i)
        out[i] = argmax(t.data() + i * s.c, s.c);
    return out;
}

} // namespace pcnn
