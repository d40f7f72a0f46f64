#include "nn/conv_layer.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/tags.hh"
#include "nn/fusion.hh"
#include "tensor/winograd.hh"

namespace pcnn {

namespace {

/**
 * The calling thread's conv scratch, shared by every conv layer of
 * every network that runs a job on this thread. A thread runs one job
 * at a time, so this holds the largest single job's need per thread
 * instead of one buffer set per layer × lane × replica.
 */
ConvLayer::Scratch &
threadScratch()
{
    thread_local ConvLayer::Scratch scratch;
    return scratch;
}

} // namespace

ConvLayer::ConvLayer(ConvSpec spec, Rng &rng)
    : spc(std::move(spec)), w(std::make_shared<ConvWeights>()),
      computed(0)
{
    pcnn_assert(spc.inC % spc.groups == 0 && spc.outC % spc.groups == 0,
                "layer ", spc.name, ": groups must divide channels");
    const std::size_t in_cg = spc.inC / spc.groups;
    w->weight.value.resize(
        Shape{spc.outC, in_cg, spc.kernel, spc.kernel});
    w->weight.grad.resize(w->weight.value.shape());
    w->bias.value.resize(Shape{1, spc.outC, 1, 1});
    w->bias.grad.resize(w->bias.value.shape());

    // He initialization: stddev = sqrt(2 / fan_in).
    const double fan_in = double(in_cg * spc.kernel * spc.kernel);
    w->weight.value.fillGaussian(rng, 0.0f,
                                 float(std::sqrt(2.0 / fan_in)));

    computed = fullPositions();
    rebuildSampling();
}

std::unique_ptr<Layer>
ConvLayer::cloneShared()
{
    // Freeze first so no mutation can slip between clone and serve.
    w->weight.setShared();
    w->bias.setShared();
    auto clone = std::unique_ptr<ConvLayer>(new ConvLayer(*this));
    clone->lastInput = Tensor();
    clone->haveCache = false;
    return clone;
}

Shape
ConvLayer::outputShape(const Shape &in) const
{
    PCNN_CHECK(in.c == spc.inC && in.h == spc.inH && in.w == spc.inW,
               "layer ", spc.name, ": input ", in.str(),
               " mismatches spec [", spc.inC, ",", spc.inH, ",",
               spc.inW, "]");
    return Shape{in.n, spc.outC, spc.outH(), spc.outW()};
}

std::vector<Param *>
ConvLayer::params()
{
    return {&w->weight, &w->bias};
}

double
ConvLayer::flopsPerImage(const Shape &in) const
{
    (void)in;
    return spc.flopsPerImage();
}

void
ConvLayer::setComputedPositions(std::size_t positions)
{
    const std::size_t full = fullPositions();
    if (positions == 0 || positions > full)
        positions = full;
    positions = std::max<std::size_t>(positions, 1);
    if (positions == computed)
        return;
    computed = positions;
    rebuildSampling();
}

std::size_t
ConvLayer::computedPositions() const
{
    return computed;
}

double
ConvLayer::perforationRate() const
{
    return 1.0 - double(computed) / double(fullPositions());
}

void
ConvLayer::setInterpolationMode(InterpolationMode mode)
{
    interpMode = mode;
}

void
ConvLayer::setAlgo(ConvAlgo a)
{
    PCNN_CHECK(spc.algoEligible(a), "layer ", spc.name, ": algorithm ",
               convAlgoName(a), " is not eligible for kernel=",
               spc.kernel, " stride=", spc.stride, " pad=", spc.pad);
    algoPinned = true;
    algoSel = a;
}

ConvAlgo
ConvLayer::plannedAlgo() const
{
    return algoPinned ? algoSel : selectConvAlgo(spc);
}

bool
ConvLayer::effectiveQuantized(bool train) const
{
    // Training always runs fp32: backward needs exact activations,
    // and quantization is an inference-time approximation like
    // perforation.
    return !train && (quantOn || quantizeForced());
}

ConvAlgo
ConvLayer::effectiveAlgo(bool train) const
{
    // Training and perforated forwards stay on the exact route: the
    // backward pass caches im2col-consumable activations, and the
    // perforated path computes scattered positions winograd tiles
    // cannot express. The 1x1 shortcut is bitwise equal to im2col,
    // so it remains in force for both.
    if (train || perforated())
        return is1x1Passthrough() ? ConvAlgo::Direct1x1
                                  : ConvAlgo::Im2col;
    ConvAlgo forced;
    if (forcedConvAlgo(forced) && spc.algoEligible(forced))
        return forced;
    return plannedAlgo();
}

void
ConvLayer::rebuildSampling()
{
    const std::size_t oh = spc.outH(), ow = spc.outW();
    const std::size_t full = oh * ow;
    if (computed >= full) {
        computed = full;
        sample.clear();
        fillFrom.clear();
        fillAvg.clear();
        return;
    }

    // Realize the request as a uniform r_h x r_w stratified grid; the
    // achieved count (r_h * r_w) becomes the effective `computed`.
    const double frac = double(computed) / double(full);
    const double f = std::sqrt(frac);
    std::size_t rh = std::clamp<std::size_t>(
        std::size_t(std::lround(double(oh) * f)), 1, oh);
    std::size_t rw = std::clamp<std::size_t>(
        std::size_t(std::lround(double(computed) / double(rh))), 1, ow);
    computed = rh * rw;

    std::vector<std::size_t> ys(rh), xs(rw);
    for (std::size_t r = 0; r < rh; ++r)
        ys[r] = std::min<std::size_t>(oh - 1, (2 * r + 1) * oh / (2 * rh));
    for (std::size_t c = 0; c < rw; ++c)
        xs[c] = std::min<std::size_t>(ow - 1, (2 * c + 1) * ow / (2 * rw));

    sample.resize(computed);
    for (std::size_t r = 0; r < rh; ++r)
        for (std::size_t c = 0; c < rw; ++c)
            sample[r * rw + c] = ys[r] * ow + xs[c];

    // Nearest sampled coordinate along each axis, then compose: the
    // fill source of (y, x) is (nearest ys, nearest xs), which is the
    // nearest sampled point in L1 on a separable grid.
    auto nearest_index = [](const std::vector<std::size_t> &coords,
                            std::size_t extent) {
        std::vector<std::size_t> nearest(extent);
        std::size_t j = 0;
        for (std::size_t v = 0; v < extent; ++v) {
            while (j + 1 < coords.size() &&
                   (coords[j + 1] > v
                        ? coords[j + 1] - v
                        : v - coords[j + 1]) <=
                       (coords[j] > v ? coords[j] - v : v - coords[j])) {
                ++j;
            }
            nearest[v] = j;
        }
        return nearest;
    };
    const auto near_y = nearest_index(ys, oh);
    const auto near_x = nearest_index(xs, ow);

    fillFrom.resize(full);
    for (std::size_t y = 0; y < oh; ++y)
        for (std::size_t x = 0; x < ow; ++x)
            fillFrom[y * ow + x] = near_y[y] * rw + near_x[x];

    // Average-mode map: for every output position, the four
    // surrounding sampled grid corners (floor/ceil along each axis;
    // duplicates at the borders or on sampled lines are fine — the
    // unweighted mean then naturally upweights the exact source).
    auto bracket = [](const std::vector<std::size_t> &coords,
                      std::size_t extent) {
        std::vector<std::pair<std::size_t, std::size_t>> out(extent);
        std::size_t hi = 0;
        for (std::size_t v = 0; v < extent; ++v) {
            while (hi + 1 < coords.size() && coords[hi] < v)
                ++hi;
            const std::size_t lo = (coords[hi] > v && hi > 0)
                                       ? hi - 1
                                       : hi;
            out[v] = {lo, hi};
        }
        return out;
    };
    const auto by = bracket(ys, oh);
    const auto bx = bracket(xs, ow);
    fillAvg.resize(full);
    for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
            fillAvg[y * ow + x] = {
                by[y].first * rw + bx[x].first,
                by[y].first * rw + bx[x].second,
                by[y].second * rw + bx[x].first,
                by[y].second * rw + bx[x].second,
            };
        }
    }
}

PCNN_HOT_PATH
void
ConvLayer::forwardItemGroup(const Tensor &x, Tensor &y, std::size_t item,
                            std::size_t group, ConvAlgo algo,
                            bool fuse_relu, bool quant,
                            const QuantParams &aq, Scratch &scr)
{
    const std::size_t in_cg = spc.inC / spc.groups;
    const std::size_t out_cg = spc.outC / spc.groups;
    const std::size_t oh = spc.outH(), ow = spc.outW();
    const std::size_t full = oh * ow;
    const bool perf = perforated();
    const std::size_t n_pos = perf ? computed : full;

    ConvGeom g = spc.geom();
    g.inC = in_cg;
    const std::size_t k = g.colRows();
    const float *wg = w->weight.value.data() +
                      group * out_cg * in_cg * spc.kernel * spc.kernel;
    float *ybase = y.data() + (item * spc.outC + group * out_cg) * full;
    const float *bvals = w->bias.value.data() + group * out_cg;

    if (!perf && algo == ConvAlgo::Winograd) {
        // Transform-domain fast path; bias and the folded ReLU are
        // applied in the output transform (winoPack was materialized
        // before the fan-out, so this only reads it).
        winogradForward(x, item, g, group * in_cg, w->winoPack[group],
                        bvals, y, group * out_cg, fuse_relu, scr.wino);
        return;
    }

    if (!perf) {
        const float *bmat;
        if (algo == ConvAlgo::Direct1x1) {
            // A 1x1/stride-1/pad-0 conv's im2col matrix is exactly
            // the input channel window (in_cg rows of one contiguous
            // plane each): skip im2col and read the input in place.
            bmat = x.data() +
                   (item * x.shape().c + group * in_cg) * full;
        } else {
            // im2col writes the packed-B panel layout the kernel
            // consumes (row-major k x full), fused: there is no
            // second packing pass between expansion and SGEMM.
            im2col(x, item, g, scr.cols, group * in_cg);
            bmat = scr.cols.data();
        }
        if (quant) {
            // Int8 route: quantize+interleave the panel, then qgemm
            // overwrite-stores dequant(+bias)(+ReLU) straight into
            // y — bias/ReLU ride the fused epilogue, so no seeding.
            quantizePackActivations(bmat, k, full, full, false, aq,
                                    scr.qcols);
            qgemm(out_cg, full, k, w->qPack[group], scr.qcols.data(),
                  aq, ybase, bvals, fuse_relu);
            return;
        }
        // Zero-copy output path: seed each output plane with its
        // bias, then let SGEMM accumulate the product straight into y
        // (beta = 1) — no gemmOut staging buffer, no final add+copy.
        // Per cell this computes b + sum(k-order), bitwise equal to
        // the staged sum(k-order) + b (float add is commutative).
        for (std::size_t f = 0; f < out_cg; ++f)
            std::fill(ybase + f * full, ybase + (f + 1) * full,
                      bvals[f]);
        // The folded ReLU rides the epilogue's store pass (bias is
        // already seeded, so the epilogue clamps only): bitwise equal
        // to a separate ReLU sweep over the same sums.
        Epilogue epi;
        if (fuse_relu)
            epi.op = EpilogueOp::BiasRelu;
        sgemm(false, false, out_cg, full, k, wg, bmat, ybase, 1.0f,
              epi);
        return;
    }

    // Perforated path: compute the sampled positions densely, then
    // interpolate into y (clamping in the fill loop when a ReLU was
    // folded — same values as clamping afterwards).
    im2colAt(x, item, g, sample, scr.cols, group * in_cg);
    // pcnn-analyze: allow(hot-path-alloc): grow-only job
    // scratch; sized by the largest geometry seen, then reused.
    if (scr.gemmOut.size() < out_cg * n_pos)
        scr.gemmOut.resize(out_cg * n_pos);
    if (quant) {
        // Bias and the folded ReLU stay in the interpolation loop
        // below (as in fp32), so the epilogue only dequantizes.
        quantizePackActivations(scr.cols.data(), k, n_pos, n_pos,
                                false, aq, scr.qcols);
        qgemm(out_cg, n_pos, k, w->qPack[group], scr.qcols.data(),
              aq, scr.gemmOut.data(), nullptr, false);
    } else {
        sgemm(false, false, out_cg, n_pos, k, wg, scr.cols.data(),
              scr.gemmOut.data());
    }

    for (std::size_t f = 0; f < out_cg; ++f) {
        float *yplane = ybase + f * full;
        const float *orow = scr.gemmOut.data() + f * n_pos;
        const float b = bvals[f];
        if (interpMode == InterpolationMode::Nearest) {
            // Scatter computed positions, then interpolate the rest
            // from their nearest computed neighbour.
            for (std::size_t p = 0; p < full; ++p) {
                const float v = orow[fillFrom[p]] + b;
                yplane[p] = (fuse_relu && v < 0.0f) ? 0.0f : v;
            }
        } else {
            // Average the surrounding computed grid corners.
            for (std::size_t p = 0; p < full; ++p) {
                const auto &src = fillAvg[p];
                const float v =
                    0.25f * (orow[src[0]] + orow[src[1]] +
                             orow[src[2]] + orow[src[3]]) +
                    b;
                yplane[p] = (fuse_relu && v < 0.0f) ? 0.0f : v;
            }
        }
    }
}

void
ConvLayer::forwardInto(const Tensor &x, bool train, Tensor &y)
{
    forwardImpl(x, train, false, y);
}

void
ConvLayer::forwardFusedReluInto(const Tensor &x, Tensor &y)
{
    forwardImpl(x, false, true, y);
}

PCNN_HOT_PATH
void
ConvLayer::forwardImpl(const Tensor &x, bool train, bool fuse_relu,
                       Tensor &y)
{
    const Shape out_shape = outputShape(x.shape());
    // pcnn-analyze: allow(hot-path-alloc): grow-only output
    // buffer; capacity is reused once warm (DESIGN.md §5h).
    y.resize(out_shape);

    // The int8 route always lowers through im2col/1x1 (winograd's
    // transform domain has no integer analogue here).
    const bool quant = effectiveQuantized(train);
    const ConvAlgo algo =
        quant ? (is1x1Passthrough() ? ConvAlgo::Direct1x1
                                    : ConvAlgo::Im2col)
              : effectiveAlgo(train);
    if (algo == ConvAlgo::Winograd) {
        // Materialize every group's transformed weights before the
        // fan-out: the cache is shared mutable state, the jobs only
        // read it.
        for (std::size_t gp = 0; gp < spc.groups; ++gp)
            winogradGroupWeights(gp);
    }
    QuantParams aq;
    if (quant) {
        // Same pre-fan-out contract for the int8 panels, and one
        // set of activation params for the whole batch: derived
        // from the full input tensor before any partitioning, so
        // every job — and every thread count — quantizes
        // identically.
        for (std::size_t gp = 0; gp < spc.groups; ++gp)
            quantizedGroupWeights(gp);
        aq = haveInQuant ? inQuant
                         : computeQuantParams(x.data(), x.size());
    }

    // One job per (item, group) pair; each job writes a disjoint
    // output slab, so any static partition yields identical results.
    // When there are fewer jobs than lanes, run the job loop serially
    // and let the inner im2col/SGEMM parallelize instead. Each job
    // uses its thread's scratch; every buffer is grow-only and fully
    // overwritten before it is read, so results do not depend on
    // which thread's bytes a job lands in.
    const std::size_t jobs = x.shape().n * spc.groups;
    auto run_jobs = [&](std::size_t j0, std::size_t j1) {
        Scratch &scr = threadScratch();
        for (std::size_t j = j0; j < j1; ++j)
            forwardItemGroup(x, y, j / spc.groups, j % spc.groups, algo,
                             fuse_relu, quant, aq, scr);
    };
    if (jobs >= threadCount() && !inParallelRegion()) {
        // Work per job: its im2col GEMM plus the gather (and, on the
        // int8 route, the quantize) that feeds it. Winograd does
        // fewer FLOPs, so there the estimate errs toward more lanes.
        const double k =
            double(spc.inC / spc.groups * spc.kernel * spc.kernel);
        const double cols = double(computedPositions());
        const double macs = double(spc.outC / spc.groups) * cols * k;
        const double job_work =
            quant ? 2.0 * macs * cost::kQgemmFlop +
                        k * cols * (cost::kGatherElem + cost::kQuantizeElem)
                  : 2.0 * macs * cost::kGemmFlop +
                        k * cols * cost::kGatherElem;
        parallelFor(
            jobs,
            [&](std::size_t j0, std::size_t j1, std::size_t) {
                run_jobs(j0, j1);
            },
            double(jobs) * job_work);
    } else {
        run_jobs(0, jobs);
    }

    if (train) {
        pcnn_assert(!perforated(), "layer ", spc.name,
                    ": training with perforation active is unsupported");
        lastInput = x;
        haveCache = true;
    }
}

const WinogradWeights &
ConvLayer::winogradGroupWeights(std::size_t group)
{
    const std::size_t in_cg = spc.inC / spc.groups;
    const std::size_t out_cg = spc.outC / spc.groups;
    // pcnn-analyze: allow(hot-path-alloc): generation-gated
    // repack: runs only when the weights changed, never in a
    // steady-state forward.
    if (w->winoPack.size() < spc.groups)
        w->winoPack.resize(spc.groups);
    WinogradWeights &wts = w->winoPack[group];
    if (wts.generation != w->weight.generation()) {
        const float *wg =
            w->weight.value.data() + group * out_cg * in_cg * 9;
        winogradTransformWeights(wg, in_cg, out_cg, wts);
        wts.generation = w->weight.generation();
    }
    return wts;
}

const QuantizedPanel &
ConvLayer::quantizedGroupWeights(std::size_t group)
{
    const std::size_t in_cg = spc.inC / spc.groups;
    const std::size_t out_cg = spc.outC / spc.groups;
    const std::size_t k = in_cg * spc.kernel * spc.kernel;
    // pcnn-analyze: allow(hot-path-alloc): generation-gated
    // quantization: runs only when the weights changed, never in
    // a steady-state forward.
    if (w->qPack.size() < spc.groups)
        w->qPack.resize(spc.groups);
    QuantizedPanel &panel = w->qPack[group];
    if (panel.generation != w->weight.generation()) {
        const float *wg = w->weight.value.data() + group * out_cg * k;
        quantizeWeights(out_cg, k, wg, panel);
        panel.generation = w->weight.generation();
    }
    return panel;
}

const PackedPanel &
ConvLayer::packedWeightT(std::size_t group)
{
    const std::size_t in_cg = spc.inC / spc.groups;
    const std::size_t out_cg = spc.outC / spc.groups;
    const std::size_t k = in_cg * spc.kernel * spc.kernel;
    // pcnn-analyze: allow(hot-path-alloc): generation-gated
    // repack (same argument as winogradGroupWeights above).
    if (w->wtPack.size() < spc.groups)
        w->wtPack.resize(spc.groups);
    PackedPanel &panel = w->wtPack[group];
    if (panel.generation != w->weight.generation()) {
        const float *wg = w->weight.value.data() + group * out_cg * k;
        packWeights(true, k, out_cg, wg, panel);
        panel.generation = w->weight.generation();
    }
    return panel;
}

Tensor
ConvLayer::backward(const Tensor &dy)
{
    pcnn_assert(haveCache, "layer ", spc.name,
                ": backward without forward(train)");
    pcnn_assert(!perforated(), "layer ", spc.name,
                ": backward with perforation active");
    PCNN_CHECK(dy.shape() == outputShape(lastInput.shape()),
               "layer ", spc.name, ": gradient ", dy.shape().str(),
               " mismatches forward output");

    const Shape &in_shape = lastInput.shape();
    Tensor dx(in_shape);
    const std::size_t in_cg = spc.inC / spc.groups;
    const std::size_t out_cg = spc.outC / spc.groups;
    const std::size_t oh = spc.outH(), ow = spc.outW();
    const std::size_t full = oh * ow;
    ConvGeom g = spc.geom();
    g.inC = in_cg;
    const std::size_t k = g.colRows();

    // The item/group loop stays serial — weight gradients accumulate
    // across it — while the inner im2col/SGEMM/col2im parallelize.
    std::vector<float> &cols = threadScratch().cols;
    std::vector<float> dcols(k * full);

    for (std::size_t i = 0; i < in_shape.n; ++i) {
        for (std::size_t gp = 0; gp < spc.groups; ++gp) {
            // Recompute this item/group's im2col from the cached input.
            im2col(lastInput, i, g, cols, gp * in_cg);

            const float *dyg =
                dy.data() + (i * spc.outC + gp * out_cg) * full;
            float *wgrad = w->weight.grad.data() +
                           gp * out_cg * in_cg * spc.kernel *
                               spc.kernel;

            // dW += dY * cols^T  (out_cg x full) * (full x k)
            sgemm(false, true, out_cg, k, full, dyg, cols.data(),
                  wgrad, 1.0f);

            // dcols = W^T * dY  (k x out_cg) * (out_cg x full).
            // W^T comes from the per-group packed panel: the weight
            // is constant across the item loop, so it is materialized
            // once per generation instead of repacked per item.
            sgemm(false, false, k, full, out_cg,
                  packedWeightT(gp).ptr(), dyg, dcols.data());

            // Scatter-add straight into this group's channel window.
            col2im(dcols, i, g, dx, gp * in_cg);

            // db += column sums of dY.
            float *bgrad = w->bias.grad.data() + gp * out_cg;
            for (std::size_t f = 0; f < out_cg; ++f) {
                double s = 0.0;
                for (std::size_t p = 0; p < full; ++p)
                    s += dyg[f * full + p];
                bgrad[f] += float(s);
            }
        }
    }
    return dx;
}

} // namespace pcnn
