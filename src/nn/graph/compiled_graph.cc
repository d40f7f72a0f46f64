/**
 * @file
 * CompiledGraph materialization and execution (DESIGN.md §5j).
 *
 * Execution invokes the exact same layer forwards as the legacy
 * chain, in the same order, on inputs holding the same bytes — the
 * only differences are *where* outputs land (offset-assigned arena
 * views instead of ping-pong buffers) and that per-item ops run in
 * an item loop. Both are bitwise-neutral: conv forwards fan out per
 * (item, group) anyway, every other tiled layer is item-separable by
 * construction, and arena views guarantee the address-disjointness
 * the layer contracts require via the lifetime plan.
 */

#include "nn/graph/compiled_graph.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/tags.hh"
#include "nn/graph/graph_internal.hh"
#include "nn/network.hh"

namespace pcnn {

std::unique_ptr<CompiledGraph>
CompiledGraph::materialize(Network &net, GraphSchedule schedule,
                           std::vector<Layer *> layer_table)
{
    PCNN_CHECK(validateGraphSchedule(schedule), net.name(),
               ": graph schedule failed structural validation");

    // Check the schedule against the live network: every op must
    // name the layer it was compiled from and produce exactly the
    // shape the plan reserved. A stale or foreign plan fails here,
    // loudly, before any execution state exists.
    for (const GraphOp &op : schedule.ops) {
        if (op.exec == GraphOpExec::CopyWindow)
            continue;
        PCNN_CHECK(op.layer < layer_table.size(), net.name(),
                   ": schedule op references layer ", op.layer,
                   " but the network flattens to ",
                   layer_table.size());
        Layer *l = layer_table[op.layer];
        PCNN_CHECK(l->kind() == op.layerKind &&
                       l->name() == op.layerName,
                   net.name(), ": schedule op expects layer '",
                   op.layerName, "' (", op.layerKind, ") but slot ",
                   op.layer, " holds '", l->name(), "' (", l->kind(),
                   ")");
        const GraphValue &ov = schedule.values[std::size_t(op.output)];
        Shape in = net.inputShape();
        if (op.input != kGraphInputValue) {
            const GraphValue &iv =
                schedule.values[std::size_t(op.input)];
            in = Shape{1, iv.c, iv.h, iv.w};
        }
        const Shape out = l->outputShape(in);
        PCNN_CHECK(out.c == op.chanCount && out.h == ov.h &&
                       out.w == ov.w,
                   net.name(), ": layer '", op.layerName,
                   "' produces ", out.str(),
                   " but the schedule reserved [", op.chanCount, ",",
                   ov.h, ",", ov.w, "]");
    }

    // Item tiling is only compiled for pure-fp32 networks (dynamic
    // activation-quant params are batch-coupled); a tiled schedule
    // adopted onto a quantized network would change results.
    PCNN_CHECK(schedule.tiledOps == 0 || !graphQuantFingerprint(net),
               net.name(),
               ": item-tiled schedule adopted onto a quantized "
               "network (stale plan)");

    auto g = std::unique_ptr<CompiledGraph>(new CompiledGraph());
    g->sched = std::move(schedule);
    g->flat = std::move(layer_table);

    // The single arena allocation this replica's activations live in.
    g->arena.resize(g->sched.arenaFloats);
    g->valBind.resize(g->sched.values.size());
    for (std::size_t v = 0; v < g->sched.values.size(); ++v) {
        const GraphValue &val = g->sched.values[v];
        if (val.isOutput) {
            g->outputValue = int(v);
            continue;
        }
        // Per-item views never change shape; bind them once.
        // Batch-wide views are rebound per run at the live n.
        if (val.perItem)
            g->valBind[v].bindView(g->arena.data() + val.offset,
                                   val.extent,
                                   Shape{1, val.c, val.h, val.w});
    }

    const GraphValue &ov =
        g->sched.values[std::size_t(g->outputValue)];
    std::size_t writers = 0;
    const GraphOp *w0 = nullptr;
    for (const GraphOp &op : g->sched.ops)
        if (op.output == g->outputValue) {
            ++writers;
            w0 = &op;
        }
    g->directOut = writers == 1 && !w0->tiled &&
                   w0->exec != GraphOpExec::CopyWindow &&
                   w0->chanOff == 0 && w0->chanCount == ov.c;

    g->quantSnap = graphQuantFingerprint(net);
    return g;
}

std::unique_ptr<CompiledGraph>
CompiledGraph::compile(Network &net, std::size_t batch)
{
    LoweredGraph lowered = lowerAndOptimize(net, batch);
    planGraphArena(lowered.sched);
    return materialize(net, std::move(lowered.sched),
                       std::move(lowered.flat));
}

std::unique_ptr<CompiledGraph>
CompiledGraph::adopt(Network &net, const GraphSchedule &s)
{
    return materialize(net, s, flattenNetworkLayers(net));
}

PCNN_HOT_PATH
void
CompiledGraph::execOp(std::size_t k, std::size_t item,
                      const Tensor &x, Tensor &out, std::size_t n)
{
    const GraphOp &op = sched.ops[k];

    // Source: the network input (whole, or this item's window) or a
    // bound arena view.
    const Tensor *src;
    if (op.input == kGraphInputValue)
        src = op.tiled ? &itemIn : &x;
    else
        src = &valBind[std::size_t(op.input)];

    const GraphValue &dv = sched.values[std::size_t(op.output)];
    const std::size_t plane = dv.h * dv.w;

    if (op.exec == GraphOpExec::CopyWindow) {
        // Residual concat staging copy (batch-wide, non-tiled):
        // byte-for-byte the legacy InceptionLayer concat loop.
        float *base = dv.isOutput ? out.data()
                                  : arena.data() + dv.offset;
        const std::size_t item_floats = src->shape().itemSize();
        const float *sp = src->data();
        for (std::size_t i = 0; i < n; ++i)
            std::copy(sp + i * item_floats,
                      sp + (i + 1) * item_floats,
                      base + (i * dv.c + op.chanOff) * plane);
        return;
    }

    Layer *l = flat[op.layer];
    Tensor *dst;
    if (dv.isOutput && directOut) {
        dst = &out;
    } else {
        const bool whole = !dv.isOutput && op.chanOff == 0 &&
                           op.chanCount == dv.c &&
                           (dv.perItem || !op.tiled);
        if (whole) {
            dst = &valBind[std::size_t(op.output)];
        } else {
            // Channel (and, for tiled writers of batch-wide values,
            // item) window: a [1, chanCount, h, w] view at the
            // window's offset. Contiguous because windows span whole
            // channel planes of one item.
            float *base = dv.isOutput ? out.data()
                                      : arena.data() + dv.offset;
            const std::size_t item_idx =
                (!dv.perItem && op.tiled) ? item : 0;
            dstHdr.bindView(
                base + (item_idx * dv.c + op.chanOff) * plane,
                op.chanCount * plane,
                Shape{1, op.chanCount, dv.h, dv.w});
            dst = &dstHdr;
        }
    }

    if (op.exec == GraphOpExec::LayerFusedRelu)
        l->forwardFusedReluInto(*src, *dst);
    else
        // pcnn-analyze: allow(hot-path-alloc): virtual layer
        // dispatch; the conv/fc forwards are tagged hot-path roots
        // themselves, and the name would otherwise also resolve to
        // Network::forwardInto (unreachable from here).
        l->forwardInto(*src, false, *dst);
}

PCNN_HOT_PATH
void
CompiledGraph::run(const Tensor &x, Tensor &out)
{
    const Shape xs = x.shape();
    const std::size_t n = xs.n;
    PCNN_CHECK(n >= 1 && n <= sched.batch,
               "compiled graph capacity is batch ", sched.batch,
               " but the input has n=", n);

    const GraphValue &ov = sched.values[std::size_t(outputValue)];
    if (!directOut) {
        // Window writers fill every byte; the resize matches the
        // legacy last layer's own y.resize on the caller's tensor.
        // pcnn-analyze: allow(hot-path-alloc): grow-only caller
        // buffer; capacity is reused once warm (DESIGN.md §5h).
        out.resize(Shape{n, ov.c, ov.h, ov.w});
    }

    // Rebind batch-wide views at the live batch. Arena addresses are
    // fixed; only the Tensor headers change, with no allocator
    // traffic.
    for (std::size_t v = 0; v < sched.values.size(); ++v) {
        const GraphValue &val = sched.values[v];
        if (!val.isOutput && !val.perItem)
            valBind[v].bindView(arena.data() + val.offset, val.extent,
                                Shape{n, val.c, val.h, val.w});
    }

    if (sched.tiledOps > 0) {
        const std::size_t item_floats = xs.itemSize();
        // The views only ever read the input; Tensor views have no
        // const flavour, hence the cast.
        float *xbase = const_cast<float *>(x.data());
        for (std::size_t i = 0; i < n; ++i) {
            itemIn.bindView(xbase + i * item_floats, item_floats,
                            Shape{1, xs.c, xs.h, xs.w});
            for (std::size_t k = 0; k < sched.tiledOps; ++k)
                execOp(k, i, x, out, n);
        }
    }
    for (std::size_t k = sched.tiledOps; k < sched.ops.size(); ++k)
        execOp(k, 0, x, out, n);
}

} // namespace pcnn
