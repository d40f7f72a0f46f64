#include "pcnn/runtime/accuracy_tuner.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.hh"
#include "pcnn/offline/resource_model.hh"
#include "tensor/tensor_ops.hh"
#include "train/loss.hh"

namespace pcnn {

AccuracyTuner::AccuracyTuner(GpuSpec gpu, TunerConfig config)
    : gpuSpec(gpu), cfg(config), timeModel(std::move(gpu))
{
    pcnn_assert(cfg.stepFraction > 0.0 && cfg.stepFraction < 1.0,
                "stepFraction must be in (0,1)");
}

double
AccuracyTuner::layerTimeAt(const CompiledPlan &plan, std::size_t layer,
                           std::size_t positions) const
{
    return layerTimeAt(plan, layer, positions, false);
}

double
AccuracyTuner::layerTimeAt(const CompiledPlan &plan, std::size_t layer,
                           std::size_t positions, bool quantized)
    const
{
    const LayerSchedule &ls = plan.layers.at(layer);
    TunedKernel k = ls.kernel;
    // Re-derive optSM for the perforated grid (resource model).
    const GemmShape gemm = ls.layer.gemmShape(plan.batch, positions);
    const SgemmModel model(gpuSpec, k.config);
    k.optSM =
        optimalSms(model.gridSize(gemm), k.optTLP, gpuSpec.numSMs);
    double t = timeModel.layerTime(ls.layer, k, plan.batch, positions);
    if (quantized)
        t /= std::max(cfg.int8Speedup, 1.0);
    return t;
}

double
AccuracyTuner::predictedTime(const CompiledPlan &plan,
                             const std::vector<std::size_t> &positions)
    const
{
    pcnn_assert(positions.size() == plan.layers.size(),
                "position vector mismatches plan layers");
    double conv = 0.0;
    for (std::size_t i = 0; i < plan.layers.size(); ++i)
        conv += layerTimeAt(plan, i, positions[i]);
    return conv + plan.time.fcS + plan.time.auxS;
}

std::size_t
AccuracyTuner::shrink(std::size_t current, std::size_t full,
                      std::size_t tile_n) const
{
    // Keep W'_o H'_o a multiple of the kernel's n to maximize rEC
    // (Section IV.C.1); small networks align to 8 so the path has
    // useful granularity.
    const std::size_t align = full >= 4 * tile_n ? tile_n : 8;
    const auto target = std::size_t(
        std::floor(double(current) * cfg.stepFraction));
    std::size_t aligned = (target / align) * align;
    aligned = std::max(aligned, std::max(cfg.minPositions,
                                         std::size_t(1)));
    return aligned < current ? aligned : 0;
}

namespace {

/** Evaluation hooks shared by the three tuning variants. */
struct TuneOracle
{
    /// measure (entropy, accuracy) at a (positions, quant) assignment;
    /// the quant vector is empty when the precision axis is off
    std::function<std::pair<double, double>(
        const std::vector<std::size_t> &,
        const std::vector<std::uint8_t> &)>
        measure;
    /// true when the stop criterion fires for a committed entry
    std::function<bool(const TuningEntry &, const TuningEntry &level0)>
        stop;
    /// score an adjustment: higher is better (the TE metric)
    std::function<double(double dt, const TuningEntry &prev,
                         double entropy, double accuracy)>
        score;
};

} // namespace

// The greedy loop of Fig. 12, shared across guidance modes. With
// `allow_quant` each iteration considers two kinds of adjustment per
// layer — shrink its grid, or flip it fp32 -> int8 — and commits
// whichever scores best across all layers and both axes.
static TuningTable
greedyTune(const AccuracyTuner &tuner, const CompiledPlan &plan,
           const TunerConfig &cfg,
           const std::vector<std::size_t> &full_positions,
           const std::vector<std::size_t> &tile_n, bool allow_quant,
           const TuneOracle &oracle,
           const std::function<std::size_t(std::size_t, std::size_t,
                                           std::size_t)> &shrink)
{
    const std::size_t n_layers = plan.layers.size();
    std::vector<std::size_t> current = full_positions;
    // Per-layer precision state; stays empty (legacy entries) when
    // the precision axis is off so replay paths are byte-identical.
    std::vector<std::uint8_t> quant(allow_quant ? n_layers : 0, 0);

    // Per-layer conv times, maintained incrementally: a trial only
    // re-prices the layer it perforates.
    std::vector<double> layer_time(n_layers);
    double conv_time = 0.0;
    for (std::size_t i = 0; i < n_layers; ++i) {
        layer_time[i] = tuner.layerTimeAt(plan, i, current[i]);
        conv_time += layer_time[i];
    }
    const double fc_aux = plan.time.fcS + plan.time.auxS;

    TuningTable table;
    TuningEntry level0;
    level0.positions = current;
    level0.quant = quant;
    level0.predictedTimeS = conv_time + fc_aux;
    auto [e0, a0] = oracle.measure(current, quant);
    level0.entropy = e0;
    level0.accuracy = a0;
    level0.speedup = 1.0;
    table.push(level0);

    const std::size_t max_iters =
        cfg.maxIterations ? cfg.maxIterations : 6 * n_layers;

    TuningEntry prev = level0;
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
        double best_score = -1.0;
        int best_layer = -1;
        bool best_precision = false;
        double best_layer_time = 0.0;
        TuningEntry best_entry;

        const auto consider = [&](std::size_t i, bool precision,
                                  std::vector<std::size_t> trial_pos,
                                  std::vector<std::uint8_t> trial_q,
                                  double cand_layer_time) {
            const double t =
                conv_time - layer_time[i] + cand_layer_time + fc_aux;
            auto [entropy, acc] =
                oracle.measure(trial_pos, trial_q);
            const double dt = prev.predictedTimeS - t;
            const double score = oracle.score(dt, prev, entropy, acc);
            if (score > best_score) {
                best_score = score;
                best_layer = int(i);
                best_precision = precision;
                best_layer_time = cand_layer_time;
                best_entry.positions = std::move(trial_pos);
                best_entry.quant = std::move(trial_q);
                best_entry.predictedTimeS = t;
                best_entry.entropy = entropy;
                best_entry.accuracy = acc;
            }
        };

        for (std::size_t i = 0; i < n_layers; ++i) {
            const bool is_quant = allow_quant && quant[i] != 0;
            // Walk down the aligned position counts until this
            // layer's time actually drops: alignment plateaus (the
            // grid only changes every tile-n positions) and optSM
            // repacking can make single steps useless or even
            // slightly harmful — committing those would trade
            // accuracy for nothing.
            std::size_t cand =
                shrink(current[i], full_positions[i], tile_n[i]);
            double cand_layer_time =
                cand ? tuner.layerTimeAt(plan, i, cand, is_quant)
                     : 0.0;
            while (cand != 0 &&
                   cand_layer_time >= layer_time[i] - 1e-12) {
                const std::size_t next =
                    shrink(cand, full_positions[i], tile_n[i]);
                if (next == 0) {
                    cand = 0;
                    break;
                }
                cand = next;
                cand_layer_time =
                    tuner.layerTimeAt(plan, i, cand, is_quant);
            }
            if (cand != 0) {
                std::vector<std::size_t> trial = current;
                trial[i] = cand;
                consider(i, false, std::move(trial), quant,
                         cand_layer_time);
            }

            // Precision candidate: flip this layer to int8 at its
            // current grid. One-way — the tuning-table invariant
            // (and the paper's monotone walk) forbids reverting.
            if (allow_quant && quant[i] == 0) {
                const double q_time =
                    tuner.layerTimeAt(plan, i, current[i], true);
                if (q_time < layer_time[i] - 1e-12) {
                    std::vector<std::uint8_t> qtrial = quant;
                    qtrial[i] = 1;
                    consider(i, true, current, std::move(qtrial),
                             q_time);
                }
            }
        }
        if (best_layer < 0)
            break; // nothing left to shrink or quantize

        best_entry.speedup =
            level0.predictedTimeS / best_entry.predictedTimeS;
        best_entry.adjustedLayer = best_layer;
        best_entry.adjustedPrecision = best_precision;
        current = best_entry.positions;
        quant = best_entry.quant;
        conv_time += best_layer_time -
                     layer_time[std::size_t(best_layer)];
        layer_time[std::size_t(best_layer)] = best_layer_time;
        table.push(best_entry);
        prev = table.entry(table.levels() - 1);
        if (oracle.stop(prev, level0))
            break;
    }
    return table;
}

TuningTable
AccuracyTuner::tuneNetwork(Network &net, const CompiledPlan &plan,
                           const Tensor &tuning_inputs) const
{
    const auto &convs = net.convLayers();
    pcnn_assert(convs.size() == plan.layers.size(),
                "plan does not match the functional network");

    std::vector<std::size_t> full(convs.size()), tile_n(convs.size());
    for (std::size_t i = 0; i < convs.size(); ++i) {
        full[i] = convs[i]->fullPositions();
        tile_n[i] = plan.layers[i].kernel.config.tile.n;
    }

    TuneOracle oracle;
    oracle.measure = [&](const std::vector<std::size_t> &pos,
                         const std::vector<std::uint8_t> &q) {
        for (std::size_t i = 0; i < convs.size(); ++i) {
            convs[i]->setComputedPositions(pos[i]);
            if (!q.empty())
                convs[i]->setQuantized(q[i] != 0);
        }
        const Tensor probs = softmax(net.forward(tuning_inputs, false));
        return std::make_pair(batchEntropy(probs), -1.0);
    };
    oracle.stop = [&](const TuningEntry &e, const TuningEntry &) {
        return e.entropy > cfg.entropyThreshold;
    };
    oracle.score = [](double dt, const TuningEntry &prev,
                      double entropy, double) {
        // Eq. 14: time saved per unit of entropy increase. An
        // adjustment that does not raise entropy is a free win.
        const double de = std::max(entropy - prev.entropy, 1e-6);
        return dt / de;
    };

    auto shrink_fn = [this](std::size_t cur, std::size_t full_pos,
                            std::size_t n) {
        return shrink(cur, full_pos, n);
    };
    TuningTable table = greedyTune(*this, plan, cfg, full, tile_n,
                                   cfg.allowQuantize, oracle,
                                   shrink_fn);
    net.clearPerforation();
    if (cfg.allowQuantize)
        net.setQuantized(false);
    return table;
}

TuningTable
AccuracyTuner::tuneNetworkByAccuracy(Network &net,
                                     const CompiledPlan &plan,
                                     const Dataset &labeled) const
{
    const auto &convs = net.convLayers();
    pcnn_assert(convs.size() == plan.layers.size(),
                "plan does not match the functional network");

    std::vector<std::size_t> full(convs.size()), tile_n(convs.size());
    for (std::size_t i = 0; i < convs.size(); ++i) {
        full[i] = convs[i]->fullPositions();
        tile_n[i] = plan.layers[i].kernel.config.tile.n;
    }
    const Tensor inputs = labeled.batch(0, labeled.size());

    TuneOracle oracle;
    oracle.measure = [&](const std::vector<std::size_t> &pos,
                         const std::vector<std::uint8_t> &q) {
        for (std::size_t i = 0; i < convs.size(); ++i) {
            convs[i]->setComputedPositions(pos[i]);
            if (!q.empty())
                convs[i]->setQuantized(q[i] != 0);
        }
        const Tensor logits = net.forward(inputs, false);
        const Tensor probs = softmax(logits);
        return std::make_pair(batchEntropy(probs),
                              accuracy(logits, labeled.labels()));
    };
    oracle.stop = [&](const TuningEntry &e, const TuningEntry &l0) {
        return e.accuracy < l0.accuracy - cfg.maxAccuracyDrop;
    };
    oracle.score = [](double dt, const TuningEntry &prev, double,
                      double acc) {
        const double da = std::max(prev.accuracy - acc, 1e-6);
        return dt / da;
    };

    auto shrink_fn = [this](std::size_t cur, std::size_t full_pos,
                            std::size_t n) {
        return shrink(cur, full_pos, n);
    };
    TuningTable table = greedyTune(*this, plan, cfg, full, tile_n,
                                   cfg.allowQuantize, oracle,
                                   shrink_fn);
    net.clearPerforation();
    if (cfg.allowQuantize)
        net.setQuantized(false);
    return table;
}

TuningTable
AccuracyTuner::tuneModeled(const CompiledPlan &plan,
                           const EntropyProfile &profile) const
{
    const std::size_t n_layers = plan.layers.size();
    std::vector<std::size_t> full(n_layers), tile_n(n_layers);
    std::vector<double> layer_flops(n_layers);
    double total_flops = 0.0;
    for (std::size_t i = 0; i < n_layers; ++i) {
        full[i] = plan.layers[i].layer.outH() *
                  plan.layers[i].layer.outW();
        tile_n[i] = plan.layers[i].kernel.config.tile.n;
        layer_flops[i] = plan.layers[i].layer.flopsPerImage();
        total_flops += layer_flops[i];
    }

    TuneOracle oracle;
    oracle.measure = [&](const std::vector<std::size_t> &pos,
                         const std::vector<std::uint8_t> &) {
        double kept = 0.0;
        for (std::size_t i = 0; i < n_layers; ++i)
            kept += layer_flops[i] * double(pos[i]) / double(full[i]);
        const double keep = total_flops > 0.0 ? kept / total_flops
                                              : 1.0;
        return std::make_pair(profile.entropyAt(keep),
                              profile.accuracyAt(keep));
    };
    oracle.stop = [&](const TuningEntry &e, const TuningEntry &) {
        return e.entropy > cfg.entropyThreshold;
    };
    oracle.score = [](double dt, const TuningEntry &prev,
                      double entropy, double) {
        const double de = std::max(entropy - prev.entropy, 1e-6);
        return dt / de;
    };

    auto shrink_fn = [this](std::size_t cur, std::size_t full_pos,
                            std::size_t n) {
        return shrink(cur, full_pos, n);
    };
    // Modeled profiles map a FLOP keep-fraction to entropy; they
    // carry no information about int8 error, so the precision axis
    // stays off here regardless of cfg.allowQuantize.
    return greedyTune(*this, plan, cfg, full, tile_n, false, oracle,
                      shrink_fn);
}

} // namespace pcnn
