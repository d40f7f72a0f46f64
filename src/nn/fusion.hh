/**
 * @file
 * Process-wide inference-fusion and algorithm-dispatch controls
 * (DESIGN.md §5e).
 *
 * Process-wide switches steer the inference hot path:
 *
 *  - ReLU folding: Network (and InceptionLayer branch chains) fold a
 *    ReLU layer into the producing Conv/Fc layer's fused-epilogue
 *    forward at inference. On by default; PCNN_FOLD_RELU=0 or
 *    setReluFolding(false) disables it (A/B benching, bitwise-parity
 *    tests). Training-mode forwards never fold.
 *
 *  - Forced conv algorithm: PCNN_CONV_ALGO=im2col|direct1x1|winograd
 *    (or setForcedConvAlgo()) overrides both the offline plan's
 *    per-layer choice and the cost model, wherever the forced
 *    algorithm is eligible for the layer geometry. `auto` / unset
 *    restores normal dispatch.
 *
 *  - Forced quantization: PCNN_QUANTIZE=1 (or setQuantizeForced())
 *    routes every Conv/Fc inference forward through the int8 path
 *    regardless of per-layer flags — the quantized analogue of the
 *    tier/algorithm forcing legs in CI. Training forwards are never
 *    quantized.
 *
 *  - Compiled-graph dispatch: PCNN_GRAPH=1 (or setGraphEnabled())
 *    routes inference forwards through the compiled graph and its
 *    static arena (DESIGN.md §5j) instead of the legacy ping-pong
 *    chain. Off by default; bitwise identical results either way.
 *
 * Both are plain process-wide toggles, not per-network state: they
 * exist for benchmarking and testing, and the hot path reads them
 * without synchronization (set them before running inference).
 */

#ifndef PCNN_NN_FUSION_HH
#define PCNN_NN_FUSION_HH

#include "nn/conv_spec.hh"

namespace pcnn {

/** True when inference may fold ReLU layers into producers. */
bool reluFoldingEnabled();

/** Enable/disable ReLU folding (overrides PCNN_FOLD_RELU). */
void setReluFolding(bool on);

/**
 * Forced conv algorithm override, if active: returns true and sets
 * `out`. Seeded from PCNN_CONV_ALGO on first use.
 */
bool forcedConvAlgo(ConvAlgo &out);

/** Force every eligible conv layer onto `algo`. */
void setForcedConvAlgo(ConvAlgo algo);

/** Drop the forced algorithm; dispatch returns to plan/cost-model. */
void clearForcedConvAlgo();

/** True when every inference forward is forced onto the int8 path. */
bool quantizeForced();

/** Force (or un-force) int8 inference process-wide. */
void setQuantizeForced(bool on);

/** Restore the PCNN_QUANTIZE environment default. */
void clearQuantizeForced();

/**
 * True when inference forwards route through the compiled graph
 * (pass-manager + static arena, DESIGN.md §5j) instead of the legacy
 * layer chain. Off by default; PCNN_GRAPH=1 (or setGraphEnabled)
 * turns it on. Results are bitwise identical either way — the switch
 * exists for A/B verification and staged rollout.
 */
bool graphEnabled();

/** Enable/disable the compiled-graph path (overrides PCNN_GRAPH). */
void setGraphEnabled(bool on);

} // namespace pcnn

#endif // PCNN_NN_FUSION_HH
