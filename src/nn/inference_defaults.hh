/**
 * @file
 * Construction defaults for the inference settings (DESIGN.md §5e).
 *
 * Every inference setting lives on the object it steers: the conv
 * algorithm and the int8 route on each ConvLayer / FcLayer, graph
 * dispatch on each Network. Three environment variables seed those
 * settings when the objects are constructed; an explicit setting
 * (an offline plan's pin, applyQuantProfile, a test) always wins:
 *
 *  - PCNN_CONV_ALGO=im2col|direct1x1|winograd pins every conv layer
 *    whose geometry is eligible for that algorithm (setAlgo);
 *    `auto` leaves the cost model in charge.
 *  - PCNN_QUANTIZE=1 turns on every Conv/Fc layer's int8 route
 *    (setQuantized). Training forwards are never quantized.
 *  - PCNN_GRAPH=1 turns on a Network's compiled-graph dispatch
 *    (setGraphDispatch, DESIGN.md §5j); results are bitwise equal
 *    either way.
 *
 * The variables are parsed once, on first use, by one rule: unset,
 * "", "0" or "false" is off; "1" or "true" is on (for PCNN_CONV_ALGO:
 * an algorithm name); anything else warns and keeps the default.
 * Nothing here is read by a forward pass.
 */

#ifndef PCNN_NN_INFERENCE_DEFAULTS_HH
#define PCNN_NN_INFERENCE_DEFAULTS_HH

#include <functional>
#include <optional>

#include "nn/conv_spec.hh"

namespace pcnn {

/** The settings new layers and networks start from. */
struct InferenceDefaults
{
    bool graph = false;    ///< PCNN_GRAPH: Network graph dispatch
    bool quantize = false; ///< PCNN_QUANTIZE: Conv/Fc int8 route
    /// PCNN_CONV_ALGO: algorithm pinned on every eligible ConvLayer
    std::optional<ConvAlgo> convAlgo;
};

/** Variable name -> value, or nullptr when unset (like getenv). */
using EnvLookup = std::function<const char *(const char *)>;

/** Parse the three variables read through `lookup` (file comment). */
InferenceDefaults parseInferenceDefaults(const EnvLookup &lookup);

/** The process environment's defaults, parsed on first use. */
const InferenceDefaults &inferenceDefaults();

} // namespace pcnn

#endif // PCNN_NN_INFERENCE_DEFAULTS_HH
