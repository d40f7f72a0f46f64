#include "nn/fusion.hh"

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace pcnn {

namespace {

/** ReLU-folding flag, seeded from PCNN_FOLD_RELU ("0" disables). */
bool &
reluFoldSlot()
{
    static bool on = [] {
        const char *e = std::getenv("PCNN_FOLD_RELU");
        return !(e != nullptr && std::string(e) == "0");
    }();
    return on;
}

struct ForcedAlgo
{
    bool active = false;
    ConvAlgo algo = ConvAlgo::Im2col;
};

/** Forced-algorithm slot, seeded from PCNN_CONV_ALGO on first use. */
ForcedAlgo &
forcedAlgoSlot()
{
    static ForcedAlgo slot = [] {
        ForcedAlgo f;
        const char *e = std::getenv("PCNN_CONV_ALGO");
        if (e == nullptr || *e == '\0' || std::string(e) == "auto")
            return f;
        ConvAlgo a;
        if (parseConvAlgo(e, a)) {
            f.active = true;
            f.algo = a;
        } else {
            pcnn_warn("PCNN_CONV_ALGO=", e,
                      " is not a known algorithm (want im2col | "
                      "direct1x1 | winograd | auto); ignoring");
        }
        return f;
    }();
    return slot;
}

/**
 * PCNN_QUANTIZE environment seed ("1"/"true" forces int8). Reached
 * from quantized forwards, so the comparison stays allocation-free
 * (the hot-path analyzer walks through the one-time static init).
 */
bool
quantizeEnvSeed()
{
    static const bool on = [] {
        const char *e = std::getenv("PCNN_QUANTIZE");
        return e != nullptr && (std::strcmp(e, "1") == 0 ||
                                std::strcmp(e, "true") == 0);
    }();
    return on;
}

/** Forced-quantization slot, seeded from PCNN_QUANTIZE. */
bool &
quantizeSlot()
{
    static bool on = quantizeEnvSeed();
    return on;
}

/** PCNN_GRAPH environment seed ("1"/"true" enables). */
bool
graphEnvSeed()
{
    static const bool on = [] {
        const char *e = std::getenv("PCNN_GRAPH");
        return e != nullptr && (std::strcmp(e, "1") == 0 ||
                                std::strcmp(e, "true") == 0);
    }();
    return on;
}

/** Compiled-graph dispatch slot, seeded from PCNN_GRAPH. */
bool &
graphSlot()
{
    static bool on = graphEnvSeed();
    return on;
}

} // namespace

bool
reluFoldingEnabled()
{
    return reluFoldSlot();
}

void
setReluFolding(bool on)
{
    reluFoldSlot() = on;
}

bool
forcedConvAlgo(ConvAlgo &out)
{
    const ForcedAlgo &f = forcedAlgoSlot();
    if (f.active)
        out = f.algo;
    return f.active;
}

void
setForcedConvAlgo(ConvAlgo algo)
{
    forcedAlgoSlot() = ForcedAlgo{true, algo};
}

void
clearForcedConvAlgo()
{
    forcedAlgoSlot() = ForcedAlgo{};
}

bool
quantizeForced()
{
    return quantizeSlot();
}

void
setQuantizeForced(bool on)
{
    quantizeSlot() = on;
}

void
clearQuantizeForced()
{
    quantizeSlot() = quantizeEnvSeed();
}

bool
graphEnabled()
{
    return graphSlot();
}

void
setGraphEnabled(bool on)
{
    graphSlot() = on;
}

} // namespace pcnn
