#include "nn/inference_defaults.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace pcnn {

namespace {

bool
isOff(const char *v)
{
    return v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0 ||
           std::strcmp(v, "false") == 0;
}

bool
isOn(const char *v)
{
    return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0;
}

void
warnUnknown(const char *name, const char *v, const char *want)
{
    pcnn_warn(name, "=", v, " is not ", want,
              " (unset, \"\", 0 or false is off); keeping the default, "
              "off");
}

/** One on/off variable; an unknown value keeps the default, off. */
bool
parseSwitch(const EnvLookup &lookup, const char *name)
{
    const char *v = lookup(name);
    if (isOff(v))
        return false;
    if (isOn(v))
        return true;
    warnUnknown(name, v, "1 or true");
    return false;
}

} // namespace

InferenceDefaults
parseInferenceDefaults(const EnvLookup &lookup)
{
    InferenceDefaults d;
    d.graph = parseSwitch(lookup, "PCNN_GRAPH");
    d.quantize = parseSwitch(lookup, "PCNN_QUANTIZE");

    const char *algo = lookup("PCNN_CONV_ALGO");
    ConvAlgo a = ConvAlgo::Im2col;
    if (isOff(algo) || std::strcmp(algo, "auto") == 0)
        return d;
    if (parseConvAlgo(algo, a))
        d.convAlgo = a;
    else
        warnUnknown("PCNN_CONV_ALGO", algo,
                    "im2col, direct1x1, winograd or auto");
    return d;
}

const InferenceDefaults &
inferenceDefaults()
{
    static const InferenceDefaults d = parseInferenceDefaults(std::getenv);
    return d;
}

} // namespace pcnn
