/**
 * @file
 * Architecture-level description of one convolutional layer.
 *
 * ConvSpec carries exactly the parameters the paper's analytical
 * models consume: N_f, S_f, N_c, W_o, H_o, stride, padding and group
 * count. It is shared between the functional nn:: layers and the
 * gpu:: kernel models, and is how the published AlexNet / VGGNet /
 * GoogLeNet architectures enter the system without trained weights.
 */

#ifndef PCNN_NN_CONV_SPEC_HH
#define PCNN_NN_CONV_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "tensor/tensor_ops.hh"

namespace pcnn {

/**
 * Algorithm realizing a convolution on the CPU substrate
 * (DESIGN.md §5e). The numeric values are the on-disk encoding of
 * the per-layer algorithm field in version-2 kernel plans — never
 * renumber.
 */
enum class ConvAlgo : std::uint8_t
{
    Im2col = 0,    ///< im2col expansion + SGEMM (always applicable)
    Direct1x1 = 1, ///< in-place channel-mixer GEMM (1x1/s1/p0 only)
    Winograd = 2,  ///< F(2x2,3x3) transform domain (3x3/s1 only)
};

/** Stable lower-case name, e.g. for plans, benches and env parsing. */
const char *convAlgoName(ConvAlgo a);

/**
 * Parse a convAlgoName() string (also accepts "1x1" for Direct1x1).
 * Returns false — leaving `out` untouched — on unknown input.
 */
bool parseConvAlgo(const std::string &s, ConvAlgo &out);

/**
 * Shape-level description of a convolutional layer.
 *
 * Grouped convolutions (AlexNet CONV2/4/5) lower to `groups`
 * independent SGEMMs whose M dimension is N_f / groups — this is why
 * the paper's Table IV lists AlexNet CONV2 as a 128 x 729 result
 * matrix even though the layer has 256 filters.
 */
struct ConvSpec
{
    std::string name;      ///< e.g. "CONV2"
    std::size_t inC = 0;   ///< input channels (total, all groups)
    std::size_t outC = 0;  ///< filters N_f (total, all groups)
    std::size_t kernel = 0;///< square filter side S_f
    std::size_t stride = 1;
    std::size_t pad = 0;
    std::size_t inH = 0;
    std::size_t inW = 0;
    std::size_t groups = 1;

    /** Convolution geometry for one input item. */
    ConvGeom geom() const;

    /** Output height W.r.t. stride/pad. */
    std::size_t outH() const { return geom().outH(); }

    /** Output width. */
    std::size_t outW() const { return geom().outW(); }

    /**
     * FLOPs of the layer for one image (Eq. 1):
     * 2 N_f S_f^2 N_c W_o H_o (group-corrected).
     */
    double flopsPerImage() const;

    /**
     * The SGEMM this layer lowers to, for a given batch size and an
     * (optionally perforated) number of computed output positions per
     * image. The batch extends the N dimension, as in the deep
     * learning libraries the paper characterizes.
     *
     * @param batch batch size
     * @param positions_per_image computed output positions; defaults
     *        to the full W_o * H_o grid
     */
    GemmShape gemmShape(std::size_t batch,
                        std::size_t positions_per_image = 0) const;

    /** Number of independent SGEMMs (the group count). */
    std::size_t gemmCount() const { return groups; }

    /** True when `a` can realize this layer's geometry. */
    bool algoEligible(ConvAlgo a) const;

    /** Winograd F(2x2,3x3) tile count per image (2x2-output tiles). */
    std::size_t winogradTiles() const;

    /**
     * The per-transform-point GEMM the winograd lowering performs:
     * M = tiles * batch, N = N_f / groups, K = N_c / groups. There
     * are 16 such products per group (one per transform point), so
     * winograd's gemmCount() analogue is 16 * groups.
     */
    GemmShape winogradGemmShape(std::size_t batch) const;

    /**
     * Elements streamed by the winograd input/output transforms for
     * one batch: the 16-point transform-domain tensors plus one read
     * of the input and one write of the output. Used by the time
     * model to price the algorithm choice (DESIGN.md §5e).
     */
    double winogradTransformElems(std::size_t batch) const;

    /** Weight parameter count (including groups). */
    std::size_t weightCount() const;

    /** Output activation element count per image. */
    std::size_t outputSizePerImage() const { return outC * outH() * outW(); }

    /** Input activation element count per image. */
    std::size_t inputSizePerImage() const { return inC * inH * inW; }
};

/**
 * CPU-calibrated cost model choosing the fastest eligible algorithm
 * for a layer shape (the plan-time default; an offline plan or the
 * PCNN_CONV_ALGO construction default can pin a different choice).
 * Constants are fit against the per-algorithm latency sweep in
 * BENCH_pr4.json.
 */
ConvAlgo selectConvAlgo(const ConvSpec &spec);

} // namespace pcnn

#endif // PCNN_NN_CONV_SPEC_HH
