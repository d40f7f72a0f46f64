/**
 * @file
 * Convolutional layer with run-time perforation support.
 *
 * Implements the paper's perforation/interpolation approximation
 * (Section IV.C, Fig. 11): instead of computing all W_o x H_o output
 * positions, only a uniform W'_o x H'_o subset is computed (shrinking
 * the N dimension of the underlying SGEMM) and the remaining values
 * are filled in by nearest-neighbour interpolation, leaving the
 * network architecture — and hence all downstream shapes — unchanged.
 */

#ifndef PCNN_NN_CONV_LAYER_HH
#define PCNN_NN_CONV_LAYER_HH

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv_spec.hh"
#include "nn/layer.hh"
#include "tensor/quant.hh"
#include "tensor/winograd.hh"

namespace pcnn {

/** How perforated (non-computed) output positions are filled. */
enum class InterpolationMode
{
    Nearest, ///< copy the nearest computed position
    Average, ///< average the surrounding computed grid points
};

/**
 * 2-D convolution lowered to im2col + SGEMM, with optional grouped
 * convolution (AlexNet-style) and perforation.
 */
class ConvLayer : public Layer
{
  public:
    /**
     * Construct with a shape spec and initialize weights.
     * @param spec layer geometry; inH/inW must be set
     * @param rng weight-initialization stream (He-style init)
     */
    ConvLayer(ConvSpec spec, Rng &rng);

    std::string name() const override { return spc.name; }
    std::string kind() const override { return "conv"; }
    Shape outputShape(const Shape &in) const override;
    void forwardInto(const Tensor &x, bool train,
                     Tensor &y) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<Param *> params() override;
    double flopsPerImage(const Shape &in) const override;
    bool canFuseRelu() const override { return true; }
    void forwardFusedReluInto(const Tensor &x, Tensor &y) override;
    std::unique_ptr<Layer> cloneShared() override;

    /** The architecture-level spec this layer realizes. */
    const ConvSpec &spec() const { return spc; }

    /**
     * Pin the conv algorithm (normally from an offline plan's
     * per-layer field); must be eligible for this geometry. A
     * PCNN_CONV_ALGO construction default is pinned the same way, so
     * an explicit call replaces it.
     */
    void setAlgo(ConvAlgo a);

    /** Pinned algorithm, or the cost-model choice when unpinned. */
    ConvAlgo plannedAlgo() const;

    /**
     * The algorithm the next forward will actually run: the pinned
     * choice, else the cost model's; training and perforated forwards
     * always take the exact im2col/1x1 route.
     */
    ConvAlgo effectiveAlgo(bool train) const;

    /**
     * Set the number of *computed* output positions per image.
     * 0 or the full grid size disables perforation. The effective
     * value is clamped to at least 1.
     *
     * Perforation is an inference-time approximation; backward()
     * refuses to run while it is active.
     */
    void setComputedPositions(std::size_t positions);

    /** Currently computed positions per image (full grid if intact). */
    std::size_t computedPositions() const;

    /** Full output grid size W_o * H_o. */
    std::size_t fullPositions() const { return spc.outH() * spc.outW(); }

    /** Perforation rate 1 - W'_o H'_o / W_o H_o (0 when intact). */
    double perforationRate() const;

    /** True when a reduced position set is active. */
    bool perforated() const { return computed < fullPositions(); }

    /** Select how non-computed positions are filled (Fig. 11). */
    void setInterpolationMode(InterpolationMode mode);

    /** Current interpolation mode. */
    InterpolationMode interpolationMode() const { return interpMode; }

    /**
     * Route inference forwards through the int8 path (quant.hh):
     * im2col output quantized per-tensor, per-channel int8 weight
     * panels, qgemm with the fused dequant+bias+ReLU epilogue.
     * Training forwards always stay fp32. Like the winograd panels,
     * the quantized panels materialize lazily on the next forward —
     * for serving, enable before cloneSharingWeights() so the
     * warm-up forward builds them while the bundle is still
     * single-threaded and replicas then share them read-only.
     */
    void setQuantized(bool on) { quantOn = on; }

    /** True when the int8 route is enabled on this layer. */
    bool quantizedEnabled() const { return quantOn; }

    /**
     * True when a forward with this `train` flag runs int8: enabled
     * on this layer (plan v3 / precision tuning, or the PCNN_QUANTIZE
     * construction default); never during training.
     */
    bool effectiveQuantized(bool train) const;

    /**
     * Pin offline-calibrated input-activation quantization params
     * (from a QuantProfile). Without them the forward derives
     * params from the live input's min/max — still deterministic
     * per input batch, but batch-composition dependent.
     */
    void
    setInputQuant(const QuantParams &qp)
    {
        inQuant = qp;
        haveInQuant = true;
    }

    /** Drop pinned input params; revert to dynamic ranges. */
    void clearInputQuant() { haveInQuant = false; }

    /** True when offline-calibrated input params are pinned. */
    bool hasInputQuant() const { return haveInQuant; }

    /**
     * Job scratch (fused im2col/packed-B panel + SGEMM output), one
     * per thread, shared by every conv on it, and grow-only, so the
     * hot path performs no per-forward allocations once warm, even
     * when full-resolution and perforated layers alternate on the
     * same thread.
     */
    struct Scratch
    {
        std::vector<float> cols;
        std::vector<float> gemmOut;
        std::vector<std::uint8_t> qcols; ///< int8 activation panel
        WinogradScratch wino;
    };

    /**
     * True when this layer's convolution is a pure channel mixer
     * (1x1 kernel, stride 1, no padding): its im2col matrix is
     * bit-for-bit the input channel window, so forward feeds SGEMM
     * the input tensor directly with no im2col at all.
     */
    bool
    is1x1Passthrough() const
    {
        return spc.kernel == 1 && spc.stride == 1 && spc.pad == 0;
    }

  private:
    /**
     * Parameters plus every persistent weight-derived panel, bundled
     * so serving replicas share one copy (DESIGN.md §5f). In shared
     * mode the bundle is read-only: the engine warm-up forward
     * materializes the panels the inference route needs before any
     * worker thread exists, and because shared Params refuse
     * markUpdated() the generation checks never re-pack afterwards.
     */
    struct ConvWeights
    {
        Param weight; ///< [outC, inC/groups, k, k]
        Param bias;   ///< [1, outC, 1, 1]

        /// per-group W^T panels (colRows x outC/groups) reused across
        /// the backward item loop; invalidated by weight generation
        /// bumps
        std::vector<PackedPanel> wtPack;

        /// per-group winograd U^T panels (16 x inC/g x outC/g),
        /// persistent across forwards; invalidated by weight
        /// generation bumps
        std::vector<WinogradWeights> winoPack;

        /// per-group int8 weight panels (outC/g x colRows,
        /// per-channel scales), persistent across forwards;
        /// invalidated by weight generation bumps
        std::vector<QuantizedPanel> qPack;
    };

    /** Weight-sharing replica constructor (see cloneShared). */
    ConvLayer(const ConvLayer &) = default;

    /** Lazily build the sampled-position set and interpolation map. */
    void rebuildSampling();

    /** Shared forward body; fuse_relu folds a ReLU into the output. */
    void forwardImpl(const Tensor &x, bool train, bool fuse_relu,
                     Tensor &y);

    /** Forward for one batch item and one group. `quant` selects
     * the int8 route, `aq` carries the batch's activation params
     * (resolved once in forwardImpl so every job agrees). */
    void forwardItemGroup(const Tensor &x, Tensor &y, std::size_t item,
                          std::size_t group, ConvAlgo algo,
                          bool fuse_relu, bool quant,
                          const QuantParams &aq, Scratch &scr);

    /** Per-group packed W^T panels for backward, gen-checked. */
    const PackedPanel &packedWeightT(std::size_t group);

    /**
     * Per-group pre-transformed winograd weights, gen-checked. Not
     * thread-safe: forwardImpl materializes every group before the
     * (item, group) fan-out so workers only read.
     */
    const WinogradWeights &winogradGroupWeights(std::size_t group);

    /**
     * Per-group int8 weight panels, gen-checked. Same threading
     * contract as winogradGroupWeights: forwardImpl materializes
     * every group before the (item, group) fan-out.
     */
    const QuantizedPanel &quantizedGroupWeights(std::size_t group);

    ConvSpec spc;
    std::shared_ptr<ConvWeights> w; ///< shared across replicas

    std::size_t computed;            ///< computed positions per image
    InterpolationMode interpMode = InterpolationMode::Nearest;
    std::vector<std::size_t> sample; ///< computed position indices
    /// for every output position, the computed position to copy from
    /// (nearest mode)
    std::vector<std::size_t> fillFrom;
    /// for every output position, up to four computed-grid sources
    /// plus a weight (average mode); stored flat as 4 indices with
    /// npos-style sentinel of sample.size()
    std::vector<std::array<std::size_t, 4>> fillAvg;

    // Training caches.
    Tensor lastInput;
    bool haveCache = false;

    bool algoPinned = false; ///< plan pinned a specific algorithm
    ConvAlgo algoSel = ConvAlgo::Im2col; ///< the pinned choice

    bool quantOn = false;     ///< int8 inference route enabled
    bool haveInQuant = false; ///< calibrated input params pinned
    QuantParams inQuant;      ///< the pinned input params
};

} // namespace pcnn

#endif // PCNN_NN_CONV_LAYER_HH
