/**
 * @file
 * Fully connected (classifier) layer.
 */

#ifndef PCNN_NN_FC_LAYER_HH
#define PCNN_NN_FC_LAYER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"
#include "tensor/quant.hh"
#include "tensor/tensor_ops.hh"

namespace pcnn {

/**
 * y = W x + b over flattened input items. The input may carry any
 * [c,h,w] factorization as long as c*h*w == inFeatures; the output is
 * [n, outFeatures, 1, 1].
 */
class FcLayer : public Layer
{
  public:
    /**
     * @param name stable layer name
     * @param in_features flattened input feature count
     * @param out_features output feature count
     * @param rng weight-initialization stream
     */
    FcLayer(std::string name, std::size_t in_features,
            std::size_t out_features, Rng &rng);

    std::string name() const override { return layerName; }
    std::string kind() const override { return "fc"; }
    Shape outputShape(const Shape &in) const override;
    void forwardInto(const Tensor &x, bool train,
                     Tensor &y) override;
    Tensor backward(const Tensor &dy) override;
    std::vector<Param *> params() override;
    double flopsPerImage(const Shape &in) const override;
    bool canFuseRelu() const override { return true; }
    void forwardFusedReluInto(const Tensor &x, Tensor &y) override;
    std::unique_ptr<Layer> cloneShared() override;

    /** Input feature count. */
    std::size_t inFeatures() const { return nIn; }

    /** Output feature count. */
    std::size_t outFeatures() const { return nOut; }

    /**
     * Route inference forwards through the int8 path (quant.hh):
     * per-channel int8 weight panel, per-tensor input quantization,
     * qgemm with the fused dequant+bias+ReLU epilogue. Training
     * forwards always stay fp32. For serving, enable before
     * cloneSharingWeights() so the warm-up forward materializes the
     * shared panel single-threaded.
     */
    void setQuantized(bool on) { quantOn = on; }

    /** True when the int8 route is enabled on this layer. */
    bool quantizedEnabled() const { return quantOn; }

    /** True when a forward with this `train` flag runs int8 (the
     * layer flag, whose construction default is PCNN_QUANTIZE; never
     * during training). */
    bool effectiveQuantized(bool train) const;

    /** Pin offline-calibrated input-activation quant params (from a
     * QuantProfile); without them the forward derives params from
     * the live input's min/max. */
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

    std::size_t
    steadyStateScratchBytes() const override
    {
        return qx.capacity() + yT.capacity() * sizeof(float);
    }

  private:
    /**
     * Parameters and the persistent packed panel derived from them,
     * bundled so serving replicas can share one copy
     * (Network::cloneSharingWeights, DESIGN.md §5f). Shared-mode
     * access is read-only: the panel is materialized before worker
     * threads exist (engine warm-up) and the generation check then
     * never re-packs because shared Params refuse markUpdated().
     */
    struct FcWeights
    {
        Param weight; ///< [outFeatures, inFeatures, 1, 1]
        Param bias;   ///< [1, outFeatures, 1, 1]

        /// persistent packed W^T (nIn x nOut), generation-tagged
        /// against `weight` so SGD steps and weight loads invalidate
        /// it
        PackedPanel wPack;

        /// persistent int8 weight panel (nOut x nIn, per-channel
        /// scales), generation-tagged like wPack
        QuantizedPanel qPack;
    };

    /** Weight-sharing replica constructor (see cloneShared). */
    FcLayer(const FcLayer &) = default;

    /** W^T panel for forward, rebuilt when `weight` changes. */
    const PackedPanel &packedWeightT();

    /** Int8 weight panel, rebuilt when `weight` changes. */
    const QuantizedPanel &quantizedWeight();

    /** Shared forward body; fuse_relu folds a ReLU into the store. */
    void forwardImpl(const Tensor &x, bool train, bool fuse_relu,
                     Tensor &y);

    std::string layerName;
    std::size_t nIn;
    std::size_t nOut;
    std::shared_ptr<FcWeights> w; ///< shared across replicas

    Tensor lastInput; ///< flattened to [n, nIn, 1, 1]
    bool haveCache = false;

    bool quantOn = false;     ///< int8 inference route enabled
    bool haveInQuant = false; ///< calibrated input params pinned
    QuantParams inQuant;      ///< the pinned input params

    // Per-replica int8 scratch (grow-only, cleared by cloneShared).
    std::vector<std::uint8_t> qx; ///< interleaved x^T panel
    std::vector<float> yT;        ///< nOut x batch staging (batch>1)
};

} // namespace pcnn

#endif // PCNN_NN_FC_LAYER_HH
