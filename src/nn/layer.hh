/**
 * @file
 * Abstract Layer interface for the functional CNN substrate.
 *
 * Layers support forward execution (inference and training mode) and
 * a backward pass for the built-in trainer. The GPU-side analytical
 * models never execute layers; they consume ConvSpec shapes instead.
 */

#ifndef PCNN_NN_LAYER_HH
#define PCNN_NN_LAYER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hh"
#include "tensor/tensor.hh"

namespace pcnn {

/**
 * A trainable parameter: value and accumulated gradient.
 *
 * `value` carries a generation counter so layers can cache derived
 * forms of a parameter (packed SGEMM panels, DESIGN.md §5d) and
 * rebuild them only when the parameter actually changed. Every code
 * path that writes `value` after construction must call
 * markUpdated(): the optimizer does after each step, weight
 * deserialization does after each load, and test code that perturbs
 * weights by hand must as well.
 *
 * A parameter whose storage is shared across serving replicas
 * (Network::cloneSharingWeights, DESIGN.md §5f) is frozen:
 * setShared() marks it, and from then on markUpdated() — and hence
 * every protocol-abiding mutation path (SGD step, weight
 * deserialization, hand edits) — fails a PCNN_CHECK instead of
 * silently corrupting the weights other replicas are concurrently
 * reading. Sharing is permanent for the life of the parameter.
 */
struct Param
{
    Tensor value;
    Tensor grad;

    /** Zero the gradient buffer. */
    void
    zeroGrad()
    {
        grad.fill(0.0f);
    }

    /**
     * Monotone counter identifying the current contents of `value`.
     * Starts at 1 so a zero-initialized cache generation is always
     * stale.
     */
    std::uint64_t generation() const { return gen; }

    /** Record that `value` changed; invalidates packed caches. */
    void
    markUpdated()
    {
        PCNN_CHECK(!sharedRO,
                   "Param::markUpdated on a parameter shared across "
                   "replicas: shared weights are read-only at "
                   "inference (DESIGN.md §5f)");
        ++gen;
    }

    /**
     * Freeze the parameter: its storage is (about to be) shared
     * across replica networks and must never change again.
     */
    void setShared() { sharedRO = true; }

    /** True once the parameter is shared across replicas. */
    bool isShared() const { return sharedRO; }

  private:
    std::uint64_t gen = 1;
    bool sharedRO = false;
};

/**
 * Base class of all network layers.
 *
 * Contract: backward(dy) may only be called after forward(x, true)
 * with the matching activation, and returns the gradient with respect
 * to that x. Parameter gradients are *accumulated* into Param::grad.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Stable layer name, e.g. "CONV2". */
    virtual std::string name() const = 0;

    /** Layer kind, e.g. "conv", "relu". */
    virtual std::string kind() const = 0;

    /** Output shape for a given input shape. */
    virtual Shape outputShape(const Shape &in) const = 0;

    /**
     * Run the layer, writing the output into a caller-provided
     * tensor (resized to the output shape; prior contents
     * discarded). Reusing `y` across calls is how the inference hot
     * path stays allocation-free: Tensor::resize never shrinks
     * capacity, so after the first call on the largest shape the
     * layer performs no allocator traffic (DESIGN.md §5h).
     * @param x input activations; must not alias y
     * @param train true during training (enables caching for
     *        backward and stochastic behaviour such as dropout)
     * @param y output destination; distinct object from x
     */
    virtual void forwardInto(const Tensor &x, bool train,
                             Tensor &y) = 0;

    /**
     * Run the layer into a fresh tensor (allocating convenience
     * wrapper over forwardInto).
     */
    Tensor
    forward(const Tensor &x, bool train)
    {
        Tensor y;
        forwardInto(x, train, y);
        return y;
    }

    /** Back-propagate; see class contract. */
    virtual Tensor backward(const Tensor &dy) = 0;

    /**
     * True when the layer has a fused forward that folds an
     * immediately following ReLU into its own output pass
     * (DESIGN.md §5e). The Network inference peephole only fuses
     * into layers that opt in.
     */
    virtual bool canFuseRelu() const { return false; }

    /**
     * Inference forward with a folded ReLU: must produce exactly
     * relu(forward(x, false)) in y. The default realizes that
     * contract literally (forward, then clamp) so overriding
     * canFuseRelu() alone is never unsound; layers with a real fused
     * path override both.
     * @param x input activations; must not alias y
     */
    virtual void
    forwardFusedReluInto(const Tensor &x, Tensor &y)
    {
        forwardInto(x, false, y);
        float *d = y.data();
        for (std::size_t i = 0; i < y.size(); ++i)
            d[i] = d[i] < 0.0f ? 0.0f : d[i];
    }

    /** Allocating convenience wrapper over forwardFusedReluInto. */
    Tensor
    forwardFusedRelu(const Tensor &x)
    {
        Tensor y;
        forwardFusedReluInto(x, y);
        return y;
    }

    /** Trainable parameters (empty for stateless layers). */
    virtual std::vector<Param *> params() { return {}; }

    /**
     * Replicate the layer for a concurrent serving worker
     * (DESIGN.md §5f): configuration and trainable state are carried
     * over, with parameter storage and the persistent packed/winograd
     * panels *shared* with this layer (marked read-only via
     * Param::setShared — the clone and the original both refuse
     * mutation afterwards). Transient training caches are not
     * carried. Stateless layers return an independent copy.
     *
     * The base implementation rejects: every in-tree layer overrides
     * it, and out-of-tree layers must opt in explicitly before their
     * networks can be replicated.
     */
    virtual std::unique_ptr<Layer>
    cloneShared()
    {
        PCNN_CHECK(false, "layer kind '", kind(),
                   "' does not support weight-sharing replication");
        return nullptr;
    }

    /** Forward FLOPs per image given an input shape; 0 if negligible. */
    virtual double flopsPerImage(const Shape &in) const
    {
        (void)in;
        return 0.0;
    }

    /**
     * Bytes of grow-only per-replica scratch this layer currently
     * holds for inference forwards (not parameters, not caller
     * activations). Feeds Network::steadyMemoryBytes(), the footprint
     * the arena planner is benchmarked against. Scratch owned by the
     * calling thread rather than the layer (conv jobs) is not
     * counted.
     */
    virtual std::size_t steadyStateScratchBytes() const { return 0; }
};

} // namespace pcnn

#endif // PCNN_NN_LAYER_HH
