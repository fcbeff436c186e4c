/**
 * @file
 * A trainable parameter (value plus accumulated gradient) and the
 * gradient sink that backward passes accumulate into.
 */

#ifndef LRD_MODEL_PARAMETER_H
#define LRD_MODEL_PARAMETER_H

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/logging.h"

namespace lrd {

/** A named trainable tensor with its gradient accumulator. */
struct Parameter
{
    Parameter() = default;
    Parameter(std::string n, Tensor v)
        : name(std::move(n)), value(std::move(v)), grad(value.shape())
    {
    }

    std::string name;
    Tensor value;
    Tensor grad;

    void zeroGrad() { grad.fill(0.0F); }
    int64_t size() const { return value.size(); }
};

/**
 * Where a backward pass accumulates each parameter's gradient: either
 * the parameters' own `grad` tensors, or one caller-owned flat buffer
 * laid out in parameter order. Layer backward passes are const and
 * write only through a Grads, so several backward passes can run
 * through one shared model at once, each into its own buffer.
 */
class Grads
{
  public:
    /** Accumulate into each parameter's own `grad`. */
    explicit Grads(const std::vector<Parameter *> &params)
    {
        for (Parameter *p : params)
            slots_.emplace_back(p, p->grad.data());
        std::sort(slots_.begin(), slots_.end(), byParam);
    }

    /**
     * Accumulate into `flat`, which holds every parameter's gradient
     * back to back in `params` order. `flat` must stay allocated (and
     * unresized) for the lifetime of this object.
     */
    Grads(const std::vector<Parameter *> &params, std::vector<float> &flat)
    {
        size_t off = 0;
        for (Parameter *p : params) {
            slots_.emplace_back(p, flat.data() + off);
            off += static_cast<size_t>(p->size());
        }
        require(off == flat.size(), "Grads: flat buffer size mismatch");
        std::sort(slots_.begin(), slots_.end(), byParam);
    }

    /** The p.size() accumulators of parameter `p`. */
    float *operator[](const Parameter &p) const
    {
        const auto it = std::lower_bound(slots_.begin(), slots_.end(),
                                         Slot(&p, nullptr), byParam);
        if (it == slots_.end() || it->first != &p)
            panic("Grads: no gradient slot for parameter " + p.name);
        return it->second;
    }

  private:
    using Slot = std::pair<const Parameter *, float *>;
    static bool byParam(const Slot &a, const Slot &b)
    {
        return std::less<const Parameter *>()(a.first, b.first);
    }
    std::vector<Slot> slots_; ///< Sorted by parameter address.
};

} // namespace lrd

#endif // LRD_MODEL_PARAMETER_H
