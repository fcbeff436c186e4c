/**
 * @file
 * Normalization layers: RMSNorm (Llama-style) and LayerNorm
 * (BERT-style), each with a const forward and a manual backward pass
 * over a caller-owned tape.
 */

#ifndef LRD_MODEL_NORMS_H
#define LRD_MODEL_NORMS_H

#include <string>
#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"

namespace lrd {

/** Root-mean-square normalization with learned scale (no bias). */
class RmsNorm
{
  public:
    RmsNorm(int64_t dim, const std::string &name);

    /** What backward() needs from one forward(). */
    struct Tape
    {
        Tensor x;
        Tensor invRms; ///< (n): per-row 1 / rms.
    };

    /** x of shape (n, dim) -> same shape; records into *tape if set. */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;
    /** Backward through the forward() that filled `tape`. */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    const Grads &grads) const;

    std::vector<Parameter *> parameters() { return {&w_}; }

  private:
    int64_t dim_;
    Parameter w_;
    static constexpr float kEps = 1e-5F;
};

/** Standard LayerNorm with learned scale and bias. */
class LayerNorm
{
  public:
    LayerNorm(int64_t dim, const std::string &name);

    /** What backward() needs from one forward(). */
    struct Tape
    {
        Tensor xhat;   ///< Normalized input.
        Tensor invStd; ///< (n): per-row 1 / std.
    };

    /** x of shape (n, dim) -> same shape; records into *tape if set. */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;
    /** Backward through the forward() that filled `tape`. */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    const Grads &grads) const;

    std::vector<Parameter *> parameters() { return {&w_, &b_}; }

  private:
    int64_t dim_;
    Parameter w_;
    Parameter b_;
    static constexpr float kEps = 1e-5F;
};

} // namespace lrd

#endif // LRD_MODEL_NORMS_H
