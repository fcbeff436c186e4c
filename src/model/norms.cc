#include "norms.h"

#include <cmath>

#include "util/logging.h"

namespace lrd {

RmsNorm::RmsNorm(int64_t dim, const std::string &name) : dim_(dim)
{
    w_ = Parameter(name + ".w", Tensor::ones({dim}));
}

Tensor
RmsNorm::forward(const Tensor &x, Tape *tape) const
{
    require(x.rank() == 2 && x.dim(1) == dim_,
            strCat("RmsNorm::forward: bad input ",
                   shapeToString(x.shape())));
    const int64_t n = x.dim(0);
    if (tape != nullptr) {
        tape->x = x;
        tape->invRms = Tensor({n});
    }
    Tensor y(x.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *row = x.data() + i * dim_;
        double ms = 0.0;
        for (int64_t j = 0; j < dim_; ++j)
            ms += static_cast<double>(row[j]) * row[j];
        const float inv =
            1.0F /
            std::sqrt(static_cast<float>(ms / static_cast<double>(dim_)) +
                      kEps);
        if (tape != nullptr)
            tape->invRms[i] = inv;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            out[j] = row[j] * inv * w_.value[j];
    }
    return y;
}

Tensor
RmsNorm::backward(const Tensor &dy, const Tape &tape,
                  const Grads &grads) const
{
    require(dy.shape() == tape.x.shape(),
            "RmsNorm::backward: tape does not match this gradient");
    float *gw = grads[w_];
    const int64_t n = dy.dim(0);
    Tensor dx(dy.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *xrow = tape.x.data() + i * dim_;
        const float *dyrow = dy.data() + i * dim_;
        float *dxrow = dx.data() + i * dim_;
        const float s = tape.invRms[i];
        double inner = 0.0; // sum_k dy_k w_k x_k
        for (int64_t j = 0; j < dim_; ++j) {
            inner += static_cast<double>(dyrow[j]) * w_.value[j] * xrow[j];
            gw[j] += dyrow[j] * xrow[j] * s;
        }
        const float c =
            static_cast<float>(inner) * s * s * s / static_cast<float>(dim_);
        for (int64_t j = 0; j < dim_; ++j)
            dxrow[j] = dyrow[j] * w_.value[j] * s - xrow[j] * c;
    }
    return dx;
}

LayerNorm::LayerNorm(int64_t dim, const std::string &name) : dim_(dim)
{
    w_ = Parameter(name + ".w", Tensor::ones({dim}));
    b_ = Parameter(name + ".b", Tensor({dim}));
}

Tensor
LayerNorm::forward(const Tensor &x, Tape *tape) const
{
    require(x.rank() == 2 && x.dim(1) == dim_,
            strCat("LayerNorm::forward: bad input ",
                   shapeToString(x.shape())));
    const int64_t n = x.dim(0);
    if (tape != nullptr) {
        tape->xhat = Tensor(x.shape());
        tape->invStd = Tensor({n});
    }
    Tensor y(x.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *row = x.data() + i * dim_;
        double mean = 0.0;
        for (int64_t j = 0; j < dim_; ++j)
            mean += row[j];
        mean /= static_cast<double>(dim_);
        double var = 0.0;
        for (int64_t j = 0; j < dim_; ++j) {
            const double d = row[j] - mean;
            var += d * d;
        }
        var /= static_cast<double>(dim_);
        const float inv = 1.0F / std::sqrt(static_cast<float>(var) + kEps);
        float *xhatRow = nullptr;
        if (tape != nullptr) {
            tape->invStd[i] = inv;
            xhatRow = tape->xhat.data() + i * dim_;
        }
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j) {
            const float xhat = (row[j] - static_cast<float>(mean)) * inv;
            if (xhatRow != nullptr)
                xhatRow[j] = xhat;
            out[j] = xhat * w_.value[j] + b_.value[j];
        }
    }
    return y;
}

Tensor
LayerNorm::backward(const Tensor &dy, const Tape &tape,
                    const Grads &grads) const
{
    require(dy.shape() == tape.xhat.shape(),
            "LayerNorm::backward: tape does not match this gradient");
    float *gw = grads[w_];
    float *gb = grads[b_];
    const int64_t n = dy.dim(0);
    Tensor dx(dy.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *dyrow = dy.data() + i * dim_;
        const float *xhat = tape.xhat.data() + i * dim_;
        float *dxrow = dx.data() + i * dim_;
        const float inv = tape.invStd[i];
        double meanDxhat = 0.0, meanDxhatXhat = 0.0;
        for (int64_t j = 0; j < dim_; ++j) {
            const double dxhat = static_cast<double>(dyrow[j]) * w_.value[j];
            meanDxhat += dxhat;
            meanDxhatXhat += dxhat * xhat[j];
            gw[j] += dyrow[j] * xhat[j];
            gb[j] += dyrow[j];
        }
        meanDxhat /= static_cast<double>(dim_);
        meanDxhatXhat /= static_cast<double>(dim_);
        for (int64_t j = 0; j < dim_; ++j) {
            const double dxhat = static_cast<double>(dyrow[j]) * w_.value[j];
            dxrow[j] = static_cast<float>(
                inv * (dxhat - meanDxhat - xhat[j] * meanDxhatXhat));
        }
    }
    return dx;
}

} // namespace lrd
