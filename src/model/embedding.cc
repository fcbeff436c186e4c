#include "embedding.h"

#include <cmath>

#include "util/logging.h"

namespace lrd {

Embedding::Embedding(int64_t vocab, int64_t dim, int64_t maxSeq,
                     bool usePositions, const std::string &name, Rng &rng)
    : vocab_(vocab), dim_(dim), usePositions_(usePositions)
{
    const float stddev = 0.02F;
    tok_ = Parameter(name + ".tok",
                     Tensor::randn({vocab, dim}, rng, stddev));
    if (usePositions_)
        pos_ = Parameter(name + ".pos",
                         Tensor::randn({maxSeq, dim}, rng, stddev));
}

Tensor
Embedding::forward(const TokenSeq &tokens, int64_t startPos) const
{
    const auto n = static_cast<int64_t>(tokens.size());
    require(n > 0, "Embedding::forward: empty token sequence");
    if (usePositions_)
        require(startPos + n <= pos_.value.dim(0),
                strCat("Embedding::forward: positions ", startPos + n,
                       " exceed maxSeq ", pos_.value.dim(0)));
    Tensor y({n, dim_});
    for (int64_t i = 0; i < n; ++i) {
        const int t = tokens[static_cast<size_t>(i)];
        require(t >= 0 && t < vocab_,
                strCat("Embedding::forward: token ", t,
                       " out of vocab ", vocab_));
        const float *row = tok_.value.data() + static_cast<int64_t>(t) * dim_;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            out[j] = row[j];
        if (usePositions_) {
            const float *prow =
                pos_.value.data() + (startPos + i) * dim_;
            for (int64_t j = 0; j < dim_; ++j)
                out[j] += prow[j];
        }
    }
    return y;
}

void
Embedding::backward(const Tensor &dy, const TokenSeq &tokens,
                    int64_t startPos, const Grads &grads) const
{
    const auto n = static_cast<int64_t>(tokens.size());
    require(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == dim_,
            "Embedding::backward: grad shape mismatch");
    float *gtok = grads[tok_];
    float *gpos = usePositions_ ? grads[pos_] : nullptr;
    for (int64_t i = 0; i < n; ++i) {
        const int t = tokens[static_cast<size_t>(i)];
        float *grow = gtok + static_cast<int64_t>(t) * dim_;
        const float *drow = dy.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            grow[j] += drow[j];
        if (usePositions_) {
            float *prow = gpos + (startPos + i) * dim_;
            for (int64_t j = 0; j < dim_; ++j)
                prow[j] += drow[j];
        }
    }
}

std::vector<Parameter *>
Embedding::parameters()
{
    std::vector<Parameter *> ps = {&tok_};
    if (usePositions_)
        ps.push_back(&pos_);
    return ps;
}

} // namespace lrd
