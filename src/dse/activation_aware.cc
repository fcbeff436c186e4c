#include "activation_aware.h"

#include <cmath>

#include "util/logging.h"

namespace lrd {

ActivationScales
calibrateActivationScales(const TransformerModel &model,
                          const DecompConfig &gamma,
                          const std::vector<TokenSeq> &calibrationDocs)
{
    std::string why;
    require(gamma.valid(model.config(), &why),
            "calibrateActivationScales: invalid gamma: " + why);
    require(!calibrationDocs.empty(),
            "calibrateActivationScales: no calibration documents");

    // Accumulate sum of squares and counts per (layer, kind, column).
    std::map<std::pair<int, int>, std::vector<double>> sumSq;
    std::map<std::pair<int, int>, int64_t> counts;
    TransformerModel::Tape tape;
    for (const TokenSeq &doc : calibrationDocs) {
        // The tape records every Linear's input.
        (void)model.forward(doc, &tape);
        for (const PrunedRankEntry &e : gamma.prunedRanks()) {
            require(!model.linear(e.layer, e.kind).isFactorized(),
                    "calibrateActivationScales: model already "
                    "factorized");
            const Tensor &x = tape.blocks[static_cast<size_t>(e.layer)]
                                  .linear(e.kind)
                                  .x;
            const auto key =
                std::make_pair(e.layer, static_cast<int>(e.kind));
            auto &acc = sumSq[key];
            if (acc.empty())
                acc.assign(static_cast<size_t>(x.dim(1)), 0.0);
            for (int64_t r = 0; r < x.dim(0); ++r) {
                const float *row = x.data() + r * x.dim(1);
                for (int64_t c = 0; c < x.dim(1); ++c)
                    acc[static_cast<size_t>(c)] +=
                        static_cast<double>(row[c]) * row[c];
            }
            counts[key] += x.dim(0);
        }
    }

    ActivationScales scales;
    for (const auto &[key, acc] : sumSq) {
        std::vector<float> s(acc.size());
        const double n = static_cast<double>(counts.at(key));
        for (size_t c = 0; c < acc.size(); ++c) {
            // Small floor keeps dead features from blowing up 1/s.
            s[c] = static_cast<float>(
                std::sqrt(acc[c] / n) + 1e-3);
        }
        scales[key] = std::move(s);
    }
    return scales;
}

Status
applyActivationAware(TransformerModel &model, const DecompConfig &gamma,
                     const std::vector<TokenSeq> &calibrationDocs)
{
    const ActivationScales scales =
        calibrateActivationScales(model, gamma, calibrationDocs);
    for (const PrunedRankEntry &e : gamma.prunedRanks()) {
        const auto key = std::make_pair(e.layer, static_cast<int>(e.kind));
        const Status st = model.linear(e.layer, e.kind)
                              .factorizeActivationAware(e.rank,
                                                        scales.at(key));
        if (!st.ok())
            return st;
    }
    return Status();
}

} // namespace lrd
