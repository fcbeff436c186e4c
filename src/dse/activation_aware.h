/**
 * @file
 * Activation-aware decomposition (an ASVD-style extension beyond the
 * paper): before truncating a weight, scale its input features by
 * their observed activation magnitude on a calibration set, so the
 * rank-1 subspace preserves the directions that actually carry signal
 * at inference time. The scales fold back into U2, so the deployed
 * factor form is unchanged.
 */

#ifndef LRD_DSE_ACTIVATION_AWARE_H
#define LRD_DSE_ACTIVATION_AWARE_H

#include <map>

#include "model/decomp_config.h"

namespace lrd {

/** Per-(layer, kind) input-feature scales. */
using ActivationScales =
    std::map<std::pair<int, int>, std::vector<float>>;

/**
 * Run the calibration documents through the dense model and collect
 * the root-mean-square activation of every input feature of every
 * tensor selected by gamma.
 */
ActivationScales calibrateActivationScales(
    const TransformerModel &model, const DecompConfig &gamma,
    const std::vector<TokenSeq> &calibrationDocs);

/**
 * Apply gamma with activation-aware factorization: calibrate on the
 * given documents, then factorize each selected tensor with its
 * scales. Returns the first factorization failure; the model may be
 * partially factorized in that case.
 */
Status applyActivationAware(TransformerModel &model,
                            const DecompConfig &gamma,
                            const std::vector<TokenSeq> &calibrationDocs);

} // namespace lrd

#endif // LRD_DSE_ACTIVATION_AWARE_H
