/**
 * @file
 * Analytical operation and byte counting for transformer models
 * (optionally under a decomposition configuration) and for the
 * ResNet-50 baseline of the paper's Table 1.
 *
 * MACs follow the paper's convention (one multiply-accumulate = one
 * MAC); model sizes assume FP16 weights unless overridden.
 */

#ifndef LRD_HW_OPCOUNT_H
#define LRD_HW_OPCOUNT_H

#include <string>
#include <vector>

#include "model/decomp_config.h"
#include "model/config.h"

namespace lrd {

/** One operator's cost in a forward pass. */
struct OpProfile
{
    std::string name;
    int64_t macs = 0; ///< Multiply-accumulates.
    /** Bytes read from memory: the weights of a linear or the lm_head,
     *  the gathered activation rows of the embedding lookup. */
    int64_t bytesMoved = 0;
};

/** Inference workload shape. */
struct WorkloadParams
{
    int64_t batch = 1;
    int64_t seqLen = 128;
    int bytesPerParam = 2; ///< FP16.
};

/**
 * Per-operator profile of one full forward pass (prefill-style) of a
 * transformer under an optional decomposition. Pass the identity
 * config for the dense model.
 */
std::vector<OpProfile> profileTransformer(const ModelConfig &cfg,
                                          const DecompConfig &gamma,
                                          const WorkloadParams &wl);

/** Total MACs of one forward pass. */
int64_t transformerMacs(const ModelConfig &cfg, const DecompConfig &gamma,
                        const WorkloadParams &wl);

/** Weight bytes of the whole model under the decomposition. */
int64_t transformerWeightBytes(const ModelConfig &cfg,
                               const DecompConfig &gamma,
                               int bytesPerParam = 2);

/** Per-token KV-cache bytes across all layers. */
int64_t kvCacheBytesPerToken(const ModelConfig &cfg, int bytesPerParam = 2);

/**
 * MACs of one *decode step* at a given context length (weight reuse
 * = batch only; attention reads the cached context).
 */
int64_t transformerDecodeMacs(const ModelConfig &cfg,
                              const DecompConfig &gamma, int64_t batch,
                              int64_t contextLen);

/** @name ResNet-50 baseline (Table 1)
 *  @{
 */
int64_t resnet50Params();
/** MACs for one 224x224 image. */
int64_t resnet50Macs();
/** @} */

} // namespace lrd

#endif // LRD_HW_OPCOUNT_H
