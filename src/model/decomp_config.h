/**
 * @file
 * The decomposition configuration gamma of Definition 4: the set of
 * decomposed layers (Decomp_Layers), the set of decomposed tensors
 * per layer (Decomp_Tensors), and the pruned ranks PR.
 *
 * Following the paper's Section 3.1, schemes are homogeneous by
 * default (the same tensors and the same pruned rank in every
 * decomposed layer), with an optional per-(layer, tensor) rank map
 * for the general Definition 3 form.
 */

#ifndef LRD_MODEL_DECOMP_CONFIG_H
#define LRD_MODEL_DECOMP_CONFIG_H

#include <map>
#include <string>
#include <vector>

#include "decomp/tucker.h"
#include "model/config.h"
#include "model/transformer.h"

namespace lrd {

/** One (layer, tensor, prunedRank) element of PR(m) (Definition 3). */
struct PrunedRankEntry
{
    int layer = 0;
    WeightKind kind = WeightKind::Query;
    int64_t rank = 1;
};

/**
 * Tucker2d factors of decomposed weights, keyed like rankOverrides by
 * (layer, kind), each at the highest rank any entry needs.
 */
using WeightFactors = std::map<std::pair<int, int>, Tucker2d>;

/** A low-rank decomposition configuration gamma (Definition 4). */
struct DecompConfig
{
    /** Decomposed layer indices (0-based), sorted, unique. */
    std::vector<int> layers;
    /** Decomposed tensor kinds within each decomposed layer. */
    std::vector<WeightKind> tensors;
    /** Uniform pruned rank applied to every decomposed tensor. */
    int64_t prunedRank = 1;
    /**
     * Optional overrides for the general (non-homogeneous) form:
     * (layer, kind) -> rank. Entries must still reference decomposed
     * layers/tensors (Proposition 3.1).
     */
    std::map<std::pair<int, int>, int64_t> rankOverrides;

    /** The identity configuration (no decomposition). */
    static DecompConfig identity();

    /** Homogeneous config: all decomposable tensors, given layers. */
    static DecompConfig allTensors(const ModelConfig &cfg,
                                   std::vector<int> layers,
                                   int64_t prunedRank = 1);

    /** Homogeneous config: one tensor kind across given layers. */
    static DecompConfig oneTensor(WeightKind kind, std::vector<int> layers,
                                  int64_t prunedRank = 1);

    bool empty() const { return layers.empty() || tensors.empty(); }

    /** The PR(m) set expanded per Definition 3. */
    std::vector<PrunedRankEntry> prunedRanks() const;

    /** Effective rank for one (layer, kind) pair. */
    int64_t rankFor(int layer, WeightKind kind) const;

    /**
     * Proposition 3.1 validity against a concrete model: layer and
     * tensor indices in range, ranks within [1, rank(l, k)], and
     * rank-override keys covered by the layer/tensor sets.
     * @param why Optional out-parameter describing the violation.
     */
    bool valid(const ModelConfig &cfg, std::string *why = nullptr) const;

    /** Parameters of the decomposed tensors before decomposition. */
    int64_t paramsBefore(const ModelConfig &cfg) const;
    /** Parameters of the decomposed tensors after decomposition. */
    int64_t paramsAfter(const ModelConfig &cfg) const;
    /**
     * Fraction of *total model* parameters removed (the paper's
     * "parameter reduction" x-axis).
     */
    double parameterReduction(const ModelConfig &cfg) const;

    /**
     * Factorize the selected weights of a live model in place: the
     * factor step, then install(). An invalid configuration is fatal;
     * a tensor whose SVD fails to converge is resolved by the recovery
     * policy — under degrade the tensor stays dense and the first
     * failure's status is returned (the model remains consistent and
     * usable). A cancelled factor step installs nothing and returns
     * its status.
     */
    Status applyTo(TransformerModel &model) const;

    /**
     * The install step: hand each entry's factors, cut down to its
     * rank by Tucker2d::leading(), to its Linear in entry order, and
     * fold the outcomes as applyTo() does. `factors` must cover every
     * entry at no lower rank, e.g. factorWeights() of a configuration
     * covering this one. An invalid configuration is fatal.
     */
    Status install(TransformerModel &model,
                   const WeightFactors &factors) const;

    /**
     * The factor step: factor each distinct (layer, tensor) pair once,
     * at the highest rank any entry needs (clamped to [1, full rank];
     * install() validates entry ranks), one pair per pool chunk. A
     * failed factorization is kept with its status for the install to
     * resolve. When cancellation lands during the step it returns the
     * Cancelled / DeadlineExceeded status and no factors, since the
     * pool may have dropped unclaimed pairs.
     */
    Result<WeightFactors> factorWeights(const TransformerModel &model) const;

    /** "layers={3,18,32} tensors=all pr=1" style summary. */
    std::string describe() const;
};

} // namespace lrd

#endif // LRD_MODEL_DECOMP_CONFIG_H
