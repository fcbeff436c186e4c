#include "decomp_config.h"

#include <algorithm>
#include <sstream>

#include "decomp/tucker.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "util/logging.h"

namespace lrd {

DecompConfig
DecompConfig::identity()
{
    return DecompConfig{};
}

DecompConfig
DecompConfig::allTensors(const ModelConfig &cfg, std::vector<int> layers,
                         int64_t prunedRank)
{
    DecompConfig c;
    c.layers = std::move(layers);
    std::sort(c.layers.begin(), c.layers.end());
    c.tensors = decomposableKinds(cfg.arch);
    c.prunedRank = prunedRank;
    return c;
}

DecompConfig
DecompConfig::oneTensor(WeightKind kind, std::vector<int> layers,
                        int64_t prunedRank)
{
    DecompConfig c;
    c.layers = std::move(layers);
    std::sort(c.layers.begin(), c.layers.end());
    c.tensors = {kind};
    c.prunedRank = prunedRank;
    return c;
}

std::vector<PrunedRankEntry>
DecompConfig::prunedRanks() const
{
    std::vector<PrunedRankEntry> out;
    for (int l : layers)
        for (WeightKind k : tensors)
            out.push_back({l, k, rankFor(l, k)});
    return out;
}

int64_t
DecompConfig::rankFor(int layer, WeightKind kind) const
{
    const auto it =
        rankOverrides.find({layer, static_cast<int>(kind)});
    return it != rankOverrides.end() ? it->second : prunedRank;
}

bool
DecompConfig::valid(const ModelConfig &cfg, std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why != nullptr)
            *why = msg;
        return false;
    };
    // Empty layer/tensor sets are only valid together (the identity).
    if (layers.empty() != tensors.empty())
        return fail("layers and tensors must be both empty or both "
                    "non-empty");
    const auto kinds = decomposableKinds(cfg.arch);
    for (int l : layers) {
        if (l < 0 || l >= cfg.nLayers)
            return fail(strCat("layer ", l, " out of range [0, ",
                               cfg.nLayers, ")"));
    }
    if (std::adjacent_find(layers.begin(), layers.end())
        != layers.end())
        return fail("duplicate layer in Decomp_Layers");
    for (WeightKind k : tensors) {
        if (std::find(kinds.begin(), kinds.end(), k) == kinds.end())
            return fail(weightKindName(k)
                        + " is not decomposable in this architecture");
    }
    // Rank bounds: 0 < p <= rank(l, k) = min(dims).
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = cfg.weightShape(e.kind);
        const int64_t maxRank = std::min(shape[0], shape[1]);
        if (e.rank < 1 || e.rank > maxRank)
            return fail(strCat("rank ", e.rank, " for ",
                               weightKindName(e.kind), " in layer ",
                               e.layer, " outside [1, ", maxRank, "]"));
    }
    // Proposition 3.1: every override must reference a decomposed
    // (layer, tensor) pair.
    for (const auto &[key, rank] : rankOverrides) {
        const auto [l, kInt] = key;
        (void)rank;
        if (std::find(layers.begin(), layers.end(), l) == layers.end())
            return fail(strCat("rank override for layer ", l,
                               " which is not decomposed"));
        const auto kind = static_cast<WeightKind>(kInt);
        if (std::find(tensors.begin(), tensors.end(), kind)
            == tensors.end())
            return fail("rank override for tensor "
                        + weightKindName(kind)
                        + " which is not decomposed");
    }
    return true;
}

int64_t
DecompConfig::paramsBefore(const ModelConfig &cfg) const
{
    int64_t n = 0;
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = cfg.weightShape(e.kind);
        n += denseParams(shape[0], shape[1]);
    }
    return n;
}

int64_t
DecompConfig::paramsAfter(const ModelConfig &cfg) const
{
    int64_t n = 0;
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = cfg.weightShape(e.kind);
        n += decomposedParams(shape[0], shape[1], e.rank);
    }
    return n;
}

double
DecompConfig::parameterReduction(const ModelConfig &cfg) const
{
    const int64_t removed = paramsBefore(cfg) - paramsAfter(cfg);
    return static_cast<double>(removed)
           / static_cast<double>(cfg.totalParams());
}

Result<WeightFactors>
DecompConfig::factorWeights(const TransformerModel &model) const
{
    // The highest rank each distinct (layer, tensor) pair needs.
    std::map<std::pair<int, int>, int64_t> rankOf;
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = model.config().weightShape(e.kind);
        const int64_t rank =
            std::clamp<int64_t>(e.rank, 1, std::min(shape[0], shape[1]));
        int64_t &r = rankOf[{e.layer, static_cast<int>(e.kind)}];
        r = std::max(r, rank);
    }
    const std::vector<std::pair<std::pair<int, int>, int64_t>> pairs(
        rankOf.begin(), rankOf.end());
    std::vector<Tucker2d> out(pairs.size());
    parallelFor(0, static_cast<int64_t>(pairs.size()), 1,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                        const auto &[key, rank] =
                            pairs[static_cast<size_t>(i)];
                        const Linear &lin = model.linear(
                            key.first, static_cast<WeightKind>(key.second));
                        out[static_cast<size_t>(i)] =
                            tucker2dDecompose(lin.weight().value, rank);
                    }
                });
    if (cancelRequested())
        return cancelStatus("decomp.factor");
    WeightFactors factors;
    // Copied, not moved: each result was allocated above its SVD's
    // freed workspace, and keeping it there until the install pins
    // that memory (decode's peak RSS rose 1.4 MB in perfbench).
    for (size_t i = 0; i < pairs.size(); ++i)
        factors.emplace(pairs[i].first, out[i]);
    return factors;
}

Status
DecompConfig::applyTo(TransformerModel &model) const
{
    std::string why;
    require(valid(model.config(), &why),
            "DecompConfig::applyTo: invalid configuration: " + why);
    Result<WeightFactors> factors = factorWeights(model);
    if (!factors.ok())
        return factors.status();
    return install(model, factors.value());
}

Status
DecompConfig::install(TransformerModel &model,
                      const WeightFactors &factors) const
{
    std::string why;
    require(valid(model.config(), &why),
            "DecompConfig::install: invalid configuration: " + why);
    Status first;
    int64_t numFailed = 0;
    const std::vector<PrunedRankEntry> entries = prunedRanks();
    for (const PrunedRankEntry &e : entries) {
        const auto it = factors.find({e.layer, static_cast<int>(e.kind)});
        require(it != factors.end(),
                "DecompConfig::install: no factors for "
                    + weightKindName(e.kind) + strCat(" in layer ", e.layer));
        Status s = model.linear(e.layer, e.kind)
                       .installFactors(it->second.leading(e.rank));
        if (!s.ok()) {
            ++numFailed;
            if (first.ok())
                first = std::move(s);
        }
    }
    if (numFailed > 0)
        return Status(first.code(), "decomp.apply",
                      strCat(numFailed, " of ", entries.size(),
                             " tensors left dense; first: ",
                             first.toString()));
    return Status();
}

std::string
DecompConfig::describe() const
{
    if (empty())
        return "identity (no decomposition)";
    std::ostringstream oss;
    oss << "layers={";
    for (size_t i = 0; i < layers.size(); ++i)
        oss << (i ? "," : "") << layers[i];
    oss << "} tensors={";
    for (size_t i = 0; i < tensors.size(); ++i)
        oss << (i ? "," : "") << weightKindName(tensors[i]);
    oss << "} pr=" << prunedRank;
    if (!rankOverrides.empty())
        oss << " (+" << rankOverrides.size() << " overrides)";
    return oss.str();
}

} // namespace lrd
