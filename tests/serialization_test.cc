/**
 * @file
 * Robustness tests for model serialization: format stability,
 * corruption detection, factorized manifests, and cross-config
 * mismatch handling.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "model/decomp_config.h"
#include "model/transformer.h"
#include "tensor/ops.h"
#include "util/cache.h"

namespace lrd {
namespace {

std::vector<uint8_t>
bytesFor(uint64_t seed)
{
    TransformerModel m(testLlamaConfig(), seed);
    return m.serialize();
}

TEST(Serialization, DeterministicBytesForSameModel)
{
    EXPECT_EQ(bytesFor(7), bytesFor(7));
    EXPECT_NE(bytesFor(7), bytesFor(8));
}

TEST(Serialization, TruncatedStreamIsRejected)
{
    auto bytes = bytesFor(1);
    for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                       bytes.size() - 1}) {
        std::vector<uint8_t> truncated(bytes.begin(),
                                       bytes.begin()
                                           + static_cast<int64_t>(cut));
        EXPECT_THROW(TransformerModel::deserialize(truncated),
                     std::runtime_error)
            << "cut at " << cut;
    }
}

TEST(Serialization, BadMagicIsRejected)
{
    auto bytes = bytesFor(2);
    bytes[8] ^= 0xFF; // inside the magic string
    EXPECT_THROW(TransformerModel::deserialize(bytes),
                 std::runtime_error);
}

TEST(Serialization, ConfigRoundTripsExactly)
{
    ModelConfig cfg = testBertConfig();
    cfg.name = "custom-name";
    TransformerModel m(cfg, 3);
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    EXPECT_EQ(m2.config().name, "custom-name");
    EXPECT_EQ(m2.config().arch, cfg.arch);
    EXPECT_EQ(m2.config().vocabSize, cfg.vocabSize);
    EXPECT_EQ(m2.config().dModel, cfg.dModel);
    EXPECT_EQ(m2.config().nLayers, cfg.nLayers);
    EXPECT_EQ(m2.config().nHeads, cfg.nHeads);
    EXPECT_EQ(m2.config().dFf, cfg.dFf);
    EXPECT_EQ(m2.config().maxSeq, cfg.maxSeq);
}

TEST(Serialization, FactorizedManifestPreservesRanks)
{
    TransformerModel m(testLlamaConfig(), 4);
    ASSERT_TRUE(m.applyTucker(0, WeightKind::Down, 3).ok());
    ASSERT_TRUE(m.applyTucker(1, WeightKind::Key, 1).ok());
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    EXPECT_TRUE(m2.linear(0, WeightKind::Down).isFactorized());
    EXPECT_EQ(m2.linear(0, WeightKind::Down).prunedRank(), 3);
    EXPECT_TRUE(m2.linear(1, WeightKind::Key).isFactorized());
    EXPECT_EQ(m2.linear(1, WeightKind::Key).prunedRank(), 1);
    EXPECT_FALSE(m2.linear(0, WeightKind::Key).isFactorized());
}

TEST(Serialization, FactorizedCheckpointIsSmallerProportionally)
{
    TransformerModel dense(testLlamaConfig(), 5);
    const size_t denseSize = dense.serialize().size();

    TransformerModel comp(testLlamaConfig(), 5);
    for (WeightKind k : decomposableKinds(Arch::LlamaStyle))
        for (int64_t l = 0; l < comp.numLayers(); ++l)
            ASSERT_TRUE(comp.applyTucker(l, k, 1).ok());
    const size_t compSize = comp.serialize().size();
    // Param counts predict the byte sizes (4 bytes per float + small
    // header/manifest overhead).
    const double paramRatio = static_cast<double>(comp.paramCount())
                              / static_cast<double>(dense.paramCount());
    const double byteRatio = static_cast<double>(compSize)
                             / static_cast<double>(denseSize);
    EXPECT_NEAR(byteRatio, paramRatio, 0.12); // small model: header/name overhead
}

TEST(Serialization, DensifiedModelReadsBackAsDense)
{
    TransformerModel m(testLlamaConfig(), 6);
    ASSERT_TRUE(m.applyTucker(0, WeightKind::Query, 2).ok());
    m.linear(0, WeightKind::Query).densify();
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    EXPECT_FALSE(m2.anyFactorized());
}

TEST(Serialization, GqaConfigSurvivesRoundTrip)
{
    ModelConfig cfg = testLlamaConfig();
    cfg.nKvHeads = 1;
    TransformerModel m(cfg, 7);
    // nKvHeads is derivable from the K projection shape; verify the
    // deserialized model is numerically identical.
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    Rng rng(1);
    TokenSeq toks = {1, 2, 3, 4};
    EXPECT_LT(relativeError(m.forward(toks), m2.forward(toks)), 1e-7);
}

/** Bitwise round trip: same bytes back, and the same logits. */
void
expectBitwiseRoundTrip(const TransformerModel &m)
{
    const std::vector<uint8_t> bytes = m.serialize();
    const TransformerModel back = TransformerModel::deserialize(bytes);
    EXPECT_EQ(back.serialize(), bytes);
    EXPECT_EQ(back.paramCount(), m.paramCount());
    const TokenSeq tokens = {1, 5, 2, 7, 3};
    const Tensor want = m.forward(tokens);
    const Tensor got = back.forward(tokens);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             static_cast<size_t>(got.size())
                                 * sizeof(float)));
}

TEST(Serialization, DenseFactorizedAndOverrideModelsRoundTripBitwise)
{
    const ModelConfig cfg = testLlamaConfig();
    TransformerModel dense(cfg, 11);
    expectBitwiseRoundTrip(dense);

    TransformerModel factorized(cfg, 12);
    std::vector<int> layers;
    for (int l = 0; l < cfg.nLayers; ++l)
        layers.push_back(l);
    ASSERT_TRUE(
        DecompConfig::allTensors(cfg, layers, 2).applyTo(factorized).ok());
    expectBitwiseRoundTrip(factorized);

    // Per-pair rank overrides: a different rank on some tensors.
    DecompConfig overrides = DecompConfig::allTensors(cfg, layers, 4);
    overrides.rankOverrides[{0, static_cast<int>(WeightKind::Up)}] = 1;
    overrides.rankOverrides[{1, static_cast<int>(WeightKind::Query)}] = 3;
    TransformerModel mixed(cfg, 13);
    ASSERT_TRUE(overrides.applyTo(mixed).ok());
    ASSERT_TRUE(mixed.anyFactorized());
    expectBitwiseRoundTrip(mixed);

    TransformerModel bert(testBertConfig(), 14);
    expectBitwiseRoundTrip(bert);
}

/** deserialize()'s fatal message for `bytes`, or "" if it parsed. */
std::string
deserializeError(const std::vector<uint8_t> &bytes)
{
    try {
        (void)TransformerModel::deserialize(bytes);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** A v3 header for `cfg` with an empty factorization manifest. */
ByteWriter
headerFor(const ModelConfig &cfg)
{
    ByteWriter w;
    w.putString("lrd-model-v3");
    w.putString(cfg.name);
    w.putU32(0);
    for (int64_t v : {cfg.vocabSize, cfg.dModel, cfg.nLayers, cfg.nHeads,
                      cfg.nKvHeads, cfg.dFf, cfg.maxSeq})
        w.putU64(static_cast<uint64_t>(v));
    w.putU64(0);
    return w;
}

TEST(Serialization, MalformedBytesFailWithTheirMessages)
{
    const ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 15);
    auto bytes = m.serialize();
    bytes[8] ^= 0xFF;
    EXPECT_NE(deserializeError(bytes).find(
                  "TransformerModel::deserialize: bad magic"),
              std::string::npos);

    // The hand-built stream equals serialize()'s, so each stream below
    // is wrong only in the field it names.
    auto params = m.parameters();
    ByteWriter good = headerFor(cfg);
    good.putU64(params.size());
    for (Parameter *p : params) {
        good.putString(p->name);
        good.putFloats(p->value.storage());
    }
    EXPECT_EQ(good.bytes(), m.serialize());

    ByteWriter count = headerFor(cfg);
    count.putU64(params.size() + 1);
    EXPECT_NE(deserializeError(count.bytes())
                  .find("TransformerModel::deserialize: parameter count "
                        + std::to_string(params.size() + 1)
                        + " != expected " + std::to_string(params.size())),
              std::string::npos);

    ByteWriter size = headerFor(cfg);
    size.putU64(params.size());
    size.putString(params[0]->name);
    size.putFloats(std::vector<float>(3, 0.0F));
    EXPECT_NE(deserializeError(size.bytes())
                  .find("TransformerModel::deserialize: size mismatch for "
                        + params[0]->name),
              std::string::npos);
}

} // namespace
} // namespace lrd
