/**
 * @file
 * Unit tests for the util module: Rng determinism and distribution
 * sanity, logging levels, TablePrinter formatting, cache round-trips,
 * and ByteWriter/ByteReader serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/cache.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace lrd {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntRangeAndCoverage)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.uniformInt(10);
        ASSERT_LT(v, 10U);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10U);
}

TEST(Rng, UniformIntZeroThrows)
{
    Rng rng(1);
    EXPECT_THROW(rng.uniformInt(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsApproximatelyStandard)
{
    Rng rng(13);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, NormalMeanStddev)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(23);
    std::vector<double> w = {1.0, 3.0};
    int ones = 0;
    for (int i = 0; i < 10000; ++i)
        ones += rng.categorical(w) == 1;
    EXPECT_NEAR(ones / 10000.0, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights)
{
    Rng rng(29);
    EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(rng.categorical({1.0, -0.5}), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(31);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::vector<int> back = v;
    std::sort(back.begin(), back.end());
    EXPECT_EQ(back, sorted);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(41);
    Rng child = a.split();
    // The child stream must not replay the parent stream.
    Rng parentCopy(41);
    (void)parentCopy.next(); // consumed by split()
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += child.next() == parentCopy.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripResumesTheDrawSequence)
{
    Rng a(77);
    (void)a.normal(); // Leave a cached Box-Muller second value live.
    const RngState snap = a.state();

    std::vector<double> expected;
    for (int i = 0; i < 8; ++i)
        expected.push_back(a.normal());

    Rng b(1); // Different seed; fully overwritten by setState.
    b.setState(snap);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(b.normal(), expected[static_cast<size_t>(i)]);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("boom"), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("bug"), std::logic_error);
}

TEST(Logging, RequirePassesAndFails)
{
    EXPECT_NO_THROW(require(true, "ok"));
    EXPECT_THROW(require(false, "bad"), std::runtime_error);

    // The message is built only when the condition fails.
    int built = 0;
    const auto message = [&built] {
        ++built;
        return strCat("bad value ", 42);
    };
    require(true, message());
    EXPECT_EQ(built, 0);

    // The condition is evaluated exactly once either way.
    int checks = 0;
    require(++checks > 0, message());
    EXPECT_EQ(checks, 1);

    try {
        require(++checks < 0, message());
        ADD_FAILURE() << "require(false, ...) returned";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fatal: bad value 42");
    }
    EXPECT_EQ(checks, 2);
    EXPECT_EQ(built, 1);
}

TEST(Logging, StrCatConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(Table, MarkdownContainsHeaderAndRows)
{
    TablePrinter t("demo");
    t.setHeader({"x", "value"});
    t.addRow({"a", "1"});
    t.addRow({"b", "2"});
    const std::string md = t.toMarkdown();
    EXPECT_NE(md.find("demo"), std::string::npos);
    EXPECT_NE(md.find("| x "), std::string::npos);
    EXPECT_NE(md.find("| b "), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2U);
}

TEST(Table, RowWidthMismatchIsFatal)
{
    TablePrinter t("demo");
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::runtime_error);
}

TEST(Table, CsvQuotingHandlesCommasAndQuotes)
{
    TablePrinter t("demo");
    t.setHeader({"a"});
    t.addRow({"x,y"});
    t.addRow({"he said \"hi\""});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(Cache, WriteReadRoundTrip)
{
    const std::string name = "util_test_blob.bin";
    std::vector<uint8_t> payload = {1, 2, 3, 250, 255};
    cacheWrite(name, payload);
    EXPECT_TRUE(cacheHas(name));
    const Result<std::vector<uint8_t>> got = cacheRead(name);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payload);
    cacheErase(name);
    EXPECT_FALSE(cacheHas(name));
}

TEST(Cache, ReadMissingEntryReturnsNotFound)
{
    const Result<std::vector<uint8_t>> r =
        cacheRead("definitely_missing_entry.bin");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
    EXPECT_EQ(r.valueOr({0xAB}), std::vector<uint8_t>{0xAB});
    EXPECT_THROW(r.value(), std::runtime_error);
}

TEST(Bytes, RoundTripAllTypes)
{
    ByteWriter w;
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFULL);
    w.putF32(3.25F);
    w.putF64(-1.0e-300);
    w.putString("hello");
    w.putFloats({1.0F, -2.5F, 0.0F});
    w.putBytes({9, 8, 7});

    ByteReader r(w.bytes());
    EXPECT_EQ(r.getU32(), 0xDEADBEEF);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFULL);
    EXPECT_FLOAT_EQ(r.getF32(), 3.25F);
    EXPECT_EQ(r.getF64(), -1.0e-300);
    EXPECT_EQ(r.getString(), "hello");
    EXPECT_EQ(r.getFloats(), (std::vector<float>{1.0F, -2.5F, 0.0F}));
    EXPECT_EQ(r.getBytes(), (std::vector<uint8_t>{9, 8, 7}));
    EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, TruncatedStreamIsFatal)
{
    ByteWriter w;
    w.putU32(7);
    ByteReader r(w.bytes());
    (void)r.getU32();
    EXPECT_THROW(r.getU64(), std::runtime_error);
}

TEST(Status, ServingCodesRoundTripThroughNameAndToString)
{
    // The serving layer leans on this code for its admission (shed)
    // contract; its name is part of the CLI surface (lrdtool exit-code
    // table, shed reports).
    EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
                 "resource-exhausted");

    const Status shed(StatusCode::ResourceExhausted, "serve.admit",
                      "queue at capacity");
    EXPECT_FALSE(shed.ok());
    EXPECT_EQ(shed.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(shed.toString(),
              "resource-exhausted at serve.admit: queue at capacity");
}

TEST(Timer, MeasuresNonNegativeElapsed)
{
    Timer t;
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i)
        x = x + 1.0;
    EXPECT_GE(t.elapsedSeconds(), 0.0);
    EXPECT_GE(t.elapsedMillis(), t.elapsedSeconds() * 1e3 - 1e-9);
}

} // namespace
} // namespace lrd
