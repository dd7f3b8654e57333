/**
 * @file
 * Tests for the utility layer: bit manipulation, the deterministic
 * PRNG, statistics counters, and log formatting.
 */

#include "util/bits.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"

#include <gtest/gtest.h>

#include <cstdarg>
#include <set>
#include <vector>

namespace cheriot
{
namespace
{

TEST(Bits, ExtractAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeefu, 8u, 8u), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeefu, 0u, 32u), 0xdeadbeefu);
    EXPECT_EQ(bits(0xffu, 4u, 8u), 0x0fu);
    EXPECT_TRUE(bit(0x80000000u, 31));
    EXPECT_FALSE(bit(0x80000000u, 30));

    EXPECT_EQ(insertBits(0u, 8u, 8u, 0xabu), 0xab00u);
    EXPECT_EQ(insertBits(0xffffffffu, 8u, 8u, 0u), 0xffff00ffu);
    EXPECT_EQ(insertBits(0u, 0u, 32u, 0x1234u), 0x1234u);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend32(0x80, 8), -128);
    EXPECT_EQ(signExtend32(0x7f, 8), 127);
    EXPECT_EQ(signExtend32(0xfff, 12), -1);
    EXPECT_EQ(signExtend32(0x800, 12), -2048);
}

TEST(Bits, Alignment)
{
    EXPECT_EQ(alignDown(0x1237u, 8u), 0x1230u);
    EXPECT_EQ(alignUp(0x1231u, 8u), 0x1238u);
    EXPECT_EQ(alignUp(0x1238u, 8u), 0x1238u);
    EXPECT_TRUE(isPowerOfTwo(64u));
    EXPECT_FALSE(isPowerOfTwo(0u));
    EXPECT_FALSE(isPowerOfTwo(48u));
}

TEST(Bits, WidthAndPopcount)
{
    EXPECT_EQ(bitWidth(0), 0u);
    EXPECT_EQ(bitWidth(1), 1u);
    EXPECT_EQ(bitWidth(511), 9u);
    EXPECT_EQ(bitWidth(512), 10u);
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(0xff), 8u);
    EXPECT_EQ(popcount(0x8000000000000001ull), 2u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42);
    Rng b(42);
    Rng c(43);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        const uint32_t va = a.next();
        EXPECT_EQ(va, b.next());
        anyDiff |= va != c.next();
    }
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, BelowAndRangeBounds)
{
    Rng rng(7);
    std::set<uint32_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const uint32_t value = rng.below(10);
        EXPECT_LT(value, 10u);
        seen.insert(value);
        const uint32_t ranged = rng.range(5, 8);
        EXPECT_GE(ranged, 5u);
        EXPECT_LE(ranged, 8u);
    }
    EXPECT_EQ(seen.size(), 10u) << "all buckets hit";
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) {
        hits += rng.chance(1, 4);
    }
    EXPECT_NEAR(hits, 25000, 1200);
}

TEST(Rng, StreamSeedsAreReproducibleAndDistinct)
{
    // Bit-for-bit reproducible: same (seed, stream) → same child seed,
    // evaluable at compile time.
    static_assert(Rng::deriveStreamSeed(42, 7) ==
                  Rng::deriveStreamSeed(42, 7));
    EXPECT_EQ(Rng::deriveStreamSeed(0xabcdef, 3),
              Rng::deriveStreamSeed(0xabcdef, 3));

    // Adjacent stream ids (and adjacent master seeds) land far apart.
    std::set<uint64_t> seeds;
    for (uint64_t id = 0; id < 64; ++id) {
        seeds.insert(Rng::deriveStreamSeed(1, id));
        seeds.insert(Rng::deriveStreamSeed(2, id));
    }
    EXPECT_EQ(seeds.size(), 128u) << "no collisions across 128 streams";
}

TEST(Rng, StreamsAreIndependent)
{
    // Drawing from one stream must not perturb another: each stream
    // is a self-contained generator.
    Rng a = Rng::forStream(99, 0);
    Rng b = Rng::forStream(99, 1);
    std::vector<uint32_t> bAlone;
    {
        Rng b2 = Rng::forStream(99, 1);
        for (int i = 0; i < 16; ++i) {
            bAlone.push_back(b2.next());
        }
    }
    for (int i = 0; i < 16; ++i) {
        (void)a.next(); // Interleaved draws on stream 0.
        EXPECT_EQ(b.next(), bAlone[static_cast<size_t>(i)]) << i;
    }

    // And the streams themselves differ.
    Rng s0 = Rng::forStream(7, 0);
    Rng s1 = Rng::forStream(7, 1);
    bool differ = false;
    for (int i = 0; i < 8; ++i) {
        differ = differ || s0.next() != s1.next();
    }
    EXPECT_TRUE(differ);
}

TEST(Rng, Next64CombinesTwoDraws)
{
    Rng a(123);
    Rng b(123);
    const uint32_t hi = b.next();
    const uint32_t lo = b.next();
    EXPECT_EQ(a.next64(),
              (static_cast<uint64_t>(hi) << 32) | lo);
}

TEST(Stats, CountersAndSnapshot)
{
    StatGroup group("unit");
    Counter a;
    Counter b;
    group.registerCounter("a", a);
    group.registerCounter("b", b);
    a += 5;
    ++b;
    b++;
    const auto snapshot = group.snapshot();
    EXPECT_EQ(snapshot.at("unit.a"), 5u);
    EXPECT_EQ(snapshot.at("unit.b"), 2u);
}

TEST(Percentile, InterpolatesKnownQuantiles)
{
    // R-7 estimator: rank = p/100 * (n-1), linear interpolation.
    const std::vector<uint64_t> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentileInterpolated(ten, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileInterpolated(ten, 50.0), 5.5);
    EXPECT_DOUBLE_EQ(percentileInterpolated(ten, 99.0), 9.91);
    EXPECT_DOUBLE_EQ(percentileInterpolated(ten, 100.0), 10.0);

    EXPECT_DOUBLE_EQ(percentileInterpolated({1, 2, 3, 4}, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentileInterpolated({7}, 99.0), 7.0);
    EXPECT_DOUBLE_EQ(percentileInterpolated({}, 50.0), 0.0);

    // Input order must not matter.
    EXPECT_DOUBLE_EQ(percentileInterpolated({10, 1, 5, 3, 8, 2, 9,
                                             4, 7, 6},
                                            50.0),
                     5.5);
}

TEST(Percentile, TailDoesNotCollapseToMax)
{
    // The regression the interpolating estimator fixes: a truncating
    // nearest-rank p99 of fewer than 100 samples just returns the
    // maximum, hiding the tail shape entirely.
    std::vector<uint64_t> samples;
    for (uint64_t i = 1; i <= 10; ++i) {
        samples.push_back(i * 100);
    }
    const double p99 = percentileInterpolated(samples, 99.0);
    EXPECT_LT(p99, 1000.0);
    EXPECT_GT(p99, 900.0);
    EXPECT_DOUBLE_EQ(p99, 991.0);
}

TEST(Percentile, HistogramMatchesFreeFunction)
{
    Histogram h;
    for (uint64_t i = 1; i <= 10; ++i) {
        h.record(i);
    }
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.5);
    EXPECT_DOUBLE_EQ(h.percentile(90.0), 9.1);
    EXPECT_EQ(h.percentileRounded(90.0), 9u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0),
                     percentileInterpolated(h.samples(), 50.0));
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vformat(fmt, args);
    va_end(args);
    return out;
}

TEST(Log, VformatProducesExpectedText)
{
    EXPECT_EQ(format("x=%d s=%s", 42, "hi"), "x=42 s=hi");
    EXPECT_EQ(format("%08x", 0xbeef), "0000beef");
    EXPECT_EQ(format("plain"), "plain");
}

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "boom 7");
}

} // namespace
} // namespace cheriot
