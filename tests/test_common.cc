/**
 * @file
 * Unit tests for the common substrate: PRNG determinism and
 * statistical sanity, CRC behaviour, statistics containers, the
 * router and endpoint counter blocks, bit utilities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/crc.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "endpoint/interface.hh"
#include "router/router.hh"

namespace metro
{
namespace
{

TEST(Bitops, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(4), 2u);
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(4), 2u);
    EXPECT_EQ(log2Ceil(5), 3u);
}

TEST(Bitops, CeilDivAndMask)
{
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
    EXPECT_EQ(ceilDiv(9, 4), 3u);
    EXPECT_EQ(lowMask(0), 0ULL);
    EXPECT_EQ(lowMask(4), 0xfULL);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(Random, Deterministic)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, SeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Random, BelowInRangeAndRoughlyUniform)
{
    Xoshiro256 rng(7);
    std::vector<int> buckets(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto v = rng.below(10);
        ASSERT_LT(v, 10u);
        ++buckets[v];
    }
    for (int b : buckets) {
        EXPECT_GT(b, n / 10 * 0.9);
        EXPECT_LT(b, n / 10 * 1.1);
    }
}

TEST(Random, UniformIsInUnitInterval)
{
    Xoshiro256 rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomSource, SameCycleSameWord)
{
    RandomSource s(99);
    EXPECT_EQ(s.wordForCycle(5), s.wordForCycle(5));
    EXPECT_NE(s.wordForCycle(5), s.wordForCycle(6));
}

TEST(RandomSource, SharedSourcesAgree)
{
    RandomSource a(1234), b(1234);
    for (Cycle c = 0; c < 50; ++c)
        EXPECT_EQ(a.wordForCycle(c), b.wordForCycle(c));
}

TEST(RandomSource, DifferentSeedsDisagree)
{
    RandomSource a(1), b(2);
    int same = 0;
    for (Cycle c = 0; c < 64; ++c) {
        if (a.wordForCycle(c) == b.wordForCycle(c))
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Crc, EmptyIsInitial)
{
    Crc16 crc;
    EXPECT_EQ(crc.value(), 0xffff);
}

TEST(Crc, OrderSensitive)
{
    Crc16 a, b;
    a.update(0x12, 8);
    a.update(0x34, 8);
    b.update(0x34, 8);
    b.update(0x12, 8);
    EXPECT_NE(a.value(), b.value());
}

TEST(Crc, DetectsSingleBitFlip)
{
    for (unsigned bit = 0; bit < 8; ++bit) {
        Crc16 clean, dirty;
        clean.update(0x5a, 8);
        clean.update(0xa5, 8);
        dirty.update(0x5a ^ (1u << bit), 8);
        dirty.update(0xa5, 8);
        EXPECT_NE(clean.value(), dirty.value()) << "bit " << bit;
    }
}

TEST(Crc, NarrowWordsFoldAsOneByte)
{
    Crc16 a, b;
    a.update(0x5, 4);
    b.update(0x05, 8);
    EXPECT_EQ(a.value(), b.value());
}

TEST(Crc, ResetRestoresInitial)
{
    Crc16 crc;
    crc.update(0x77, 8);
    crc.reset();
    EXPECT_EQ(crc.value(), 0xffff);
}

TEST(Summary, Moments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.sample(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (std::uint64_t i = 1; i <= 100; ++i)
        h.sample(i);
    EXPECT_EQ(h.median(), 50u);
    EXPECT_EQ(h.percentile(95), 95u);
    EXPECT_EQ(h.percentile(100), 100u);
    EXPECT_EQ(h.percentile(1), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, SamplingAfterPercentileQuery)
{
    Histogram h;
    h.sample(10);
    EXPECT_EQ(h.median(), 10u);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.percentile(100), 30u);
    EXPECT_EQ(h.count(), 3u);
}

/** `Names` lists `size` names, sorted and unique, and each name
 *  reads back its own counter. */
template <class Names>
void
expectSortedUniqueAndResolvable(std::size_t size)
{
    using Block = CounterBlock<Names>;
    const std::vector<std::string> names(std::begin(Names::kNames),
                                         std::end(Names::kNames));
    EXPECT_EQ(names.size(), size);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end());
    Block block;
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(Block::indexOf(names[i]), i) << names[i];
        block.at(i) = 100 + i;
    }
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(block.get(names[i]), 100 + i) << names[i];
    EXPECT_EQ(Block::indexOf("noSuchCounter"), Block::kSize);
    EXPECT_EQ(Block::indexOf(""), Block::kSize);
}

TEST(CounterBlock, NameTablesAreSortedUniqueAndResolveByName)
{
    expectSortedUniqueAndResolvable<RouterCounterNames>(22);
    expectSortedUniqueAndResolvable<NiCounterNames>(31);
    expectSortedUniqueAndResolvable<WordNames>(8);
    expectSortedUniqueAndResolvable<NiConnNames>(5);
    // Enumerators index the table entry of the same name.
    EXPECT_EQ(RouterCounters::name(static_cast<std::size_t>(
                  RouterCounter::requests)),
              "requests");
    EXPECT_EQ(NiCounters::name(static_cast<std::size_t>(
                  NiCounter::wrongDestination)),
              "wrongDestination");
}

TEST(CounterBlock, FiresInNameOrderAndSubtracts)
{
    RouterCounters now;
    ++now[RouterCounter::turns];
    now[RouterCounter::abortDrops] += 3;
    RouterCounters base;
    ++base[RouterCounter::abortDrops];
    std::vector<std::pair<std::string, std::uint64_t>> fired;
    (now - base).forEachFired([&](std::string_view name, std::uint64_t v) {
        fired.emplace_back(name, v);
    });
    const std::vector<std::pair<std::string, std::uint64_t>> expected = {
        {"abortDrops", 2}, {"turns", 1}};
    EXPECT_EQ(fired, expected);
    now += base;
    EXPECT_EQ(now.get("abortDrops"), 4u);
    EXPECT_EQ(now.get("blocks"), 0u);
}

} // namespace
} // namespace metro
