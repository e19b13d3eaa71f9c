/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hh"

namespace neofog {
namespace {

TEST(Counter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.increment(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarStat, EmptyIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(ScalarStat, BasicMoments)
{
    ScalarStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    // Sample variance of this classic data set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(ScalarStat, SingleSample)
{
    ScalarStat s;
    s.sample(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(ScalarStat, WelfordMatchesNaiveOnLargeValues)
{
    // Welford stays accurate with a large offset.
    ScalarStat s;
    const double offset = 1e9;
    for (double v : {1.0, 2.0, 3.0})
        s.sample(offset + v);
    EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
    EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(TimeSeries, RecordsPoints)
{
    TimeSeries t;
    EXPECT_TRUE(t.points().empty());
    t.record(10, 1.0);
    t.record(20, 2.0);
    EXPECT_EQ(t.points().size(), 2u);
    EXPECT_EQ(t.points()[0].when, 10);
    EXPECT_DOUBLE_EQ(t.points()[1].value, 2.0);
}

// The strided points fill the cap and miss the final point, which
// then replaces the last strided one: the cap holds and both ends stay.
TEST(TimeSeries, DownsampleKeepsEnds)
{
    struct Case
    {
        Tick points;
        std::size_t cap;
        Tick secondLast; ///< the last strided point that stays
    };
    for (const Case &c : {Case{1000, 10, 800}, Case{1200, 400, 1194}}) {
        TimeSeries t;
        for (Tick i = 0; i < c.points; ++i)
            t.record(i, static_cast<double>(i));
        const auto down = t.downsampled(c.cap);
        ASSERT_EQ(down.size(), c.cap) << c.points;
        EXPECT_EQ(down.front().when, 0);
        EXPECT_EQ(down[c.cap - 2].when, c.secondLast);
        EXPECT_EQ(down.back().when, c.points - 1);
        EXPECT_EQ(down.back().value, static_cast<double>(c.points - 1));
    }
}

TEST(TimeSeries, DownsampleNoopWhenSmall)
{
    TimeSeries t;
    t.record(1, 1.0);
    t.record(2, 2.0);
    EXPECT_EQ(t.downsampled(10).size(), 2u);
}

} // namespace
} // namespace neofog
