/**
 * @file
 * Unit tests for the stats library: summaries, histograms and table
 * formatting.
 */

#include <gtest/gtest.h>

#include "stats/counter.h"
#include "stats/histogram.h"
#include "stats/table.h"

namespace lba::stats {
namespace {

TEST(Summary, EmptySummaryIsAllZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, TracksCountSumMean)
{
    Summary s;
    s.record(2.0);
    s.record(4.0);
    s.record(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Summary, NegativeSamples)
{
    Summary s;
    s.record(-5.0);
    s.record(5.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10);
    h.record(0);
    h.record(9);
    h.record(10);
    h.record(39);
    h.record(40);  // overflow
    h.record(400); // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, MeanIsExact)
{
    Histogram h(10, 1);
    h.record(1);
    h.record(2);
    h.record(3);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, MeanStaysExactPastTwoToThe64)
{
    // A starved transport puts every lag near 2^62; four of them sum to
    // 2^64, which a 64-bit total wraps to 0.
    Histogram h(512, 256);
    for (int i = 0; i < 4; ++i) h.record(std::uint64_t{1} << 62);
    EXPECT_EQ(h.mean(), 0x1p62);
}

TEST(Histogram, PercentileUpperBound)
{
    Histogram h(10, 10);
    for (int i = 0; i < 90; ++i) h.record(5);   // bucket 0
    for (int i = 0; i < 10; ++i) h.record(95);  // bucket 9
    EXPECT_EQ(h.percentileUpperBound(0.5), 10u);
    EXPECT_EQ(h.percentileUpperBound(0.99), 100u);
}

TEST(Histogram, PercentileUpperBoundUsesCeilingRank)
{
    // Regression: the target rank used to be a truncating cast, so a
    // fraction whose product lands just below an integer returned one
    // bucket too low. One sample in [0,10), one in [10,20): the 75th
    // percentile needs rank ceil(1.5) = 2, i.e. the second bucket.
    Histogram h(10, 10);
    h.record(5);
    h.record(15);
    EXPECT_EQ(h.percentileUpperBound(0.75), 20u);
    EXPECT_EQ(h.percentileUpperBound(0.5), 10u);
}

TEST(Histogram, PercentileUpperBoundFractionZero)
{
    // fraction 0.0 must resolve to the first non-empty bucket, not
    // match an empty leading bucket (target rank is at least 1).
    Histogram h(10, 10);
    h.record(25); // bucket 2 only
    EXPECT_EQ(h.percentileUpperBound(0.0), 30u);
}

TEST(Histogram, PercentileUpperBoundFractionOne)
{
    Histogram h(10, 10);
    h.record(5);
    h.record(95);
    EXPECT_EQ(h.percentileUpperBound(1.0), 100u);
    // With overflow, fraction 1.0 lands past the last edge.
    h.record(1000);
    EXPECT_EQ(h.percentileUpperBound(1.0), 110u);
}

TEST(Histogram, PercentileUpperBoundSingleSample)
{
    Histogram h(8, 4);
    h.record(13); // bucket 3: [12,16)
    for (double f : {0.0, 0.25, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(h.percentileUpperBound(f), 16u) << "fraction " << f;
    }
}

TEST(Histogram, PercentileUpperBoundEmptyIsZero)
{
    Histogram h(4, 10);
    EXPECT_EQ(h.percentileUpperBound(0.5), 0u);
}

TEST(Histogram, PercentileInterpolatesWithinBucket)
{
    // 100 samples in bucket [0,10): the quantile is interpolated
    // linearly through the bucket.
    Histogram h(10, 10);
    for (int i = 0; i < 100; ++i) h.record(3);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.p50(), 5.0);
    EXPECT_DOUBLE_EQ(h.p95(), 9.5);
    EXPECT_DOUBLE_EQ(h.p99(), 9.9);
}

TEST(Histogram, PercentileAcrossBuckets)
{
    // 90 samples in [0,10), 10 in [90,100): the tail quantiles land in
    // the far bucket at its interpolated offset.
    Histogram h(10, 10);
    for (int i = 0; i < 90; ++i) h.record(5);
    for (int i = 0; i < 10; ++i) h.record(95);
    EXPECT_NEAR(h.percentile(0.5), 50.0 / 9.0, 1e-9);
    EXPECT_DOUBLE_EQ(h.p95(), 95.0);
    EXPECT_DOUBLE_EQ(h.p99(), 99.0);
    // Percentiles are monotone in the queried fraction.
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
}

TEST(Histogram, PercentileOverflowSaturatesPastLastEdge)
{
    // Half the samples blow past the last bucket: tail quantiles
    // saturate inside one virtual bucket after the last edge instead
    // of extrapolating to the (unknown) true values.
    Histogram h(4, 10);
    for (int i = 0; i < 50; ++i) h.record(5);
    for (int i = 0; i < 50; ++i) h.record(1000);
    EXPECT_DOUBLE_EQ(h.p50(), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), (4.0 + 49.0 / 50.0) * 10.0);
    EXPECT_LE(h.percentile(1.0), 50.0);
}

TEST(Histogram, PercentileOfEmptyHistogramIsZero)
{
    Histogram h(4, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvQuotesSpecialCells)
{
    Table t({"a", "b"});
    t.addRow({"plain", "with,comma"});
    t.addRow({"with\"quote", "x"});
    std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Format, DoubleAndSlowdown)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatSlowdown(12.34), "12.3x");
}

} // namespace
} // namespace lba::stats
