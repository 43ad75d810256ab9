#pragma once
/**
 * @file
 * Fixed-bucket histogram for distribution statistics (e.g. handler cost
 * distributions, record size distributions).
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace lba::stats {

/**
 * Histogram over [0, bucket_width * num_buckets) with an overflow bucket.
 * Its count and total are exact integers, the total 128 bits wide, so
 * the pipeline timer takes its consume-lag means and slice windows
 * (core::PipelineTimer::takeLagWindow) from them with no sum that
 * rounds or wraps.
 */
class Histogram
{
  public:
    /**
     * @param num_buckets Number of regular buckets.
     * @param bucket_width Width of each bucket (must be > 0).
     */
    Histogram(std::size_t num_buckets, std::uint64_t bucket_width)
        : buckets_(num_buckets, 0), width_(bucket_width)
    {
        LBA_ASSERT(num_buckets > 0, "histogram needs at least one bucket");
        LBA_ASSERT(bucket_width > 0, "bucket width must be positive");
    }

    /** Record one sample. */
    void
    record(std::uint64_t sample)
    {
        std::size_t idx = static_cast<std::size_t>(sample / width_);
        if (idx >= buckets_.size()) {
            ++overflow_;
        } else {
            ++buckets_[idx];
        }
        ++count_;
        total_ += sample;
    }

    std::uint64_t count() const { return count_; }
    /** The exact sum of every recorded sample. */
    unsigned __int128 total() const { return total_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketWidth() const { return width_; }

    /** Mean of all recorded samples (0 when empty), exact past a
     *  total of 2^64. */
    double
    mean() const
    {
        return count_ ? static_cast<double>(total_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Smallest sample value v such that at least @p fraction of samples are
     * <= the upper edge of v's bucket. Overflowed samples are treated as
     * landing just past the last bucket.
     */
    std::uint64_t
    percentileUpperBound(double fraction) const
    {
        LBA_ASSERT(fraction >= 0.0 && fraction <= 1.0,
                   "fraction must be in [0,1]");
        if (count_ == 0) return 0;
        // Ceiling semantics, consistent with percentile(): the target
        // rank is the smallest integer >= fraction * count, and at
        // least 1 so fraction 0.0 resolves to the first non-empty
        // bucket instead of matching an empty leading bucket.
        std::uint64_t target = static_cast<std::uint64_t>(
            std::ceil(fraction * static_cast<double>(count_)));
        if (target == 0) target = 1;
        if (target > count_) target = count_;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            seen += buckets_[i];
            if (seen >= target) return (i + 1) * width_;
        }
        return (buckets_.size() + 1) * width_;
    }

    /**
     * Point estimate of the @p fraction quantile (e.g. 0.5, 0.95, 0.99),
     * linearly interpolated within the containing bucket (samples are
     * assumed uniform inside a bucket). Overflowed samples are treated
     * as landing in one virtual bucket just past the last edge, so a
     * heavy overflow tail saturates at that edge rather than fabricating
     * values. Returns 0 when empty.
     */
    double
    percentile(double fraction) const
    {
        LBA_ASSERT(fraction >= 0.0 && fraction <= 1.0,
                   "fraction must be in [0,1]");
        if (count_ == 0) return 0.0;
        double target = fraction * static_cast<double>(count_);
        double seen = 0.0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            double next = seen + static_cast<double>(buckets_[i]);
            if (next >= target && buckets_[i] > 0) {
                double within =
                    (target - seen) / static_cast<double>(buckets_[i]);
                return (static_cast<double>(i) + within) *
                       static_cast<double>(width_);
            }
            seen = next;
        }
        // Quantile falls in the overflow tail.
        double spill = static_cast<double>(overflow_);
        double within = spill > 0.0 ? (target - seen) / spill : 1.0;
        return (static_cast<double>(buckets_.size()) + within) *
               static_cast<double>(width_);
    }

    /** Median estimate (see percentile()). */
    double p50() const { return percentile(0.50); }
    /** 95th-percentile estimate (see percentile()). */
    double p95() const { return percentile(0.95); }
    /** 99th-percentile estimate (see percentile()). */
    double p99() const { return percentile(0.99); }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t width_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    /** 128 bits: a run's samples may each be near 2^62 (a starved
     *  transport's delivery ceiling), so 64 would wrap. */
    unsigned __int128 total_ = 0;
};

} // namespace lba::stats
