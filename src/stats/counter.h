#pragma once
/**
 * @file
 * Scalar summaries of double-valued samples.
 */

#include <cstdint>

namespace lba::stats {

/**
 * An online mean/min/max accumulator for double-valued samples.
 */
class Summary
{
  public:
    /** Record one sample. */
    void
    record(double sample)
    {
        if (count_ == 0 || sample < min_) min_ = sample;
        if (count_ == 0 || sample > max_) max_ = sample;
        sum_ += sample;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Arithmetic mean of all samples (0 when empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace lba::stats
