#pragma once
/**
 * @file
 * Scalar summaries of double-valued samples.
 */

#include <cstdint>

namespace lba::stats {

/**
 * An online count/sum/mean accumulator for double-valued samples.
 */
class Summary
{
  public:
    /** Record one sample. */
    void
    record(double sample)
    {
        sum_ += sample;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Arithmetic mean of all samples (0 when empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace lba::stats
