/**
 * @file
 * Set-associative cache implementation.
 */

#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"

namespace lba::mem {

Cache::Cache(const CacheConfig& config)
    : config_(config)
{
    LBA_ASSERT(config_.line_bytes > 0 &&
                   std::has_single_bit(config_.line_bytes),
               "line size must be a power of two");
    LBA_ASSERT(config_.associativity > 0, "associativity must be positive");
    LBA_ASSERT(config_.size_bytes %
                       (config_.line_bytes * config_.associativity) ==
                   0,
               "size must be a multiple of line_bytes * associativity");
    sets_ = config_.size_bytes / (config_.line_bytes *
                                  config_.associativity);
    LBA_ASSERT(sets_ > 0 && std::has_single_bit(sets_),
               "number of sets must be a power of two");
    ways_ = config_.associativity;
    line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
    tags_.resize(sets_ * ways_);
    states_.resize(sets_ * ways_);
}

bool
Cache::accessSet(std::uint64_t line_addr, std::uint64_t touched)
{
    std::size_t first = (static_cast<std::size_t>(line_addr) & (sets_ - 1)) *
                        ways_;
    std::uint64_t tag = line_addr >> set_shift_;
    const std::uint64_t* tags = &tags_[first];
    std::uint64_t* states = &states_[first];

    memo_line_ = line_addr;
    for (std::size_t w = 0; w < ways_; ++w) {
        if (tags[w] == tag && states[w] != 0) {
            states[w] = touched | (states[w] & kDirty);
            ++stats_.hits;
            memo_index_ = first + w;
            return true;
        }
    }

    // Valid ticks are distinct and an invalid way's word is 0, so the
    // first smallest word is the first invalid way if there is one,
    // else the LRU way. Selects, not branches: which way is smaller
    // changes as often as the LRU way does (see the file comment of
    // cache.h).
    std::size_t victim = 0;
    std::uint64_t low = states[0];
    for (std::size_t w = 1; w < ways_; ++w) {
        std::uint64_t state = states[w];
        bool lower = state < low;
        victim = lower ? w : victim;
        low = lower ? state : low;
    }
    ++stats_.misses;
    if (low != 0) {
        ++stats_.evictions;
        if (low & kDirty) ++stats_.writebacks;
    }
    tags_[first + victim] = tag;
    states[victim] = touched;
    memo_index_ = first + victim;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    std::uint64_t line_addr = addr >> line_shift_;
    std::size_t first = (static_cast<std::size_t>(line_addr) & (sets_ - 1)) *
                        ways_;
    std::uint64_t tag = line_addr >> set_shift_;
    for (std::size_t w = 0; w < ways_; ++w) {
        if (tags_[first + w] == tag && states_[first + w] != 0) return true;
    }
    return false;
}

void
Cache::flush()
{
    std::fill(states_.begin(), states_.end(), 0);
    tick_ = 0;
    memo_index_ = 0;
    memo_line_ = 0;
}

} // namespace lba::mem
