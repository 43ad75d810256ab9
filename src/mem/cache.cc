/**
 * @file
 * Set-associative cache implementation.
 */

#include "mem/cache.h"

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
    line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
    lines_.resize(sets_ * config_.associativity);
}

bool
Cache::access(Addr addr, bool is_write)
{
    std::uint64_t line_addr = addr >> line_shift_;
    ++tick_;
    Line& last = lines_[memo_index_];
    if (line_addr == memo_line_ && last.valid) {
        // Same line as the previous access: the hit the set scan below
        // would find.
        last.lru_tick = tick_;
        last.dirty = last.dirty || is_write;
        ++stats_.hits;
        return true;
    }

    std::size_t set = static_cast<std::size_t>(line_addr) & (sets_ - 1);
    std::uint64_t tag = line_addr >> std::countr_zero(sets_);
    std::size_t first = set * config_.associativity;
    Line* base = &lines_[first];

    memo_line_ = line_addr;
    Line* victim = base;
    for (std::size_t w = 0; w < config_.associativity; ++w) {
        Line& line = base[w];
        if (line.valid && line.tag == tag) {
            line.lru_tick = tick_;
            line.dirty = line.dirty || is_write;
            ++stats_.hits;
            memo_index_ = first + w;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lru_tick < victim->lru_tick) {
            victim = &line;
        }
    }

    ++stats_.misses;
    if (victim->valid) {
        ++stats_.evictions;
        if (victim->dirty) ++stats_.writebacks;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru_tick = tick_;
    victim->dirty = is_write;
    memo_index_ = static_cast<std::size_t>(victim - lines_.data());
    return false;
}

bool
Cache::probe(Addr addr) const
{
    std::uint64_t line_addr = addr >> line_shift_;
    std::size_t set = static_cast<std::size_t>(line_addr) & (sets_ - 1);
    std::uint64_t tag = line_addr >> std::countr_zero(sets_);
    const Line* base = &lines_[set * config_.associativity];
    for (std::size_t w = 0; w < config_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line& line : lines_) {
        line = Line{};
    }
    tick_ = 0;
    memo_index_ = 0;
    memo_line_ = 0;
}

} // namespace lba::mem
