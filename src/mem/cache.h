#pragma once
/**
 * @file
 * Timing-only set-associative cache model (tags, no data).
 *
 * The functional state lives in mem::Memory; the caches exist purely to
 * account hits and misses for the timing model, matching the paper's
 * single-CPI in-order cores with 16KB split L1s and a 512KB shared L2.
 * Write policy is write-back / write-allocate with true-LRU replacement.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lba::mem {

/** Static geometry of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t size_bytes = 16 * 1024;
    std::size_t line_bytes = 64;
    std::size_t associativity = 4;
};

/** Hit/miss accounting for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio in [0,1]; 0 when no accesses were made. */
    double
    missRatio() const
    {
        return accesses()
                   ? static_cast<double>(misses) /
                         static_cast<double>(accesses())
                   : 0.0;
    }
};

/**
 * One level of cache. access() reports whether the line was present and
 * installs it; the caller (CacheHierarchy) decides what a miss costs.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig& config);

    /**
     * Access the line containing @p addr.
     *
     * @param addr Byte address accessed.
     * @param is_write True for stores (marks the line dirty).
     * @return True on hit, false on miss (the line is installed either way).
     */
    bool access(Addr addr, bool is_write);

    /** True if the line containing @p addr is currently present. */
    bool probe(Addr addr) const;

    /** Invalidate every line and reset LRU state (keeps stats). */
    void flush();

    const CacheConfig& config() const { return config_; }
    const CacheStats& stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::size_t numSets() const { return sets_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru_tick = 0;
        bool valid = false;
        bool dirty = false;
    };

    CacheConfig config_;
    std::size_t sets_;
    unsigned line_shift_;
    std::vector<Line> lines_; // sets_ * associativity, row-major by set
    std::uint64_t tick_ = 0;
    CacheStats stats_;
    /**
     * Memo of the previous access: the index in lines_ of the line it
     * hit or installed, and that line's address. It cannot go stale:
     * only a miss in the same set can evict the line, and that miss
     * moves the memo to the line it installs; flush() resets it.
     */
    std::size_t memo_index_ = 0;
    std::uint64_t memo_line_ = 0;
};

} // namespace lba::mem
