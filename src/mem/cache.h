#pragma once
/**
 * @file
 * Timing-only set-associative cache model (tags, no data).
 *
 * The functional state lives in mem::Memory; the caches exist purely to
 * account hits and misses for the timing model, matching the paper's
 * single-CPI in-order cores with 16KB split L1s and a 512KB shared L2.
 * Write policy is write-back / write-allocate with true-LRU replacement.
 *
 * Layout. The model runs on every retirement, handler metadata access
 * and L1 miss, so its host footprint matters. Each way is two 64-bit
 * words kept in two arrays, both 64-byte aligned:
 *
 * - tags_: the way's tag. A set's tags are contiguous, so the tag scan
 *   of the paper's 8-way L2 reads one 64-byte host line, and a hit
 *   touches nothing else of the set but the way's state word.
 * - states_: the way's LRU tick shifted left by one, with the dirty bit
 *   below it; 0 means the way is invalid. The victim scan reads only
 *   these words: the smallest is an invalid way, otherwise the least
 *   recently used one.
 *
 * The flags live beside the tick rather than in the tag word because a
 * tag can fill all 64 bits: with 1-byte lines and one set it is the
 * whole address, so no tag value is free to mean "invalid". The tick
 * keeps 63 bits, which no run can wrap.
 *
 * Branches. accessSet() scans the tags with an early exit, then, on a
 * miss, picks the victim as the first smallest state word with selects
 * (conditional moves), not branches. Which way holds the smallest word
 * changes about as often as the LRU way does, so a branch per way
 * mispredicts on miss-heavy streams: on mcf the application L1D misses
 * over half its accesses, and the miss path runs on both host threads
 * and in the unmonitored baseline. The hit scan keeps its branch and
 * its early exit: a hit stops at its way, while a branch-free scan
 * reads every way. A single branch-free pass computing the hit and the
 * victim together ran the unmonitored baseline 4-9% slower than this
 * split scan on mcf, req_serve and gzip.
 */

#include <cstddef>
#include <cstdint>
#include <new>
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
 * An object starts its own host cache line: access() writes its tick,
 * statistics and memo, and several host threads may each drive caches
 * of their own (mem/hierarchy.h).
 */
class alignas(64) Cache
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
    bool
    access(Addr addr, bool is_write)
    {
        std::uint64_t line_addr = addr >> line_shift_;
        std::uint64_t touched = (++tick_ << 1) | (is_write ? kDirty : 0);
        std::uint64_t& last = states_[memo_index_];
        if (line_addr == memo_line_ && last != 0) {
            // Same line as the previous access, as most instruction
            // fetches are: the hit the set scan would find. Inline, so
            // it costs no call.
            last = touched | (last & kDirty);
            ++stats_.hits;
            return true;
        }
        return accessSet(line_addr, touched);
    }

    /** True if the line containing @p addr is currently present. */
    bool probe(Addr addr) const;

    /** Invalidate every line and reset LRU state (keeps stats). */
    void flush();

    const CacheConfig& config() const { return config_; }
    const CacheStats& stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::size_t numSets() const { return sets_; }

  private:
    /** Allocator that starts each array on a host cache line. */
    template <typename T>
    struct LineAligned
    {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};

        LineAligned() = default;
        template <typename U>
        LineAligned(const LineAligned<U>&)
        {
        }
        T*
        allocate(std::size_t n)
        {
            return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
        }
        void
        deallocate(T* p, std::size_t)
        {
            ::operator delete(p, kAlign);
        }
        bool operator==(const LineAligned&) const { return true; }
    };
    using Words = std::vector<std::uint64_t, LineAligned<std::uint64_t>>;

    static constexpr std::uint64_t kDirty = 1;

    /** access() past the memo: scan the line's set, install on a miss. */
    bool accessSet(std::uint64_t line_addr, std::uint64_t touched);

    CacheConfig config_;
    std::size_t sets_;
    std::size_t ways_;
    unsigned line_shift_;
    unsigned set_shift_;
    Words tags_;   // sets_ * ways_, row-major by set
    Words states_; // (tick << 1) | dirty, 0 when invalid; same indexing
    std::uint64_t tick_ = 0;
    CacheStats stats_;
    /**
     * Memo of the previous access: the index of the way it hit or
     * installed, and that line's address. It cannot go stale: only a
     * miss in the same set can evict the line, and that miss moves the
     * memo to the line it installs; flush() resets it.
     */
    std::size_t memo_index_ = 0;
    std::uint64_t memo_line_ = 0;
};

} // namespace lba::mem
