#pragma once
/**
 * @file
 * Two-level cache hierarchy timing model.
 *
 * Reproduces the paper's memory system: each core has 16KB private split
 * L1 instruction/data caches; all cores share a 512KB L2. Latencies are
 * *additional* cycles beyond the single base CPI:
 *   L1 hit: +0, L1 miss/L2 hit: +l2_hit_cycles, L2 miss: +mem_cycles.
 *
 * Coherence is not modelled: the monitored application and the lifeguard
 * touch disjoint data, so sharing effects reduce to L2 capacity
 * interference, which this model does capture.
 *
 * The L1s are private and non-inclusive: an L2 eviction leaves them
 * alone, and no other core touches them. So a core's L1 hits and misses
 * depend only on that core's own access order, and only the L2 needs
 * the serialized order of every core's misses. retire() is its two
 * halves, retireL1() and retireL2(), back to back; the LBA pipeline
 * runs the application core's L1 half on its encoder thread and the
 * L2 half on its worker (core/pipeline_timer.h), and each Cache starts
 * a host cache line of its own so the threads' caches share none.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "mem/cache.h"

namespace lba::mem {

/** Latency and geometry parameters for the hierarchy. */
struct HierarchyConfig
{
    std::size_t l1i_bytes = 16 * 1024; ///< split L1: 16KB I
    std::size_t l1d_bytes = 16 * 1024; ///< split L1: 16KB D
    std::size_t l2_bytes = 512 * 1024; ///< shared 512KB L2
    std::size_t line_bytes = 64;
    std::size_t l1_assoc = 4;
    std::size_t l2_assoc = 8;
    Cycles l2_hit_cycles = 6;   ///< extra cycles for an L1 miss, L2 hit
    Cycles mem_cycles = 100;    ///< extra cycles for an L2 miss
    unsigned num_cores = 2;
};

/** retireL1()'s answer: which of a retirement's L1 accesses missed. */
inline constexpr std::uint8_t kFetchMiss = 1;
inline constexpr std::uint8_t kDataMiss = 2;

/**
 * The shared hierarchy: per-core L1I/L1D plus one shared L2.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig& config);

    /** Extra cycles for an instruction fetch by @p core at @p pc. */
    Cycles
    instrFetch(unsigned core, Addr pc)
    {
        LBA_ASSERT(core < l1i_.size(), "core index out of range");
        if (l1i_[core]->access(pc, false)) {
            return 0;
        }
        return l2Path(pc, false);
    }

    /** Extra cycles for a data access by @p core. */
    Cycles
    dataAccess(unsigned core, Addr addr, bool is_write)
    {
        LBA_ASSERT(core < l1d_.size(), "core index out of range");
        if (l1d_[core]->access(addr, is_write)) {
            return 0;
        }
        return l2Path(addr, is_write);
    }

    /**
     * Cycles one retirement costs application core @p core: the base
     * CPI, the fetch at @p pc and, when @p mem_access, the data access
     * at @p addr. Every platform charges its application core this
     * way (the unmonitored baseline, LBA and DBI), so each reported
     * slowdown is a ratio of the same cost.
     */
    Cycles
    retire(unsigned core, Addr pc, bool mem_access, Addr addr,
           bool is_write)
    {
        return retireL2(retireL1(core, pc, mem_access, addr, is_write),
                        pc, addr, is_write);
    }

    /**
     * The L1 half of retire(): look the fetch at @p pc up in @p core's
     * L1I and, when @p mem_access, the data access at @p addr in its
     * L1D. It touches only that core's L1s.
     * @return kFetchMiss and kDataMiss for the lookups that missed.
     */
    std::uint8_t
    retireL1(unsigned core, Addr pc, bool mem_access, Addr addr,
             bool is_write)
    {
        LBA_ASSERT(core < l1i_.size(), "core index out of range");
        std::uint8_t misses = l1i_[core]->access(pc, false) ? 0 : kFetchMiss;
        if (mem_access && !l1d_[core]->access(addr, is_write)) {
            misses |= kDataMiss;
        }
        return misses;
    }

    /**
     * The L2 half of retire(): the base CPI plus the shared L2's cost
     * of the L1 misses @p misses (retireL1()'s answer for the same
     * retirement), the fetch's before the data access's.
     */
    Cycles
    retireL2(std::uint8_t misses, Addr pc, Addr addr, bool is_write)
    {
        Cycles cost = 1;
        if (misses & kFetchMiss) cost += l2Path(pc, false);
        if (misses & kDataMiss) cost += l2Path(addr, is_write);
        return cost;
    }

    const HierarchyConfig& config() const { return config_; }
    const Cache& l1i(unsigned core) const { return *l1i_.at(core); }
    const Cache& l1d(unsigned core) const { return *l1d_.at(core); }
    const Cache& l2() const { return *l2_; }

    /** Invalidate all caches (e.g. between benchmark runs). */
    void flushAll();

    /** Zero all hit/miss statistics. */
    void resetStats();

  private:
    /** L1-miss path: probe shared L2 and convert to extra cycles. */
    Cycles
    l2Path(Addr addr, bool is_write)
    {
        if (l2_->access(addr, is_write)) {
            return config_.l2_hit_cycles;
        }
        return config_.l2_hit_cycles + config_.mem_cycles;
    }

    HierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::unique_ptr<Cache> l2_;
};

} // namespace lba::mem
