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
 */

#include <memory>
#include <vector>

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

/**
 * The shared hierarchy: per-core L1I/L1D plus one shared L2.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig& config);

    /** Extra cycles for an instruction fetch by @p core at @p pc. */
    Cycles instrFetch(unsigned core, Addr pc);

    /** Extra cycles for a data access by @p core. */
    Cycles dataAccess(unsigned core, Addr addr, bool is_write);

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
        Cycles cost = 1 + instrFetch(core, pc);
        if (mem_access) cost += dataAccess(core, addr, is_write);
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
    Cycles l2Path(Addr addr, bool is_write);

    HierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::unique_ptr<Cache> l2_;
};

} // namespace lba::mem
