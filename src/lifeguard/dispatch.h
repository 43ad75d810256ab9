#pragma once
/**
 * @file
 * The lifeguard-core dispatch engine (paper Section 2).
 *
 * Models the `nlba` (next LBA record) instruction: each handler ends by
 * issuing nlba, which pops the next record from the decompression engine,
 * places key event values (memory address etc.) directly into the register
 * file, and jumps through a per-event-type handler table. Because the jump
 * table index is known as soon as the record is visible, the lookup
 * pipelines with the previous handler; we charge a small fixed dispatch
 * cost per record (default 1 cycle).
 *
 * Host-side dispatch mirrors that table. At construction the engine
 * copies the lifeguard's sealed handler table; an unregistered event
 * type costs the dispatch cycles only. consumeBatch() drains record
 * spans through the one-record dispatch(). The timing engine calls it
 * on each delivered record alone, inside PipelineTimer::log()
 * (core/pipeline_timer.h). Both are inline, so the consumer step of a
 * record, which the pool's apply() calls once, makes no call of its
 * own into the engine: the handler's table jump is the only one left.
 *
 * Handler work is charged through a CostSink that routes metadata accesses
 * through the lifeguard core's caches.
 */

#include <array>

#include "lifeguard/lifeguard.h"
#include "mem/hierarchy.h"
#include "stats/histogram.h"

namespace lba::lifeguard {

/** Dispatch engine tunables. */
struct DispatchConfig
{
    /** Fixed cycles per nlba dispatch (jump-table lookup, pipelined). */
    Cycles dispatch_cycles = 1;
    /** Which core of the hierarchy consumes the log. */
    unsigned core = 1;
};

/** Aggregate dispatch statistics. */
struct DispatchStats
{
    std::uint64_t records = 0;
    Cycles total_cycles = 0;
    std::array<std::uint64_t, log::kNumEventTypes> records_by_type{};
    std::array<Cycles, log::kNumEventTypes> cycles_by_type{};
    /** consumeBatch() calls (the timing engine makes one per record). */
    std::uint64_t batches = 0;
};

/**
 * Drives one lifeguard from a record stream, producing per-record cycle
 * costs for the coupled timing model.
 */
class DispatchEngine
{
  public:
    /**
     * @param lifeguard The lifeguard whose handlers consume records.
     *                  Its handler table must be fully registered (i.e.
     *                  its constructor has run) before the engine is
     *                  built; the engine copies the table once, here,
     *                  and seals it (late setHandler() calls assert).
     * @param hierarchy Cache hierarchy shared with the application core.
     * @param config    Dispatch tunables.
     */
    DispatchEngine(Lifeguard& lifeguard, mem::CacheHierarchy& hierarchy,
                   const DispatchConfig& config = {});

    /** Empty; only hostbench/e2e_host.cc calls it. */
    void assumeFunctionalOwner() const {}

    /**
     * Drain a contiguous record batch through the handler table, in
     * order. When @p costs is non-null, costs[i] receives record i's
     * cycles (the timing engine folds them into its recurrence).
     * @return Total cycles across the batch.
     */
    Cycles
    consumeBatch(const log::EventRecord* records, std::size_t count,
                 Cycles* costs = nullptr)
    {
        ++stats_.batches;
        Cycles total = 0;
        for (std::size_t i = 0; i < count; ++i) {
            Cycles cycles = dispatch(records[i]);
            if (costs) costs[i] = cycles;
            total += cycles;
        }
        return total;
    }

    /**
     * Run the lifeguard's end-of-program hook.
     * @return Cycles spent in the final pass.
     */
    Cycles finish();

    const DispatchStats& stats() const { return stats_; }

    Lifeguard& lifeguard() { return lifeguard_; }

  private:
    /** CostSink charging the lifeguard core. */
    class Sink : public CostSink
    {
      public:
        Sink(mem::CacheHierarchy& hierarchy, unsigned core)
            : hierarchy_(hierarchy), core_(core)
        {
        }

        void instrs(std::uint32_t count) override { cycles_ += count; }

        void
        memAccess(Addr addr, bool is_write) override
        {
            cycles_ += 1 + hierarchy_.dataAccess(core_, addr, is_write);
        }

        Cycles take()
        {
            Cycles c = cycles_;
            cycles_ = 0;
            return c;
        }

      private:
        mem::CacheHierarchy& hierarchy_;
        unsigned core_;
        Cycles cycles_ = 0;
    };

    /**
     * Dispatch one record through the handler table and fold it into
     * the statistics. An unregistered type costs the dispatch cycles
     * only, with no handler call and nothing in the sink: the
     * hardware's "handler is just nlba" case.
     */
    Cycles
    dispatch(const log::EventRecord& record)
    {
        auto type = static_cast<std::size_t>(record.type);
        Cycles cycles = config_.dispatch_cycles;
        if (Lifeguard::Handler handler = handlers_[type]) {
            handler(lifeguard_, record, sink_);
            cycles += sink_.take();
        }
        ++stats_.records;
        stats_.total_cycles += cycles;
        ++stats_.records_by_type[type];
        stats_.cycles_by_type[type] += cycles;
        return cycles;
    }

    Lifeguard& lifeguard_;
    DispatchConfig config_;
    Sink sink_;
    DispatchStats stats_;
    /** The lifeguard's sealed handler table; null for a type it does
     *  not handle. */
    std::array<Lifeguard::Handler, log::kNumEventTypes> handlers_;
};

} // namespace lba::lifeguard
