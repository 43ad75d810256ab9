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
 * *resolves* the lifeguard's handler table (an unregistered event type
 * resolves to dispatch cost only); consumeBatch() drains record spans
 * through it. The timing engine calls it at flush boundaries
 * (core/pipeline_timer.h); threaded execution splits it into
 * consumeBatchDeferred() on a worker and replayDeferred() on the
 * coordinator, which charge the same cycles.
 *
 * Handler work is charged through a CostSink that routes metadata accesses
 * through the lifeguard core's caches.
 *
 */

#include <array>
#include <vector>

#include "common/thread_annotations.h"
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

/**
 * Aggregate dispatch statistics, merged across the engine's two
 * ownership domains: the record counters (records, records_by_type,
 * batches) belong to whichever thread runs the handlers — the
 * coordinator in serial mode, this engine's worker lane in threaded
 * mode — while the cycle counters (total_cycles, cycles_by_type) are
 * always charged on the coordinating thread, because they come from
 * the shared, order-sensitive cache hierarchy. stats() assembles this
 * snapshot; read it only while the engine is quiescent (after a run,
 * or between flush barriers).
 */
struct DispatchStats
{
    std::uint64_t records = 0;
    Cycles total_cycles = 0;
    std::array<std::uint64_t, log::kNumEventTypes> records_by_type{};
    std::array<Cycles, log::kNumEventTypes> cycles_by_type{};
    /** consumeBatch()/consumeBatchDeferred() calls. */
    std::uint64_t batches = 0;
};

/**
 * The functional side of one dispatched batch, with the timing side
 * deferred: per record, the handler-instruction cycles it charged and
 * the ordered list of metadata memory accesses it performed.
 *
 * This is what makes threaded execution cycle-identical to serial
 * (docs/ARCHITECTURE.md "Threaded execution"): handler *execution*
 * (shadow-memory updates, findings — all state private to one
 * lifeguard) runs on a worker thread and records its accesses here,
 * while the *cost* of those accesses — which routes through the
 * shared, order-sensitive L2 model — is computed later by
 * replayDeferred() on the coordinating thread, in the global arrival
 * order the serial path charged them in.
 */
struct DeferredBatch
{
    /** One captured metadata access (address + direction). */
    struct MemOp
    {
        Addr addr = 0;
        bool is_write = false;
    };

    struct PerRecord
    {
        /** Cycles charged through CostSink::instrs(). */
        std::uint32_t instr_cycles = 0;
        /** This record's slice of `ops` ([first_op, first_op+num_ops)). */
        std::uint32_t first_op = 0;
        std::uint32_t num_ops = 0;
    };

    std::vector<PerRecord> records;
    /** Metadata accesses of the whole batch, in execution order. */
    std::vector<MemOp> ops;

    void
    clear()
    {
        records.clear();
        ops.clear();
    }
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
     *                  built; the engine resolves the table once, here,
     *                  and seals it (late setHandler() calls assert).
     * @param hierarchy Cache hierarchy shared with the application core.
     * @param config    Dispatch tunables.
     */
    DispatchEngine(Lifeguard& lifeguard, mem::CacheHierarchy& hierarchy,
                   const DispatchConfig& config = {});

    /**
     * Statically adopt this engine's *functional* side: the thread
     * that runs its handlers and owns its record counters. That is the
     * coordinator on the serial paths and the engine's worker lane
     * between publish/done barriers on the threaded path — which is
     * why it is a per-engine capability rather than a fixed global
     * role. Call from exactly the code that establishes the ownership:
     * the serial drain loops and ThreadedExecutor::workerLoop().
     */
    void assumeFunctionalOwner() const LBA_ASSERT_CAPABILITY(functional_side_)
    {
    }

    /**
     * Drain a contiguous record batch through the handler table, in
     * order. When @p costs is non-null, costs[i] receives record i's
     * cycles (the timing engine folds them into its recurrence).
     * @return Total cycles across the batch.
     */
    Cycles consumeBatch(const log::EventRecord* records,
                        std::size_t count, Cycles* costs = nullptr)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /**
     * Functional half of consumeBatch() for threaded execution: run
     * every handler (in order) against the lifeguard's state, but
     * capture the costs into @p out instead of charging the shared
     * cache hierarchy. Safe to call from a worker thread that owns
     * this engine, concurrently with other engines' workers — it
     * touches only the lifeguard, the record counters of stats(), and
     * @p out; hence it requires only the functional side, not the
     * coordinator role. Pair every call with replayDeferred() over the
     * same batch on the coordinating thread.
     */
    void consumeBatchDeferred(const log::EventRecord* records,
                              std::size_t count, DeferredBatch& out)
        LBA_REQUIRES(functional_side_);

    /**
     * Timing half: charge record @p i of @p batch through this
     * engine's core against the shared hierarchy — exactly the cycles
     * consumeBatch() would have charged for it — and fold them into
     * the cycle counters of stats(). Coordinating thread only; calls
     * must follow global record arrival order across engines so the
     * shared-L2 interleaving matches the serial path.
     * @return Cycles the lifeguard core spends on this record.
     */
    Cycles replayDeferred(const log::EventRecord& record,
                          const DeferredBatch& batch, std::size_t i)
        LBA_COORDINATOR_ONLY;

    /**
     * Run the lifeguard's end-of-program hook. The hook both mutates
     * lifeguard state and charges the shared hierarchy, so it needs
     * the coordinator role and the functional side (at end of run the
     * coordinator holds both — the workers have joined).
     * @return Cycles spent in the final pass.
     */
    Cycles finish()
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /**
     * Merged snapshot of both ownership domains' counters (see
     * DispatchStats). Quiescent reads only — which is why this is the
     * one accessor the analysis deliberately waives: it reads fields
     * of both sides.
     */
    DispatchStats
    stats() const LBA_NO_THREAD_SAFETY_ANALYSIS
    {
        DispatchStats merged;
        merged.records = functional_.records;
        merged.records_by_type = functional_.records_by_type;
        merged.batches = functional_.batches;
        merged.total_cycles = timing_.total_cycles;
        merged.cycles_by_type = timing_.cycles_by_type;
        return merged;
    }

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

    /** Dispatch one record through the resolved table, with the
     *  unregistered-type fast path. Runs the handler (functional side)
     *  and charges the shared hierarchy through sink_ (coordinator),
     *  so it is a serial-path helper. */
    Cycles dispatchOne(const log::EventRecord& record)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /** Fold one consumed record into the statistics (serial path:
     *  both domains advance together). */
    Cycles
    account(const log::EventRecord& record, Cycles cycles)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_)
    {
        ++functional_.records;
        timing_.total_cycles += cycles;
        auto type = static_cast<std::size_t>(record.type);
        ++functional_.records_by_type[type];
        timing_.cycles_by_type[type] += cycles;
        return cycles;
    }

    /** Record counters, owned by whichever thread runs the handlers
     *  (see DispatchStats). */
    struct FunctionalCounts
    {
        std::uint64_t records = 0;
        std::array<std::uint64_t, log::kNumEventTypes> records_by_type{};
        std::uint64_t batches = 0;
    };

    /** Cycle counters, charged only on the coordinating thread. */
    struct TimingCounts
    {
        Cycles total_cycles = 0;
        std::array<Cycles, log::kNumEventTypes> cycles_by_type{};
    };

    /** The engine's functional side as a per-engine capability: held
     *  by the one thread currently running its handlers. */
    threading::ThreadRole functional_side_;

    Lifeguard& lifeguard_;
    DispatchConfig config_;
    /** Charges the shared, order-sensitive hierarchy — coordinator
     *  territory (workers capture costs into DeferredBatch instead). */
    Sink sink_ LBA_GUARDED_BY(::lba::threading::coordinator_role);
    FunctionalCounts functional_ LBA_GUARDED_BY(functional_side_);
    TimingCounts timing_ LBA_GUARDED_BY(::lba::threading::coordinator_role);
    /** Handler table with the null slots resolved (see file comment). */
    std::array<Lifeguard::Handler, log::kNumEventTypes> resolved_;
};

} // namespace lba::lifeguard
