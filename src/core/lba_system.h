#pragma once
/**
 * @file
 * The LBA platform (paper Figure 1): capture -> compress -> log buffer
 * -> decompress -> dispatch -> lifeguard, with decoupled application
 * and lifeguard cores coordinating only through the buffer — and, for
 * any shard count N, the lifeguard work split across N lifeguard cores
 * (paper Section 1: "the lifeguard functionality can be split across
 * multiple cores, exploiting further parallelism"; Section 3 lists
 * parallelizing lifeguards as future work).
 *
 * Timing model. All cores are single-CPI in-order with the shared cache
 * hierarchy of mem::CacheHierarchy. Execution is driven by the
 * application's retirement stream; for every record i on shard s we
 * compute
 *
 *   produce(i)   = app core time after the instruction retires, delayed
 *                  while a target buffer is full (back-pressure stall);
 *   start(i,s)   = max(produce(i), finish(i-1,s));
 *   finish(i,s)  = start(i,s) + dispatch + handler cycles.
 *
 * The buffer slot for record i frees when record i-capacity finishes, so
 * a lifeguard that cannot keep up eventually stalls the application —
 * exactly the paper's decoupling semantics. Syscall containment stalls
 * the application at each syscall until the lifeguards have consumed
 * every record logged before it (Section 2). The recurrence itself
 * lives in core::PipelineTimer: a timer of the system's own, shard s
 * on lane s, or one it shares as a producer, as every tenant of
 * sched::LifeguardPool does, core::Experiment::runLba's lone tenant
 * included. The application runs on core 0 of a timer it owns.
 *
 * The value-prediction compressor's grammar sizes every logged record
 * to account transport bandwidth (< 1 byte/instruction claim), counting
 * its bits without writing them (compress::LogSizer); records are
 * handed to the dispatch engines functionally (the compressor's exact
 * invertibility is covered by tests and the compression benches).
 *
 * Sharding: memory-access records go by their 64-byte region modulo
 * the shard count, so each shard owns a partition of the shadow space;
 * annotation records (alloc/free/input/lock/unlock/...) are broadcast
 * to every shard, so each keeps a complete view of allocation and lock
 * state; other instruction records go round-robin (their handlers for
 * shardable lifeguards are no-ops, so this only balances dispatch
 * cost). With one shard every record goes to it. The round-robin
 * cursor wraps at the shard count, and a power-of-two count takes the
 * region's low bits, so routing divides only a load or store's region,
 * and only when the count is not a power of two.
 *
 * This partitioning preserves the semantics of per-address lifeguards
 * (AddrCheck, LockSet). TaintCheck is NOT shardable this way: its
 * register-taint state serializes the whole instruction stream — which
 * is precisely why the paper lists lifeguard parallelization as ongoing
 * research rather than a solved problem. docs/ARCHITECTURE.md walks
 * this pipeline and timing model in prose; bench/ablation_parallel.cc
 * sweeps the shard count.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "core/pipeline_timer.h"
#include "log/capture.h"

namespace lba::core {

/**
 * Merge the findings of the lifeguard shards monitoring one
 * application, in shard order. Annotation records are broadcast, so
 * state derived from them (live-block tables, lock tables) is
 * replicated per shard and the same finding (double free, leak)
 * surfaces in several of them: a finding is dropped only when an
 * earlier shard reported an identical one, so one shard's list,
 * repeats included, is returned unchanged.
 */
std::vector<lifeguard::Finding> mergeShardFindings(
    const std::vector<std::unique_ptr<lifeguard::Lifeguard>>& shards);

/**
 * The LBA monitoring platform: a RetireObserver that owns the capture,
 * compression, buffering and dispatch pipeline for N lifeguard shards
 * of one producer (monitored application).
 */
class LbaSystem : public sim::RetireObserver
{
  public:
    /**
     * One shard.
     * @param lifeguard The lifeguard running on the lifeguard core (not
     *                  owned; must outlive the system).
     * @param hierarchy Shared cache hierarchy (needs >= 2 cores).
     * @param config    Platform configuration.
     */
    LbaSystem(lifeguard::Lifeguard& lifeguard,
              mem::CacheHierarchy& hierarchy, const LbaConfig& config = {});

    /**
     * One shard per lifeguard in @p shards (not owned; each must
     * outlive the system), on a timer of its own with one lane per
     * shard. The application runs on core 0 and shard s consumes on
     * core `1 + s`, so the hierarchy needs those cores.
     */
    LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
              mem::CacheHierarchy& hierarchy, const LbaConfig& config = {});

    /**
     * The same shards as producer @p producer of @p timer (not owned;
     * its owner seals it). Shard s starts on lane s; setLane() moves it.
     */
    LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
              PipelineTimer& timer, unsigned producer);

    /** Both halves of the retirement's record, back to back. */
    void onRetire(const sim::Retired& retired) override;
    /** Both halves of the OS event's record, back to back. */
    void onOsEvent(const sim::OsEvent& event) override;

    /**
     * The producer half of one captured record
     * (PipelineTimer::encode): a retirement's application-core L1
     * lookups, the address filter and the record's size in the log
     * stream. It writes nothing consume() reads, so the pool's
     * three-stage schedule runs it on an encoder thread of its own,
     * after capture and ahead of consume() on the worker.
     */
    PipelineTimer::Encoded
    produce(const log::EventRecord& record)
    {
        return timer_.encode(producer_, record);
    }

    /**
     * The consumer half of one captured record, given produce()'s
     * answer @p encoded, in capture order: for a retirement's record
     * the application core's retire timing first (its L2 half), then
     * routing, slot reservation, transport and lifeguard dispatch, and
     * for a syscall the containment drain armed last.
     */
    void consume(const log::EventRecord& record,
                 PipelineTimer::Encoded encoded);

    /**
     * Complete the run: run every shard's end-of-program hook on its
     * lane once the lane has drained, and seal a timer the system owns.
     * Must be called exactly once, after run().
     */
    void finish();

    /** This producer's statistics, aggregated over its shards (valid
     *  after finish() and, on a shared timer, the owner's seal()). */
    const LbaRunStats&
    stats() const
    {
        return timer_.producerStats(producer_);
    }

    /** PipelineTimer::lagHistogram of this producer. */
    const stats::Histogram&
    lagHistogram() const
    {
        return timer_.lagHistogram(producer_);
    }

    /** PipelineTimer::takeLagWindow of this producer. */
    LagWindow takeLagWindow() { return timer_.takeLagWindow(producer_); }

    unsigned shards() const { return static_cast<unsigned>(targets_.size()); }

    /**
     * Move @p shard's consumption onto @p lane: its records serialize
     * on that lane's clock and buffer from now on. Only the timing
     * moves. The shard's engine was built on lane `shard`'s core
     * (PipelineTimer::makeEngine) and keeps charging that core's L1D
     * for its handlers' metadata accesses, wherever the shard runs.
     */
    void
    setLane(unsigned shard, unsigned lane)
    {
        LBA_ASSERT(shard < targets_.size(), "bad shard index");
        targets_[shard].lane = lane;
    }

    /** One shard's log-buffer occupancy statistics (its lane's). */
    BufferStats
    bufferStats(unsigned shard = 0) const
    {
        LBA_ASSERT(shard < targets_.size(), "bad shard index");
        return timer_.laneStats(targets_[shard].lane).buffer;
    }

    /** One shard's per-event-type dispatch statistics (snapshot). */
    lifeguard::DispatchStats dispatchStats(unsigned shard = 0) const;

    /** The lifeguard consuming @p shard's records. */
    lifeguard::Lifeguard& shardLifeguard(unsigned shard);

    /** The underlying timing engine (containment integration). */
    PipelineTimer& timer() { return timer_; }

    /** This system's producer index in timer(). */
    unsigned producer() const { return producer_; }

  private:
    /**
     * The sharding rule: the entries of targets_ (one per shard) that
     * consume @p record. Loads and stores go to shard
     * `(addr >> 6) % shards()`; annotations are broadcast to every
     * shard; every other record goes to the next shard of the
     * round-robin cursor, from shard 0. One shard takes every record.
     */
    std::span<const PipelineTimer::Target>
    routeRecord(const log::EventRecord& record);

    /** The owning forms: producer 0 of @p timer, which it keeps. */
    LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
              std::unique_ptr<PipelineTimer> timer);

    /** Set only when the system owns its timer. */
    std::unique_ptr<PipelineTimer> owned_timer_;
    /** produce() reads only these two. */
    PipelineTimer& timer_;
    unsigned producer_;
    std::vector<std::unique_ptr<lifeguard::DispatchEngine>> engines_;
    /** consume()'s state, on a host cache line of its own:
     *  targets_[s] is shard s's lane and engines_[s]. */
    alignas(64) std::vector<PipelineTimer::Target> targets_;
    /** Round-robin cursor for non-memory instruction records: the
     *  shard the next one goes to. */
    std::size_t round_robin_ = 0;
    /** shards() - 1 when shards() is a power of two, else 0: the mask
     *  that takes a region's shard without a division. */
    std::uint64_t region_mask_ = 0;
};

// The consumer step, inline (see core/pipeline_timer.h).

inline std::span<const PipelineTimer::Target>
LbaSystem::routeRecord(const log::EventRecord& record)
{
    std::span<const PipelineTimer::Target> targets = targets_;
    if (targets.size() == 1) return targets;
    switch (record.type) {
      case log::EventType::kLoad:
      case log::EventType::kStore: {
        std::uint64_t region = record.addr >> 6;
        return targets.subspan(region_mask_ ? region & region_mask_
                                            : region % targets.size(),
                               1);
      }
      case log::EventType::kAlloc:
      case log::EventType::kFree:
      case log::EventType::kInput:
      case log::EventType::kOutput:
      case log::EventType::kLock:
      case log::EventType::kUnlock:
      case log::EventType::kThreadSpawn:
      case log::EventType::kThreadExit:
        return targets;
      default: {
        std::size_t shard = round_robin_;
        round_robin_ = shard + 1 == targets.size() ? 0 : shard + 1;
        return targets.subspan(shard, 1);
      }
    }
}

inline void
LbaSystem::consume(const log::EventRecord& record,
                   PipelineTimer::Encoded encoded)
{
    if (!log::isAnnotation(record.type)) {
        timer_.retire(producer_, record, encoded.l1_misses);
    }
    timer_.log(producer_, record, encoded.bytes, routeRecord(record));
    if (record.type == log::EventType::kSyscall) {
        // The OS stalls the syscall until the lifeguards have checked
        // all prior log entries; applied before the next retirement so
        // the annotation records emitted by this syscall are drained
        // too.
        timer_.noteSyscall(producer_);
    }
}

} // namespace lba::core
