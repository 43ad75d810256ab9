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
 * lives in core::PipelineTimer, one lane per shard.
 *
 * The value-prediction compressor runs over every logged record to
 * account transport bandwidth (< 1 byte/instruction claim); records are
 * handed to the dispatch engines functionally (the compressor's exact
 * invertibility is covered by tests and the compression benches).
 *
 * Sharding (routeRecord): memory-access records go by a hash of their
 * 64-byte region, so each shard owns a partition of the shadow space;
 * annotation records (alloc/free/input/lock/unlock/...) are broadcast
 * to every shard, so each keeps a complete view of allocation and lock
 * state; other instruction records go round-robin (their handlers for
 * shardable lifeguards are no-ops, so this only balances dispatch
 * cost). With one shard every record goes to it.
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

#include "core/pipeline_timer.h"
#include "log/capture.h"

namespace lba::core {

/** routeRecord's answer for records every shard consumes. */
constexpr unsigned kBroadcast = ~0u;

/**
 * The sharding rule of every LBA platform (LbaSystem and each tenant
 * of sched::LifeguardPool): which of @p shards lifeguard shards
 * consumes @p record, or kBroadcast. Loads and stores go by a hash of
 * their 64-byte region; annotations are broadcast; every other record
 * takes the next shard of the caller's @p round_robin cursor. One
 * shard takes every record, broadcasts included.
 */
inline unsigned
routeRecord(const log::EventRecord& record, unsigned shards,
            std::uint64_t& round_robin)
{
    // Keeps the one-shard hot path free of 64-bit divisions.
    if (shards == 1) return 0;
    switch (record.type) {
      case log::EventType::kLoad:
      case log::EventType::kStore:
        return static_cast<unsigned>((record.addr >> 6) % shards);
      case log::EventType::kAlloc:
      case log::EventType::kFree:
      case log::EventType::kInput:
      case log::EventType::kOutput:
      case log::EventType::kLock:
      case log::EventType::kUnlock:
      case log::EventType::kThreadSpawn:
      case log::EventType::kThreadExit:
        return kBroadcast;
      default:
        return static_cast<unsigned>(round_robin++ % shards);
    }
}

/**
 * The consumer half of one captured record of @p producer, given its
 * PipelineTimer::encode() answer @p bytes, in capture order: for a
 * retirement's record the application core's retire timing first, then
 * routing (routeRecord over @p shard_targets, shard s delivering to
 * shard_targets[s], with the producer's @p round_robin cursor), slot
 * reservation, transport and lifeguard dispatch, and for a syscall the
 * containment drain armed last. LbaSystem and every tenant of
 * sched::LifeguardPool consume their records through it.
 */
inline void
consumeRecord(PipelineTimer& timer, unsigned producer,
              const log::EventRecord& record, double bytes,
              std::span<const PipelineTimer::Target> shard_targets,
              std::uint64_t& round_robin)
{
    if (!log::isAnnotation(record.type)) timer.retire(producer, record);
    unsigned shard = routeRecord(
        record, static_cast<unsigned>(shard_targets.size()), round_robin);
    timer.log(producer, record, bytes,
              shard == kBroadcast ? shard_targets
                                  : shard_targets.subspan(shard, 1));
    if (record.type == log::EventType::kSyscall) {
        // The OS stalls the syscall until the lifeguards have checked
        // all prior log entries; applied before the next retirement so
        // the annotation records emitted by this syscall are drained
        // too.
        timer.noteSyscall(producer);
    }
}

/**
 * Merge the findings of several lifeguard shards monitoring the same
 * application: annotation records are broadcast, so state derived from
 * them (live-block tables, lock tables) is replicated per shard and
 * the same finding (double free, leak) surfaces in several of them;
 * identical findings are deduplicated preserving first-seen order.
 */
std::vector<lifeguard::Finding> mergeShardFindings(
    const std::vector<std::unique_ptr<lifeguard::Lifeguard>>& shards);

/**
 * The LBA monitoring platform: a RetireObserver that owns the capture,
 * compression, buffering and dispatch pipeline for N lifeguard shards,
 * shard s consuming on lane s.
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
     * outlive the system). Shard s consumes on core
     * `config.dispatch.core + s`, so the hierarchy needs those cores
     * plus the application's.
     */
    LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
              mem::CacheHierarchy& hierarchy, const LbaConfig& config = {});

    /** Both halves of the retirement's record, back to back. */
    void onRetire(const sim::Retired& retired) override;
    /** Both halves of the OS event's record, back to back. */
    void onOsEvent(const sim::OsEvent& event) override;

    /**
     * The producer half of one captured record: the address filter
     * and the codec (PipelineTimer::encode). It writes nothing
     * consume() reads, so the two-thread schedule of Experiment::runLba
     * runs it ahead of consume() on another host thread.
     * @return The record's transport bytes, or
     *         PipelineTimer::kFiltered.
     */
    double
    produce(const log::EventRecord& record)
    {
        return timer_.encode(0, record);
    }

    /**
     * The consumer half of one captured record, given produce()'s
     * answer @p bytes, in capture order: for a retirement's record the
     * application core's retire timing first, then routing, slot
     * reservation, transport and lifeguard dispatch, and for a
     * syscall the containment drain armed last.
     */
    void consume(const log::EventRecord& record, double bytes);

    /**
     * Complete the run: run every shard's end-of-program hook once its
     * lane has drained, and seal the statistics. Must be called exactly
     * once, after run().
     */
    void finish();

    /** Statistics, aggregated over shards (valid after finish()). */
    const LbaRunStats&
    stats() const
    {
        return timer_.stats();
    }

    unsigned shards() const { return timer_.lanes(); }

    /** One shard's log-buffer occupancy statistics (snapshot). */
    BufferStats
    bufferStats(unsigned shard = 0) const
    {
        return timer_.laneStats(shard).buffer;
    }

    /** One shard's per-event-type dispatch statistics (snapshot). */
    lifeguard::DispatchStats dispatchStats(unsigned shard = 0) const;

    /** The underlying timing engine (containment integration). */
    PipelineTimer& timer() { return timer_; }

  private:
    PipelineTimer timer_;
    std::vector<std::unique_ptr<lifeguard::DispatchEngine>> engines_;
    /** targets_[s] = lane s consumed by engines_[s]; a broadcast
     *  delivers to all of them. */
    std::vector<PipelineTimer::Target> targets_;
    std::uint64_t round_robin_ = 0;
};

} // namespace lba::core
