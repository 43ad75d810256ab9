#pragma once
/**
 * @file
 * Parallel-lifeguard extension: splitting lifeguard functionality across
 * multiple cores (paper Section 1 "the lifeguard functionality can be
 * split across multiple cores, exploiting further parallelism", and
 * Section 3's "parallelizing lifeguards" future work).
 *
 * Sharding policy: memory-access records are routed by address (64-byte
 * region hash) so each shard owns a partition of the shadow space;
 * annotation records (alloc/free/input/lock/unlock/...) are broadcast to
 * every shard so each keeps a complete view of allocation and lock state;
 * remaining instruction records are distributed round-robin (their
 * handlers for shardable lifeguards are no-ops, so this only balances
 * dispatch cost).
 *
 * Timing is the shared core::PipelineTimer engine with one lane per
 * shard: each lane has its own log buffer, transport link and dispatch
 * engine, so filtering, compression accounting, back-pressure, syscall
 * containment and the consume-lag statistics behave identically to the
 * serial LbaSystem — with shards=1 the two systems are cycle-identical
 * by construction (asserted by tests/core_test.cpp's differential
 * tests).
 *
 * This partitioning preserves the semantics of per-address lifeguards
 * (AddrCheck, LockSet). TaintCheck is NOT shardable this way: its
 * register-taint state serializes the whole instruction stream — which is
 * precisely why the paper lists lifeguard parallelization as ongoing
 * research rather than a solved problem. See docs/ARCHITECTURE.md
 * ("The parallel-lifeguard extension") and bench/ablation_parallel.cc.
 */

#include <functional>
#include <memory>
#include <vector>

#include "core/pipeline_timer.h"
#include "log/capture.h"

namespace lba::core {

/**
 * Parallel LBA configuration: the full serial feature set (filtering,
 * transport bandwidth, compression, containment) plus the shard count.
 * Lane s consumes on core dispatch.core + s; buffer_capacity and
 * transport_bytes_per_cycle apply per shard.
 */
struct ParallelLbaConfig : LbaConfig
{
    /** Number of lifeguard cores; hierarchy needs shards+1 cores. */
    unsigned shards = 2;

    ParallelLbaConfig() = default;

    /** Shard an existing serial configuration. */
    ParallelLbaConfig(const LbaConfig& base, unsigned nshards)
        : LbaConfig(base), shards(nshards)
    {
    }
};

/**
 * Statistics for a parallel LBA run: the serial LbaRunStats aggregate
 * (summed/merged across shards) plus per-shard breakdowns.
 */
struct ParallelLbaStats : LbaRunStats
{
    /** Cycles each shard's core spent consuming records. */
    std::vector<Cycles> shard_busy_cycles;
    /** Records each shard consumed (broadcasts count in every shard). */
    std::vector<std::uint64_t> shard_records;
    /** Mean produce-to-consume lag per shard. */
    std::vector<double> shard_consume_lag;
    /** Bytes that crossed each shard's transport link. */
    std::vector<double> shard_transport_bytes;
    /** Cycles each shard's consumption waited on its transport. */
    std::vector<Cycles> shard_transport_wait_cycles;
    /** Peak log-buffer occupancy per shard, in records. */
    std::vector<std::uint64_t> shard_max_occupancy;
};

/**
 * Merge the findings of several lifeguard instances monitoring the same
 * application: annotation records are broadcast, so state derived from
 * them (live-block tables, lock tables) is replicated per instance and
 * the same finding (double free, leak) surfaces in several of them;
 * identical findings are deduplicated preserving first-seen order.
 */
std::vector<lifeguard::Finding> mergeShardFindings(
    const std::vector<std::unique_ptr<lifeguard::Lifeguard>>& shards);

/**
 * LBA with the log fanned out to multiple lifeguard cores.
 */
class ParallelLbaSystem : public sim::RetireObserver
{
  public:
    using Factory =
        std::function<std::unique_ptr<lifeguard::Lifeguard>()>;

    /**
     * @param factory   Creates one lifeguard instance per shard.
     * @param hierarchy Needs config.shards + 1 cores.
     */
    ParallelLbaSystem(const Factory& factory,
                      mem::CacheHierarchy& hierarchy,
                      const ParallelLbaConfig& config);

    void onRetire(const sim::Retired& retired) override;
    void onOsEvent(const sim::OsEvent& event) override;

    /** Drain and finalize; must be called once after the run. */
    void finish();

    const ParallelLbaStats& stats() const { return stats_; }

    /** Findings across all shards (detection order within a shard). */
    std::vector<lifeguard::Finding> allFindings() const;

    unsigned shards() const { return timer_->lanes(); }

    /** The underlying timing engine (containment integration). */
    PipelineTimer& timer() { return *timer_; }

    /** The shard lifeguard instances (containment watch list). */
    std::vector<const lifeguard::Lifeguard*> shardLifeguards() const;

    /** One shard's log-buffer occupancy statistics (snapshot). */
    BufferStats bufferStats(unsigned shard) const
    {
        return timer_->bufferStats(shard);
    }

    /** One shard's per-event-type dispatch statistics (snapshot). */
    lifeguard::DispatchStats
    dispatchStats(unsigned shard) const
    {
        return timer_->dispatchStats(shard);
    }

  private:
    /** Route a record to its shard (kBroadcast for annotations). */
    unsigned route(const log::EventRecord& record);

    std::vector<std::unique_ptr<lifeguard::Lifeguard>> lifeguards_;
    std::unique_ptr<PipelineTimer> timer_;
    std::uint64_t round_robin_ = 0;
    ParallelLbaStats stats_;
};

} // namespace lba::core
