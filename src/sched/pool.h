#pragma once
/**
 * @file
 * The multi-tenant lifeguard pool: N independent monitored applications
 * (tenants) time-multiplexed onto M shared lifeguard lanes.
 *
 * A deployed LBA chip monitors many applications at once, so lifeguard
 * capacity must be a shared, scheduled resource rather than one
 * statically-bound lane per application. The pool builds on the shared
 * timing engine (core::PipelineTimer) in its multi-producer form:
 *
 *  - Each tenant is a sim::Process monitored by one core::LbaSystem,
 *    producer t of the pool's timer: its own application-core clock,
 *    codec, back-pressure, syscall-containment state and statistics,
 *    and `lanes` lifeguard shard contexts its records are sharded over.
 *    Tenant t's application runs on core t, and lane L consumes on
 *    core `tenants + L`.
 *  - A TenantScheduler maps shard contexts to physical lanes. Lanes
 *    serialize whatever is folded onto them, which is how one tenant's
 *    burst degrades (only) whoever shares its lanes.
 *  - Admission has one rule. A tenant starts when the pool is idle,
 *    when the transport is unlimited, or when the running tenants'
 *    demand plus its own fits the lanes' summed bandwidth; otherwise it
 *    waits in a first-in, first-out queue until running tenants
 *    finish. Every tenant runs before the drive ends.
 *
 * Execution is deterministic: tenants are driven round-robin in slices
 * of `slice_instructions` retired instructions; a lone tenant runs to
 * completion unsliced on identity lane maps. That lone tenant on M
 * lanes is core::Experiment::runLba with M shards: runLba builds such a
 * pool and drives it. Slicing changes the instruction stream of a
 * tenant with two ready threads: the stop at a slice end also ends
 * the running thread's quantum (sim::Process::run), so the next slice
 * starts on the tenant's next ready thread, where a run alone would
 * have finished the quantum first. Such a tenant's cycles come from
 * the sliced stream, and its unmonitored baseline from its run alone.
 *
 * Without containment the drive splits the work into three stages on
 * three host threads (core::ThreeStageRun). The calling thread runs
 * the driver (admission, slicing, arrivals, detach), the simulator and
 * capture. An encoder thread runs each record's producer step, the
 * tenant's LbaSystem::produce (its application core's L1 lookups, the
 * filter and the record's size). A worker applies, in the order the
 * driver made them, each record's LbaSystem::consume and each
 * scheduler step: lane-map changes, the slice-end lag window read and
 * the epoch. The driver reads no simulated time, so the results are
 * those of encoding and applying every entry at once, which is what
 * the drive does under containment. run() computes the tenants'
 * unmonitored baselines on one more thread meanwhile.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline_timer.h"
#include "core/runner.h"
#include "core/three_stage_run.h"
#include "replay/containment.h"
#include "sched/scheduler.h"

namespace lba::sched {

/** One monitored application of the pool. */
struct TenantConfig
{
    std::string name;
    std::vector<isa::Instruction> program;
    sim::ProcessConfig process;
    /**
     * Driver round (slice count since run() started) at which this
     * tenant arrives. 0 = present from the start. Every tenant goes
     * through the same admission step (start or queue) when its round
     * comes up; while the pool is idle the driver fast-forwards to the
     * next arrival. Deterministic: the round counter advances once per
     * executed slice, never with wall time.
     */
    std::uint64_t arrival_round = 0;

    /**
     * Detach the tenant after this many observed retired instructions
     * (0 = run to completion). Detachment is treated exactly like
     * completion: mid-slice the process stops, the tenant's bandwidth
     * share is released, queued tenants start and the lane map
     * rebalances — surviving tenants' clocks are untouched. Under
     * containment the count includes replayed (post-rewind)
     * retirements.
     */
    std::uint64_t detach_after_instructions = 0;
};

/** Pool-wide configuration. The lag statistics it reports and
 *  schedules by are the timer's (core::PipelineTimer::lagHistogram). */
struct PoolConfig
{
    /** Platform knobs shared by every lane/tenant (buffer size,
     *  transport bandwidth, compression, containment, filtering). */
    core::LbaConfig lba;
    mem::HierarchyConfig hierarchy;
    /** Number of shared lifeguard lanes (cores). */
    unsigned lanes = 2;
    Policy policy = Policy::kStatic;
    /** Tenant execution slice, in retired instructions (>= 1). A lone
     *  tenant runs unsliced. */
    std::uint64_t slice_instructions = 20'000;
    /**
     * Per-tenant rewind-and-repair containment. A finding raised by one
     * tenant's lifeguard shards drains, rewinds and repairs only that
     * tenant; the other tenants' clocks and lane assignments are
     * untouched (their records simply keep flowing on the shared
     * lanes).
     */
    replay::ContainmentConfig containment;
};

/** Per-tenant outcome and statistics. */
struct TenantStats
{
    std::string name;
    /** Spent time in the admission queue before starting. */
    bool was_queued = false;
    /** Stopped by TenantConfig::detach_after_instructions. */
    bool detached = false;

    std::uint64_t instructions = 0;
    /** This tenant's completion time (app exit + its log drained +
     *  its final lifeguard passes). */
    Cycles total_cycles = 0;
    Cycles unmonitored_cycles = 0;
    /** total_cycles / unmonitored_cycles (0 from drive()). */
    double slowdown = 0.0;

    /** The tenant's slice of the engine stats (its own app/stall
     *  cycles, records, busy cycles, transport bytes, lag mean). */
    core::LbaRunStats lba;

    /** Consume-lag percentiles (cycles) of the tenant's histogram in
     *  the timer (core::PipelineTimer::lagHistogram). */
    double lag_p50 = 0.0;
    double lag_p95 = 0.0;
    double lag_p99 = 0.0;

    std::vector<lifeguard::Finding> findings;
    /** The tenant's last sim::Process::run result. */
    sim::RunResult run;

    /** True when this tenant ran under containment. */
    bool containment_enabled = false;
    /** True when the abort repair policy terminated this tenant. */
    bool aborted = false;
    /** Valid when containment_enabled. */
    replay::ContainmentStats containment;
};

/** Outcome of one pool run. */
struct PoolResult
{
    std::vector<TenantStats> tenants;
    /** Pool make-span: the latest tenant completion. */
    Cycles total_cycles = 0;
    /** Aggregate engine stats summed over tenants and lanes. */
    core::LbaRunStats aggregate;
    /** Pool drain bandwidth, the lanes' summed transport bandwidth
     *  (bytes/cycle; 0 = unlimited). */
    double capacity_bytes_per_cycle = 0.0;
    /** Lane-steal reassignments performed (lag policy). */
    std::uint64_t lane_steals = 0;
    /** Per-lane busy cycles (shared-resource utilisation view). */
    std::vector<Cycles> lane_busy_cycles;
    /** Per-lane consumed records. */
    std::vector<std::uint64_t> lane_records;
    /** Per-lane log-buffer occupancy. */
    std::vector<core::BufferStats> lane_buffers;
    std::string policy;
};

/**
 * The pool itself. Add tenants, then run() exactly once.
 *
 * @code
 *   sched::PoolConfig config;
 *   config.lanes = 4;
 *   config.policy = sched::Policy::kLagAware;
 *   sched::LifeguardPool pool(config, bench::makeAddrCheck());
 *   pool.addTenant({"gzip", gzip_program, {}});
 *   pool.addTenant({"mcf", mcf_program, {}});
 *   sched::PoolResult result = pool.run();
 * @endcode
 */
class LifeguardPool : public sim::RetireObserver
{
  public:
    /**
     * @param config  Pool configuration.
     * @param factory Creates one lifeguard instance per (tenant, shard
     *                context); each tenant gets `lanes` instances.
     */
    LifeguardPool(const PoolConfig& config,
                  core::LifeguardFactory factory);
    ~LifeguardPool() override;

    LifeguardPool(const LifeguardPool&) = delete;
    LifeguardPool& operator=(const LifeguardPool&) = delete;

    /** Register a tenant. @return Its index. */
    unsigned addTenant(TenantConfig tenant);

    /**
     * Admit, schedule and run every tenant to completion, then finish
     * all lifeguards and collect statistics, while another thread
     * computes the tenants' unmonitored baselines. Call exactly once.
     * Without containment the lifeguards' handlers run on a worker
     * thread, and what one throws is rethrown here once the drive has
     * stopped at the next window handoff.
     */
    PoolResult run();

    // sim::RetireObserver (driver internals; the pool observes the
    // currently-scheduled tenant's process).
    void onRetire(const sim::Retired& retired) override;
    void onOsEvent(const sim::OsEvent& event) override;

  private:
    /** Experiment::runLba calls drive() on a one-tenant pool, since it
     *  has the tenant's baseline cached, and reads timer_'s lanes. */
    friend class core::Experiment;

    struct Tenant;

    /**
     * One entry of the stream the driver hands to apply(): a tenant's
     * record, or a scheduler step at its place among the records.
     */
    struct Op
    {
        enum class Kind : std::uint8_t
        {
            /** Consume `record` of `tenant`; encode() writes its
             *  answer into `bytes` and `l1_misses`. */
            kRecord,
            /** `tenant` joined the active set. */
            kActivate,
            /** `tenant` left it (finished, detached or aborted). */
            kDeactivate,
            /** Recompute the lane map of the active set. */
            kRebalance,
            /** `tenant`'s slice ended: take its lag window. */
            kSliceEnd,
            /** Scheduling epoch: feed recent lag to the policy. */
            kEpoch,
        };

        log::EventRecord record;
        double bytes = 0.0;
        unsigned tenant = 0;
        std::uint8_t l1_misses = 0;
        Kind kind = Kind::kRecord;
    };
    // The ring holds kWindows * kWindowRecords of these
    // (docs/ARCHITECTURE.md, "Three host threads").
    static_assert(sizeof(Op) == 48, "an Op fills 48 bytes");

    /** The encoder thread's step: encode() each entry. */
    struct Encode
    {
        LifeguardPool* pool;

        void operator()(Op& op) const { pool->encode(op); }
    };

    /** The worker's step: apply() each entry. */
    struct Apply
    {
        LifeguardPool* pool;

        void operator()(const Op& op) const { pool->apply(op); }
    };

    /**
     * Everything run() does but the baselines: admit, schedule and run
     * every tenant, finish the lifeguards and collect statistics, with
     * each tenant's unmonitored_cycles and slowdown left 0.
     */
    PoolResult drive();

    /**
     * Whether one more tenant may start now: the pool is idle, the
     * transport is unlimited, or the running tenants' demand plus its
     * own fits the lanes' summed bandwidth.
     */
    bool fits() const;

    /** Start @p tenant: add it to the active set. */
    void activate(unsigned tenant);

    /** Hand the current tenant's @p record on, or encode and apply it
     *  now under containment. */
    void submitRecord(const log::EventRecord& record);

    /** Hand a scheduler step to apply(). */
    void step(Op::Kind kind, unsigned tenant = 0);

    /** Hand @p op to the later stages, or apply it now under
     *  containment. */
    void submit(const Op& op);

    /** The producer step of one entry: a record's bytes and L1
     *  misses, from its tenant's LbaSystem::produce. */
    void encode(Op& op);

    /** Apply one entry of the stream (the consumer step). */
    void apply(const Op& op);

    /** Point every active tenant's targets at its lanes' current map. */
    void placeShards();

    /** Scheduling epoch: feed recent lag to the policy. */
    void epoch();

    /** Set up before the drive and read by both threads. */
    PoolConfig config_;
    core::LifeguardFactory factory_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::unique_ptr<mem::CacheHierarchy> hierarchy_;
    std::unique_ptr<core::PipelineTimer> timer_;
    double capacity_ = 0.0;
    bool ran_ = false;

    /** The driver's state: the calling thread's alone, on host cache
     *  lines of its own. The per-record fields come first. */
    alignas(64) unsigned current_ = 0;
    /** Retirements before the driver stops the current slice. */
    std::uint64_t slice_remaining_ = 0;
    /** Indices of running tenants, admission order. */
    std::vector<unsigned> active_;
    /** FIFO of arrived tenants waiting to start. */
    std::vector<unsigned> queued_;
    /** A later stage failed: the drive stops (ring_->commit()). */
    bool stopped_ = false;

    /** apply()'s copy of active_, kept by the kActivate and
     *  kDeactivate entries, and the lane map, which the kRebalance and
     *  kEpoch entries recompute. */
    alignas(64) std::vector<unsigned> scheduled_;
    TenantScheduler scheduler_;

    /** The encoder and the worker (the drive without containment).
     *  Last member, so they are joined before anything they use is
     *  destroyed. */
    std::optional<core::ThreeStageRun<Op, Encode, Apply>> ring_;
};

} // namespace lba::sched
