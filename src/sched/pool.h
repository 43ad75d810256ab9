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
 *  - Each tenant is a sim::Process plus its own log stream (producer):
 *    its own application-core clock, compressor, back-pressure and
 *    syscall-containment state.
 *  - Each tenant's log is sharded over `lanes` lifeguard shard
 *    contexts by core::routeRecord, the rule core::LbaSystem uses
 *    (address hash, annotations broadcast, other instruction records
 *    round-robin), so per-address lifeguards keep their semantics.
 *  - A TenantScheduler maps shard contexts to physical lanes. Lanes
 *    serialize whatever is folded onto them, which is how one tenant's
 *    burst degrades (only) whoever shares its lanes.
 *  - Admission control compares the aggregate declared log-production
 *    demand against the pool's drain bandwidth and queues (or rejects)
 *    tenants that would oversubscribe it.
 *
 * Execution is deterministic and stays on the calling thread: tenants
 * are driven round-robin in slices of `slice_instructions` retired
 * instructions; a lone tenant runs to completion unsliced, which
 * (together with identity lane maps) makes a one-tenant pool
 * cycle-identical to core::LbaSystem with M shards — the invariant
 * asserted by tests/sched_test.cpp.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline_timer.h"
#include "core/runner.h"
#include "replay/containment.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"

namespace lba::sched {

/** One monitored application admitted to the pool. */
struct TenantConfig
{
    std::string name;
    std::vector<isa::Instruction> program;
    sim::ProcessConfig process;
    /**
     * Declared log-production demand in transport bytes/cycle, used by
     * admission control. 0 = estimate from the platform configuration
     * (LBA logs about one record per instruction at IPC <= 1, so the
     * estimate is ~2 bytes/cycle compressed, or the raw record width
     * uncompressed — deliberately conservative).
     */
    double demand_bytes_per_cycle = 0.0;

    /**
     * Driver round (slice count since run() started) at which this
     * tenant arrives. 0 = present from the start. A late arrival goes
     * through the same admission decision (activate / queue / reject)
     * when its round comes up; while the pool is idle the driver
     * fast-forwards to the next arrival. Deterministic: the round
     * counter advances once per executed slice, never with wall time.
     */
    std::uint64_t arrival_round = 0;

    /**
     * Detach the tenant after this many observed retired instructions
     * (0 = run to completion). Detachment is treated exactly like
     * completion: mid-slice the process stops, the tenant's bandwidth
     * share is released, queued tenants are admitted and the lane map
     * rebalances — surviving tenants' clocks are untouched. Under
     * containment the count includes replayed (post-rewind)
     * retirements.
     */
    std::uint64_t detach_after_instructions = 0;
};

/** What admission control does with a tenant that does not fit. */
enum class AdmissionMode
{
    /** Hold it in a FIFO queue until running tenants finish. */
    kQueue,
    /** Refuse it outright (it never runs). */
    kReject,
};

/** Pool-wide configuration. */
struct PoolConfig
{
    /** Platform knobs shared by every lane/tenant (buffer size,
     *  transport bandwidth, compression, containment, filtering). */
    core::LbaConfig lba;
    /** Optional per-lane overrides (empty = uniform lanes). */
    std::vector<core::LaneLimits> lane_limits;
    mem::HierarchyConfig hierarchy;
    /** Number of shared lifeguard lanes (cores). */
    unsigned lanes = 2;
    Policy policy = Policy::kStatic;
    /** Tenant execution slice, in retired instructions. A lone tenant
     *  runs unsliced. */
    std::uint64_t slice_instructions = 20'000;
    AdmissionMode admission = AdmissionMode::kQueue;
    /** Admissible fraction of the pool drain bandwidth. */
    double max_load = 1.0;
    /** Consume-lag histogram geometry (per tenant): 512 x 256 covers
     *  lags up to 128k cycles; beyond that the percentile estimates
     *  saturate at the last edge (an oversubscribed pool's backlog —
     *  and therefore its lag — grows without bound, so *some* ceiling
     *  always exists; widen these for long contended runs). */
    std::size_t lag_hist_buckets = 512;
    std::uint64_t lag_hist_bucket_width = 256;
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
    bool admitted = false;
    /** Spent time in the admission queue before starting. */
    bool was_queued = false;
    /** Refused by admission control; never ran. */
    bool rejected = false;
    /** Stopped by TenantConfig::detach_after_instructions. */
    bool detached = false;
    /** Demand used by admission control (bytes/cycle). */
    double demand_bytes_per_cycle = 0.0;

    std::uint64_t instructions = 0;
    /** This tenant's completion time (app exit + its log drained +
     *  its final lifeguard passes). */
    Cycles total_cycles = 0;
    Cycles unmonitored_cycles = 0;
    /** total_cycles / unmonitored_cycles (0 when not run). */
    double slowdown = 0.0;

    /** The tenant's slice of the engine stats (its own app/stall
     *  cycles, records, busy cycles, transport bytes, lag mean). */
    core::LbaRunStats lba;

    /** Consume-lag distribution percentiles (cycles). */
    double lag_p50 = 0.0;
    double lag_p95 = 0.0;
    double lag_p99 = 0.0;

    std::vector<lifeguard::Finding> findings;

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
    /** Pool drain bandwidth (bytes/cycle; 0 = unlimited). */
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
 *   pool.addTenant({"gzip", gzip_program, {}, 0.0});
 *   pool.addTenant({"mcf", mcf_program, {}, 0.0});
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

    /** Register a tenant. @return Its index. */
    unsigned addTenant(TenantConfig tenant);

    /**
     * Admit, schedule and run every tenant to completion, then finish
     * all lifeguards and collect statistics. Call exactly once.
     */
    PoolResult run();

    // sim::RetireObserver (driver internals; the pool observes the
    // currently-scheduled tenant's process).
    void onRetire(const sim::Retired& retired) override;
    void onOsEvent(const sim::OsEvent& event) override;

  private:
    struct Tenant;

    /** Admission decision for @p tenant against the current load. */
    bool fits(const Tenant& tenant) const;

    /** Admit @p tenant: activate it and rebalance the lane map. */
    void activate(unsigned tenant);

    /** Deliver one record of the current tenant through the engine. */
    void deliver(Tenant& tenant, const log::EventRecord& record);

    /** Scheduling epoch: feed recent lag to the policy, reset windows. */
    void epoch();

    PoolConfig config_;
    core::LifeguardFactory factory_;
    std::vector<std::unique_ptr<Tenant>> tenants_;

    std::unique_ptr<mem::CacheHierarchy> hierarchy_;
    std::unique_ptr<core::PipelineTimer> timer_;
    std::unique_ptr<TenantScheduler> scheduler_;

    /** Indices of running tenants, admission order. */
    std::vector<unsigned> active_;
    /** FIFO of admitted-later tenants (kQueue admission). */
    std::vector<unsigned> queued_;
    double capacity_ = 0.0;
    double load_ = 0.0;

    /** Driver state while a slice is executing. */
    unsigned current_ = 0;
    std::uint64_t slice_remaining_ = 0;
    bool sliced_ = false;
    bool ran_ = false;

    /** Reused target scratch buffer (routing hot path). */
    std::vector<core::PipelineTimer::Target> targets_;
};

} // namespace lba::sched
