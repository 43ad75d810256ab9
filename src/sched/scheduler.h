#pragma once
/**
 * @file
 * Tenant scheduling policies for the shared lifeguard pool.
 *
 * A TenantScheduler owns the map from (tenant, lifeguard shard) to the
 * physical pool lane that consumes that shard's records. Functional
 * sharding is fixed (each tenant's core::LbaSystem shards its log over
 * `lanes` lifeguard shard contexts); the scheduler only decides *where*
 * each context runs (LbaSystem::setLane), so lane reassignment never
 * migrates shadow state — a lane context-switches between the shard
 * contexts folded onto it.
 *
 * Policies:
 *  - static  — lanes are partitioned once per active-tenant set; a
 *              tenant's shards fold onto its private lane range
 *              (isolation, no cross-tenant interference).
 *  - rr      — every tenant uses every lane, with per-tenant rotated
 *              shard->lane maps so hot shards spread (full sharing).
 *  - lag     — starts from the static partition; at every scheduling
 *              epoch the tenant with the largest recent consume lag
 *              steals a lane from the tenant with the smallest backlog.
 *
 * Every policy maps a lone tenant to the identity shard->lane map over
 * the whole pool, which is what makes one tenant on an M-lane pool
 * cycle-identical to core::LbaSystem with M shards (asserted by
 * tests/sched_test.cpp).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lba::sched {

/** Lane-assignment policy of a lifeguard pool. */
enum class Policy
{
    kStatic,
    kRoundRobin,
    kLagAware,
};

/** Policy name for reports ("static", "rr", "lag"). */
const char* toString(Policy policy);

/**
 * Parse a policy name ("static", "rr"/"round-robin", "lag").
 * @return False when the name is unknown (@p policy untouched).
 */
bool parsePolicy(const std::string& name, Policy* policy);

/**
 * Base class: owns the per-tenant lane sets. Tenants are dense indices;
 * a tenant keeps its last assignment after it finishes (the final
 * lifeguard passes still need a lane), but only active tenants take
 * part in rebalancing.
 */
class TenantScheduler
{
  public:
    explicit TenantScheduler(unsigned lanes);
    virtual ~TenantScheduler() = default;

    virtual const char* name() const = 0;

    /**
     * Recompute lane sets for @p active (tenant indices, admission
     * order). Called whenever the active set changes.
     */
    virtual void rebalance(const std::vector<unsigned>& active) = 0;

    /**
     * Scheduling-epoch hook: @p recent_lag[i] is the mean consume lag
     * of @p active[i]'s records since the previous epoch. Default no-op.
     */
    virtual void
    onEpoch(const std::vector<unsigned>& active,
            const std::vector<double>& recent_lag)
    {
        (void)active;
        (void)recent_lag;
    }

    /** Physical lane consuming @p tenant's lifeguard shard @p shard. */
    unsigned laneFor(unsigned tenant, unsigned shard) const;

    /** The lanes currently assigned to @p tenant. */
    const std::vector<unsigned>& laneSet(unsigned tenant) const;

    /** Number of lane-steal reassignments performed (lag policy). */
    std::uint64_t steals() const { return steals_; }

    unsigned lanes() const { return lanes_; }

  protected:
    /** Grow the per-tenant table to cover @p tenant. */
    void ensureTenant(unsigned tenant);

    /** Partition the pool across @p active (shared helper). */
    void assignPartition(const std::vector<unsigned>& active);

    unsigned lanes_;
    std::vector<std::vector<unsigned>> sets_;
    std::uint64_t steals_ = 0;
};

/** Fixed partition: each active tenant owns a private lane range. */
class StaticPartitionScheduler : public TenantScheduler
{
  public:
    using TenantScheduler::TenantScheduler;
    const char* name() const override { return "static"; }
    void rebalance(const std::vector<unsigned>& active) override;
};

/** Full sharing: every tenant on every lane, rotated per tenant. */
class RoundRobinScheduler : public TenantScheduler
{
  public:
    using TenantScheduler::TenantScheduler;
    const char* name() const override { return "rr"; }
    void rebalance(const std::vector<unsigned>& active) override;
};

/**
 * Lag-aware work stealing: static partition plus epoch rebalancing —
 * the tenant with the largest recent consume lag steals one lane from
 * the tenant with the smallest, when the imbalance is at least 2x and
 * the donor keeps at least one lane.
 */
class LagAwareScheduler : public TenantScheduler
{
  public:
    using TenantScheduler::TenantScheduler;
    const char* name() const override { return "lag"; }
    void rebalance(const std::vector<unsigned>& active) override;
    void onEpoch(const std::vector<unsigned>& active,
                 const std::vector<double>& recent_lag) override;
};

/** Instantiate the scheduler for @p policy over @p lanes lanes. */
std::unique_ptr<TenantScheduler> makeScheduler(Policy policy,
                                               unsigned lanes);

} // namespace lba::sched
