/**
 * @file
 * Multi-tenant lifeguard pool tests.
 *
 * The central proof obligation: ONE tenant scheduled on an M-lane pool
 * is cycle-identical to core::LbaSystem with M shards, for every
 * policy — the pool is the same PipelineTimer recurrence and the same
 * sharding rule, so every stat must match exactly.
 *
 * The behavioural tests cover admission control (queue and reject),
 * lane sharing across tenants, the lag policy's stealing, and
 * determinism of the sliced driver.
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/lockset.h"
#include "sched/pool.h"
#include "sched/scheduler.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::sched {
namespace {

core::LifeguardFactory
addrcheck()
{
    return [] { return std::make_unique<lifeguards::AddrCheck>(); };
}

workload::GeneratedProgram
makeProgram(const char* profile, std::uint64_t instrs,
            bool with_bugs = false)
{
    workload::BugInjection bugs;
    if (with_bugs) {
        bugs.use_after_free = true;
        bugs.leak = true;
    }
    return workload::generate(*workload::findProfile(profile), bugs,
                              instrs);
}

/**
 * One tenant on an M-lane pool under @p policy must be cycle-identical
 * to LbaSystem with M shards.
 */
void
expectSingleTenantMatchesParallel(const workload::GeneratedProgram& gen,
                                  unsigned lanes, Policy policy,
                                  const core::LbaConfig& lba)
{
    core::ExperimentConfig exp_config;
    exp_config.lba = lba;
    core::Experiment exp(gen.program, exp_config);
    auto par = exp.runLba(addrcheck(), lanes);

    PoolConfig pool_config;
    pool_config.lba = lba;
    pool_config.lanes = lanes;
    pool_config.policy = policy;
    LifeguardPool pool(pool_config, addrcheck());
    pool.addTenant({"solo", gen.program, {}, 0.0});
    PoolResult result = pool.run();

    ASSERT_EQ(result.tenants.size(), 1u);
    const TenantStats& tenant = result.tenants[0];
    EXPECT_TRUE(tenant.admitted);
    EXPECT_FALSE(tenant.was_queued);

    const core::LbaRunStats& ps = par.lba;
    EXPECT_EQ(tenant.total_cycles, ps.total_cycles);
    EXPECT_EQ(result.total_cycles, ps.total_cycles);
    EXPECT_EQ(tenant.lba.app_cycles, ps.app_cycles);
    EXPECT_EQ(tenant.lba.app_instructions, ps.app_instructions);
    EXPECT_EQ(tenant.lba.records_logged, ps.records_logged);
    EXPECT_EQ(tenant.lba.records_filtered, ps.records_filtered);
    EXPECT_EQ(tenant.lba.backpressure_stall_cycles,
              ps.backpressure_stall_cycles);
    EXPECT_EQ(tenant.lba.syscall_stall_cycles, ps.syscall_stall_cycles);
    EXPECT_EQ(tenant.lba.syscall_drains, ps.syscall_drains);
    EXPECT_EQ(tenant.lba.lifeguard_busy_cycles,
              ps.lifeguard_busy_cycles);
    EXPECT_EQ(tenant.lba.transport_wait_cycles,
              ps.transport_wait_cycles);
    EXPECT_EQ(tenant.lba.transport_bytes, ps.transport_bytes);
    EXPECT_EQ(tenant.lba.bytes_per_record, ps.bytes_per_record);
    EXPECT_EQ(tenant.lba.mean_consume_lag, ps.mean_consume_lag);

    // Unmonitored baseline and slowdown must agree with the runner's.
    EXPECT_EQ(tenant.unmonitored_cycles, exp.unmonitored().cycles);
    EXPECT_DOUBLE_EQ(tenant.slowdown, par.slowdown);

    // Same findings in the same order (same dedupe over the same
    // per-shard lifeguard states).
    ASSERT_EQ(tenant.findings.size(), par.findings.size());
    for (std::size_t i = 0; i < tenant.findings.size(); ++i) {
        EXPECT_EQ(tenant.findings[i].kind, par.findings[i].kind);
        EXPECT_EQ(tenant.findings[i].addr, par.findings[i].addr);
        EXPECT_EQ(tenant.findings[i].pc, par.findings[i].pc);
    }
}

TEST(SchedDifferential, SingleTenantMatchesParallelStaticPolicy)
{
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    core::LbaConfig lba;
    for (unsigned lanes : {1u, 2u, 4u}) {
        SCOPED_TRACE(lanes);
        expectSingleTenantMatchesParallel(gen, lanes, Policy::kStatic,
                                          lba);
    }
}

TEST(SchedDifferential, SingleTenantMatchesParallelRoundRobinPolicy)
{
    auto gen = makeProgram("mcf", 40000);
    core::LbaConfig lba;
    for (unsigned lanes : {1u, 2u, 4u}) {
        SCOPED_TRACE(lanes);
        expectSingleTenantMatchesParallel(gen, lanes,
                                          Policy::kRoundRobin, lba);
    }
}

TEST(SchedDifferential, SingleTenantMatchesParallelLagPolicyConstrained)
{
    // Tiny buffers + fractional bandwidth: back-pressure, transport
    // waits and containment drains all active, under the dynamic
    // policy (which must never rebalance a lone tenant).
    auto gen = makeProgram("gzip", 40000);
    core::LbaConfig lba;
    lba.buffer_capacity = 64;
    lba.transport_bytes_per_cycle = 0.75;
    for (unsigned lanes : {1u, 2u, 4u}) {
        SCOPED_TRACE(lanes);
        expectSingleTenantMatchesParallel(gen, lanes, Policy::kLagAware,
                                          lba);
    }
}

TEST(SchedPool, TwoTenantsShareLanesAndBothComplete)
{
    auto a = makeProgram("gzip", 30000);
    auto b = makeProgram("mcf", 30000);

    PoolConfig config;
    config.lanes = 2;
    config.policy = Policy::kRoundRobin;
    config.slice_instructions = 5000;
    LifeguardPool pool(config, addrcheck());
    pool.addTenant({"gzip", a.program, {}, 0.0});
    pool.addTenant({"mcf", b.program, {}, 0.0});
    PoolResult result = pool.run();

    ASSERT_EQ(result.tenants.size(), 2u);
    for (const TenantStats& tenant : result.tenants) {
        EXPECT_TRUE(tenant.admitted);
        EXPECT_GT(tenant.instructions, 0u);
        EXPECT_GT(tenant.total_cycles, 0u);
        EXPECT_GT(tenant.slowdown, 1.0);
        EXPECT_GT(tenant.lba.records_logged, 0u);
    }
    // Both lanes consumed records, and the pool's aggregate equals the
    // per-tenant sum.
    EXPECT_GT(result.lane_records[0], 0u);
    EXPECT_GT(result.lane_records[1], 0u);
    EXPECT_EQ(result.aggregate.records_logged,
              result.tenants[0].lba.records_logged +
                  result.tenants[1].lba.records_logged);
    EXPECT_EQ(result.aggregate.app_instructions,
              result.tenants[0].lba.app_instructions +
                  result.tenants[1].lba.app_instructions);
    // Make-span covers the slower tenant.
    EXPECT_EQ(result.total_cycles,
              std::max(result.tenants[0].total_cycles,
                       result.tenants[1].total_cycles));
}

TEST(SchedPool, SlicedDriverIsDeterministic)
{
    auto a = makeProgram("gzip", 20000);
    auto b = makeProgram("bc", 20000);

    auto once = [&] {
        PoolConfig config;
        config.lanes = 2;
        config.policy = Policy::kLagAware;
        config.slice_instructions = 3000;
        LifeguardPool pool(config, addrcheck());
        pool.addTenant({"gzip", a.program, {}, 0.0});
        pool.addTenant({"bc", b.program, {}, 0.0});
        return pool.run();
    };
    PoolResult first = once();
    PoolResult second = once();
    ASSERT_EQ(first.tenants.size(), second.tenants.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
        EXPECT_EQ(first.tenants[i].total_cycles,
                  second.tenants[i].total_cycles);
        EXPECT_EQ(first.tenants[i].lba.records_logged,
                  second.tenants[i].lba.records_logged);
        EXPECT_EQ(first.tenants[i].lag_p95, second.tenants[i].lag_p95);
    }
    EXPECT_EQ(first.total_cycles, second.total_cycles);
    EXPECT_EQ(first.lane_steals, second.lane_steals);
}

TEST(SchedPool, AdmissionQueuesWhenDemandExceedsBandwidth)
{
    auto gen = makeProgram("gzip", 15000);

    PoolConfig config;
    config.lanes = 2;
    config.lba.transport_bytes_per_cycle = 2.0; // capacity 4 B/cycle
    config.admission = AdmissionMode::kQueue;
    config.slice_instructions = 4000;
    LifeguardPool pool(config, addrcheck());
    pool.addTenant({"a", gen.program, {}, 3.0});
    pool.addTenant({"b", gen.program, {}, 3.0}); // 6 > 4: must wait
    PoolResult result = pool.run();

    EXPECT_TRUE(result.tenants[0].admitted);
    EXPECT_FALSE(result.tenants[0].was_queued);
    EXPECT_TRUE(result.tenants[1].admitted);
    EXPECT_TRUE(result.tenants[1].was_queued);
    // The queued tenant still ran to completion after the first
    // finished.
    EXPECT_GT(result.tenants[1].instructions, 0u);
    EXPECT_EQ(result.capacity_bytes_per_cycle, 4.0);
}

TEST(SchedPool, AdmissionRejectsWhenConfigured)
{
    auto gen = makeProgram("gzip", 15000);

    PoolConfig config;
    config.lanes = 2;
    config.lba.transport_bytes_per_cycle = 2.0;
    config.admission = AdmissionMode::kReject;
    LifeguardPool pool(config, addrcheck());
    pool.addTenant({"a", gen.program, {}, 3.0});
    pool.addTenant({"b", gen.program, {}, 3.0});
    PoolResult result = pool.run();

    EXPECT_TRUE(result.tenants[0].admitted);
    EXPECT_TRUE(result.tenants[1].rejected);
    EXPECT_FALSE(result.tenants[1].admitted);
    EXPECT_EQ(result.tenants[1].instructions, 0u);
    EXPECT_EQ(result.tenants[1].total_cycles, 0u);
    // The admitted tenant is unaffected by the rejected one.
    EXPECT_GT(result.tenants[0].instructions, 0u);
}

TEST(SchedPool, LagPolicyStealsLanesUnderImbalance)
{
    // An allocation-heavy tenant (expensive AddrCheck handlers) against
    // a light one on a 4-lane pool: the static partition gives each 2
    // lanes; the lag policy should steal for the loaded tenant.
    auto heavy = makeProgram("bc", 60000);
    auto light = makeProgram("gzip", 20000);

    auto runWith = [&](Policy policy) {
        PoolConfig config;
        config.lanes = 4;
        config.policy = policy;
        config.slice_instructions = 2000;
        LifeguardPool pool(config, addrcheck());
        pool.addTenant({"heavy", heavy.program, {}, 0.0});
        pool.addTenant({"light", light.program, {}, 0.0});
        return pool.run();
    };

    PoolResult lag = runWith(Policy::kLagAware);
    // The policy observed the imbalance and reassigned at least one
    // lane (exact counts are workload-dependent but the mechanism must
    // fire on a 3x instruction-count imbalance with heavy handlers).
    EXPECT_GT(lag.lane_steals, 0u);
    EXPECT_EQ(lag.policy, "lag");
    for (const TenantStats& tenant : lag.tenants) {
        EXPECT_TRUE(tenant.admitted);
        EXPECT_GT(tenant.instructions, 0u);
    }
}

TEST(SchedPool, TenantStatsReportLagPercentiles)
{
    auto gen = makeProgram("mcf", 20000);
    PoolConfig config;
    config.lanes = 1;
    // Throttle the transport so consume lag is nonzero and spread.
    config.lba.transport_bytes_per_cycle = 0.5;
    LifeguardPool pool(config, addrcheck());
    pool.addTenant({"solo", gen.program, {}, 0.0});
    PoolResult result = pool.run();

    const TenantStats& tenant = result.tenants[0];
    EXPECT_GT(tenant.lag_p50, 0.0);
    EXPECT_LE(tenant.lag_p50, tenant.lag_p95);
    EXPECT_LE(tenant.lag_p95, tenant.lag_p99);
}

TEST(SchedScheduler, PoliciesGiveLoneTenantTheWholePool)
{
    for (Policy policy :
         {Policy::kStatic, Policy::kRoundRobin, Policy::kLagAware}) {
        auto scheduler = makeScheduler(policy, 4);
        scheduler->rebalance({0});
        for (unsigned shard = 0; shard < 4; ++shard) {
            EXPECT_EQ(scheduler->laneFor(0, shard), shard)
                << toString(policy);
        }
    }
}

TEST(SchedScheduler, StaticPartitionIsolatesTenants)
{
    StaticPartitionScheduler scheduler(4);
    scheduler.rebalance({0, 1});
    EXPECT_EQ(scheduler.laneSet(0), (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(scheduler.laneSet(1), (std::vector<unsigned>{2, 3}));
    // More tenants than lanes: shared singleton lanes.
    StaticPartitionScheduler tight(2);
    tight.rebalance({0, 1, 2});
    EXPECT_EQ(tight.laneSet(0).size(), 1u);
    EXPECT_EQ(tight.laneSet(2).size(), 1u);
}

TEST(SchedScheduler, RoundRobinRotatesPerTenant)
{
    RoundRobinScheduler scheduler(4);
    scheduler.rebalance({0, 1});
    // Tenant 1's shard 0 lands on lane 1, not lane 0: equally-hot
    // shards of co-resident tenants spread across lanes.
    EXPECT_EQ(scheduler.laneFor(0, 0), 0u);
    EXPECT_EQ(scheduler.laneFor(1, 0), 1u);
    EXPECT_EQ(scheduler.laneFor(1, 3), 0u);
}

TEST(SchedScheduler, LagAwareStealsFromSmallestBacklog)
{
    LagAwareScheduler scheduler(4);
    scheduler.rebalance({0, 1});
    // Tenant 0 lags 10x worse than tenant 1: steal one of 1's lanes.
    scheduler.onEpoch({0, 1}, {50.0, 5.0});
    EXPECT_EQ(scheduler.steals(), 1u);
    EXPECT_EQ(scheduler.laneSet(0).size(), 3u);
    EXPECT_EQ(scheduler.laneSet(1).size(), 1u);
    // Never the donor's last lane.
    scheduler.onEpoch({0, 1}, {50.0, 5.0});
    EXPECT_EQ(scheduler.steals(), 1u);
    EXPECT_EQ(scheduler.laneSet(1).size(), 1u);
}

TEST(SchedScheduler, PolicyNamesRoundTrip)
{
    Policy policy = Policy::kStatic;
    EXPECT_TRUE(parsePolicy("rr", &policy));
    EXPECT_EQ(policy, Policy::kRoundRobin);
    EXPECT_TRUE(parsePolicy("lag", &policy));
    EXPECT_EQ(policy, Policy::kLagAware);
    EXPECT_TRUE(parsePolicy("static", &policy));
    EXPECT_EQ(policy, Policy::kStatic);
    EXPECT_FALSE(parsePolicy("fifo", &policy));
}

} // namespace
} // namespace lba::sched
