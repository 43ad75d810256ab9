/**
 * @file
 * Tenant churn tests: arrival (TenantConfig::arrival_round) and
 * departure (TenantConfig::detach_after_instructions) in the shared
 * lifeguard pool.
 *
 * The central proof obligations:
 *  - Determinism: the same tenant population and churn schedule yields
 *    identical per-tenant statistics on every run — the round counter
 *    advances with executed slices, never wall time.
 *  - Departure is completion: a tenant detached after N instructions
 *    leaves every surviving tenant's cycles exactly as if the departed
 *    tenant had ended naturally at the same retirement (same program
 *    under process.max_instructions = N) — the detach clock observes
 *    the same retirement stream the platform does.
 *  - Arrival faces admission: a late arrival goes through the same
 *    start-or-queue step as a boot-time tenant, and an all-late
 *    population fast-forwards the idle pool to the first arrival
 *    round.
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguards/boundscheck.h"
#include "sched/pool.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::sched {
namespace {

core::LifeguardFactory
boundscheck()
{
    return [] { return std::make_unique<lifeguards::BoundsCheck>(); };
}

workload::GeneratedProgram
makeProgram(const char* profile, std::uint64_t instrs)
{
    return workload::generate(*workload::findProfile(profile), {},
                              instrs);
}

void
expectTenantStatsEqual(const TenantStats& a, const TenantStats& b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.was_queued, b.was_queued);
    EXPECT_EQ(a.detached, b.detached);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.unmonitored_cycles, b.unmonitored_cycles);
    EXPECT_DOUBLE_EQ(a.slowdown, b.slowdown);
    EXPECT_EQ(a.lba.app_instructions, b.lba.app_instructions);
    EXPECT_EQ(a.lba.records_logged, b.lba.records_logged);
    EXPECT_EQ(a.lba.total_cycles, b.lba.total_cycles);
    EXPECT_EQ(a.lba.app_cycles, b.lba.app_cycles);
    EXPECT_EQ(a.lba.backpressure_stall_cycles,
              b.lba.backpressure_stall_cycles);
    EXPECT_EQ(a.lba.syscall_stall_cycles, b.lba.syscall_stall_cycles);
    EXPECT_EQ(a.lba.lifeguard_busy_cycles, b.lba.lifeguard_busy_cycles);
    EXPECT_EQ(a.lba.transport_bytes, b.lba.transport_bytes);
    EXPECT_EQ(a.lba.syscall_drains, b.lba.syscall_drains);
    EXPECT_DOUBLE_EQ(a.lag_p50, b.lag_p50);
    EXPECT_DOUBLE_EQ(a.lag_p95, b.lag_p95);
    EXPECT_DOUBLE_EQ(a.lag_p99, b.lag_p99);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].kind, b.findings[i].kind);
        EXPECT_EQ(a.findings[i].pc, b.findings[i].pc);
        EXPECT_EQ(a.findings[i].addr, b.findings[i].addr);
    }
}

PoolResult
runChurnSchedule()
{
    auto serve = makeProgram("req_serve", 20000);
    PoolConfig config;
    config.lanes = 2;
    config.lba.transport_bytes_per_cycle = 2.0;
    config.slice_instructions = 4000;
    LifeguardPool pool(config, boundscheck());

    TenantConfig a;
    a.name = "boot0";
    a.program = serve.program;
    TenantConfig b = a;
    b.name = "boot1";
    b.detach_after_instructions = 9000; // mid third slice
    TenantConfig c = a;
    c.name = "late0";
    c.arrival_round = 3;
    TenantConfig d = a;
    d.name = "late1";
    d.arrival_round = 7;
    pool.addTenant(std::move(a));
    pool.addTenant(std::move(b));
    pool.addTenant(std::move(c));
    pool.addTenant(std::move(d));
    return pool.run();
}

TEST(Churn, SameScheduleSameStats)
{
    PoolResult first = runChurnSchedule();
    PoolResult second = runChurnSchedule();

    EXPECT_EQ(first.total_cycles, second.total_cycles);
    EXPECT_EQ(first.lane_steals, second.lane_steals);
    ASSERT_EQ(first.tenants.size(), second.tenants.size());
    for (std::size_t t = 0; t < first.tenants.size(); ++t) {
        SCOPED_TRACE(first.tenants[t].name);
        expectTenantStatsEqual(first.tenants[t], second.tenants[t]);
    }

    // The schedule actually exercised churn: everyone ran, and only
    // the detaching tenant detached (short of its full run).
    for (const TenantStats& tenant : first.tenants) {
        EXPECT_GT(tenant.instructions, 0u) << tenant.name;
    }
    EXPECT_FALSE(first.tenants[0].detached);
    EXPECT_TRUE(first.tenants[1].detached);
    EXPECT_EQ(first.tenants[1].instructions, 9000u);
    EXPECT_FALSE(first.tenants[2].detached);
    EXPECT_FALSE(first.tenants[3].detached);
}

TEST(Churn, DetachMatchesNaturalCompletion)
{
    // Survivors must not be able to tell a mid-slice detach from the
    // departed tenant simply ending at the same retirement.
    auto survivor = makeProgram("req_serve", 25000);
    auto departer = makeProgram("req_serve", 25000);
    const std::uint64_t kDetachAt = 9000; // not a slice multiple

    auto runPool = [&](bool via_detach) {
        PoolConfig config;
        config.lanes = 2;
        config.slice_instructions = 4000;
        LifeguardPool pool(config, boundscheck());
        TenantConfig stay;
        stay.name = "stay";
        stay.program = survivor.program;
        TenantConfig leave;
        leave.name = "leave";
        leave.program = departer.program;
        if (via_detach) {
            leave.detach_after_instructions = kDetachAt;
        } else {
            leave.process.max_instructions = kDetachAt;
        }
        pool.addTenant(std::move(stay));
        pool.addTenant(std::move(leave));
        return pool.run();
    };

    PoolResult detached = runPool(/*via_detach=*/true);
    PoolResult natural = runPool(/*via_detach=*/false);

    // The departed tenant observed exactly the same retirements...
    EXPECT_TRUE(detached.tenants[1].detached);
    EXPECT_FALSE(natural.tenants[1].detached);
    EXPECT_EQ(detached.tenants[1].instructions, kDetachAt);
    EXPECT_EQ(natural.tenants[1].instructions, kDetachAt);
    EXPECT_EQ(detached.tenants[1].total_cycles,
              natural.tenants[1].total_cycles);
    EXPECT_EQ(detached.tenants[1].lba.records_logged,
              natural.tenants[1].lba.records_logged);

    // ...so the survivor's run is bit-identical (the detach flag on
    // the departed tenant is the only per-tenant difference; its
    // slowdown denominator differs by construction — the natural run
    // declares the shorter program up front).
    expectTenantStatsEqual(detached.tenants[0], natural.tenants[0]);
    EXPECT_EQ(detached.total_cycles, natural.total_cycles);
}

TEST(Churn, LateArrivalFacesAdmissionQueue)
{
    auto gen = makeProgram("req_serve", 15000);
    PoolConfig config;
    config.lanes = 2;
    config.lba.transport_bytes_per_cycle = 1.5; // capacity 3 B/cycle
    config.slice_instructions = 4000;
    LifeguardPool pool(config, boundscheck());
    pool.addTenant({"a", gen.program, {}});
    TenantConfig late;
    late.name = "b";
    late.program = gen.program;
    late.arrival_round = 2; // 2 + 2 B/cycle > 3: must wait
    pool.addTenant(std::move(late));
    PoolResult result = pool.run();

    EXPECT_FALSE(result.tenants[0].was_queued);
    EXPECT_TRUE(result.tenants[1].was_queued);
    EXPECT_GT(result.tenants[1].instructions, 0u);
}

TEST(Churn, AllLatePopulationFastForwards)
{
    // Nothing runnable at round 0: the idle pool fast-forwards to the
    // first arrival instead of spinning or deadlocking.
    auto gen = makeProgram("req_serve", 15000);
    PoolConfig config;
    config.lanes = 2;
    config.slice_instructions = 4000;
    LifeguardPool pool(config, boundscheck());
    TenantConfig only;
    only.name = "late";
    only.program = gen.program;
    only.arrival_round = 10;
    pool.addTenant(std::move(only));
    PoolResult result = pool.run();

    ASSERT_EQ(result.tenants.size(), 1u);
    EXPECT_FALSE(result.tenants[0].was_queued);
    EXPECT_GT(result.tenants[0].instructions, 0u);
    EXPECT_FALSE(result.tenants[0].detached);
}

} // namespace
} // namespace lba::sched
