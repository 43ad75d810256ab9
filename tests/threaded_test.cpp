/**
 * @file
 * Differential proof of threaded execution: for the same program and
 * configuration, `execution = kThreaded` (lifeguard handlers on one
 * host worker thread per lane, costs recorded and replayed at the
 * flush barriers — core/threaded_executor.h) must be cycle-identical —
 * every stat, every finding — to `execution = kSerial` (the
 * reference), across the serial system, the parallel system with
 * shards in {1, 2, 4}, a one-tenant pool, and a containment run that
 * actually rewinds. This is the oracle that makes real multicore
 * execution safe: simulated timing stays authoritative and
 * deterministic no matter how the host schedules the workers, and any
 * drift is a test failure here, not a silent fork. The TSan CI job
 * runs this same suite to back the memory-order arguments
 * (docs/ARCHITECTURE.md "Threaded execution").
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/taintcheck.h"
#include "sched/pool.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::core {
namespace {

LifeguardFactory
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

void
expectStatsEqual(const LbaRunStats& threaded, const LbaRunStats& serial)
{
    EXPECT_EQ(threaded.app_instructions, serial.app_instructions);
    EXPECT_EQ(threaded.records_logged, serial.records_logged);
    EXPECT_EQ(threaded.records_filtered, serial.records_filtered);
    EXPECT_EQ(threaded.total_cycles, serial.total_cycles);
    EXPECT_EQ(threaded.app_cycles, serial.app_cycles);
    EXPECT_EQ(threaded.backpressure_stall_cycles,
              serial.backpressure_stall_cycles);
    EXPECT_EQ(threaded.syscall_stall_cycles,
              serial.syscall_stall_cycles);
    EXPECT_EQ(threaded.lifeguard_busy_cycles,
              serial.lifeguard_busy_cycles);
    EXPECT_EQ(threaded.bytes_per_record, serial.bytes_per_record);
    EXPECT_EQ(threaded.mean_consume_lag, serial.mean_consume_lag);
    EXPECT_EQ(threaded.syscall_drains, serial.syscall_drains);
    EXPECT_EQ(threaded.transport_bytes, serial.transport_bytes);
    EXPECT_EQ(threaded.transport_wait_cycles,
              serial.transport_wait_cycles);
    EXPECT_EQ(threaded.containment_cycles, serial.containment_cycles);
}

void
expectFindingsEqual(const std::vector<lifeguard::Finding>& threaded,
                    const std::vector<lifeguard::Finding>& serial)
{
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t i = 0; i < threaded.size(); ++i) {
        EXPECT_EQ(threaded[i].kind, serial[i].kind);
        EXPECT_EQ(threaded[i].pc, serial[i].pc);
        EXPECT_EQ(threaded[i].addr, serial[i].addr);
        EXPECT_EQ(threaded[i].tid, serial[i].tid);
        EXPECT_EQ(threaded[i].message, serial[i].message);
    }
}

/** Serial LBA platform: threaded vs serial host execution. */
void
expectSerialIdentical(const workload::GeneratedProgram& gen,
                      const LifeguardFactory& factory, LbaConfig lba)
{
    Experiment exp(gen.program);
    lba.execution = ExecutionMode::kThreaded;
    PlatformResult threaded = exp.runLba(factory, lba);
    lba.execution = ExecutionMode::kSerial;
    PlatformResult serial = exp.runLba(factory, lba);

    EXPECT_EQ(threaded.cycles, serial.cycles);
    expectStatsEqual(threaded.lba, serial.lba);
    expectFindingsEqual(threaded.findings, serial.findings);
}

TEST(ThreadedExecution, SerialAddrCheckDefaultConfig)
{
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    expectSerialIdentical(gen, addrcheck(), LbaConfig{});
}

TEST(ThreadedExecution, SerialAddrCheckConstrainedConfig)
{
    // Tiny buffer + fractional transport + filtering: back-pressure
    // flushes, transport ceilings and the filter all active, so the
    // cross-thread barrier fires at every kind of flush boundary.
    auto gen = makeProgram("mcf", 40000);
    LbaConfig lba;
    lba.buffer_capacity = 64;
    lba.filter_enabled = true;
    lba.filter_base = 0x10000000;
    lba.filter_bytes = 64ull << 20;
    lba.transport_bytes_per_cycle = 0.75;
    expectSerialIdentical(gen, addrcheck(), lba);
}

TEST(ThreadedExecution, SerialTaintCheck)
{
    workload::BugInjection bugs;
    bugs.tainted_jump = true;
    auto gen = workload::generate(*workload::findProfile("gzip"), bugs,
                                  40000);
    expectSerialIdentical(
        gen, [] { return std::make_unique<lifeguards::TaintCheck>(); },
        LbaConfig{});
}

TEST(ThreadedExecution, SerialLockSetUncompressed)
{
    auto gen = makeProgram("water", 40000);
    LbaConfig lba;
    lba.compress = false;
    lba.transport_bytes_per_cycle = 6.0;
    expectSerialIdentical(
        gen, [] { return std::make_unique<lifeguards::LockSet>(); },
        lba);
}

TEST(ThreadedExecution, ParallelShards124)
{
    // Multi-lane: shards > 1 means several worker threads genuinely
    // execute handlers concurrently (the broadcast annotation records
    // fan out to every lane), yet every per-shard stat must match.
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    for (unsigned shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(shards);
        ParallelLbaConfig config(LbaConfig{}, shards);
        config.execution = ExecutionMode::kThreaded;
        PlatformResult threaded =
            exp.runParallelLba(addrcheck(), config);
        config.execution = ExecutionMode::kSerial;
        PlatformResult serial = exp.runParallelLba(addrcheck(), config);

        EXPECT_EQ(threaded.cycles, serial.cycles);
        expectStatsEqual(threaded.parallel, serial.parallel);
        expectFindingsEqual(threaded.findings, serial.findings);
        for (unsigned s = 0; s < shards; ++s) {
            SCOPED_TRACE(s);
            EXPECT_EQ(threaded.parallel.shard_busy_cycles[s],
                      serial.parallel.shard_busy_cycles[s]);
            EXPECT_EQ(threaded.parallel.shard_records[s],
                      serial.parallel.shard_records[s]);
            EXPECT_EQ(threaded.parallel.shard_consume_lag[s],
                      serial.parallel.shard_consume_lag[s]);
            EXPECT_EQ(threaded.parallel.shard_transport_bytes[s],
                      serial.parallel.shard_transport_bytes[s]);
            EXPECT_EQ(threaded.parallel.shard_transport_wait_cycles[s],
                      serial.parallel.shard_transport_wait_cycles[s]);
            EXPECT_EQ(threaded.parallel.shard_max_occupancy[s],
                      serial.parallel.shard_max_occupancy[s]);
        }
    }
}

TEST(ThreadedExecution, OneTenantPool)
{
    // External-dispatch mode: the pool's tenant shard engines pin to
    // workers lazily, at the first flush that carries them.
    auto gen = makeProgram("gzip", 40000);
    sched::PoolConfig config;
    config.lanes = 2;
    config.lba.buffer_capacity = 256;
    config.lba.transport_bytes_per_cycle = 1.5;

    config.lba.execution = ExecutionMode::kThreaded;
    sched::LifeguardPool threaded_pool(config, addrcheck());
    threaded_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult threaded = threaded_pool.run();

    config.lba.execution = ExecutionMode::kSerial;
    sched::LifeguardPool serial_pool(config, addrcheck());
    serial_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult serial = serial_pool.run();

    EXPECT_EQ(threaded.total_cycles, serial.total_cycles);
    expectStatsEqual(threaded.aggregate, serial.aggregate);
    ASSERT_EQ(threaded.tenants.size(), 1u);
    ASSERT_EQ(serial.tenants.size(), 1u);
    EXPECT_EQ(threaded.tenants[0].total_cycles,
              serial.tenants[0].total_cycles);
    EXPECT_EQ(threaded.tenants[0].lag_p95, serial.tenants[0].lag_p95);
    expectStatsEqual(threaded.tenants[0].lba, serial.tenants[0].lba);
    expectFindingsEqual(threaded.tenants[0].findings,
                        serial.tenants[0].findings);
}

TEST(ThreadedExecution, ContainmentRewindsIdentically)
{
    // Detection latency must not depend on host threading: a
    // use-after-free caught under containment rewinds at the same
    // retirement, the same distance, for the same total cost — the
    // mid-run findings checks synchronize at the flush barrier.
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kQuarantine;

    LbaConfig lba;
    lba.execution = ExecutionMode::kThreaded;
    PlatformResult threaded = exp.runLba(addrcheck(), lba, containment);
    lba.execution = ExecutionMode::kSerial;
    PlatformResult serial = exp.runLba(addrcheck(), lba, containment);

    ASSERT_TRUE(threaded.containment_enabled);
    EXPECT_GE(threaded.containment.rewinds, 1u);
    EXPECT_EQ(threaded.cycles, serial.cycles);
    EXPECT_EQ(threaded.containment.rewinds, serial.containment.rewinds);
    EXPECT_EQ(threaded.containment.rewound_instructions,
              serial.containment.rewound_instructions);
    EXPECT_EQ(threaded.containment.max_rewind_distance,
              serial.containment.max_rewind_distance);
    EXPECT_EQ(threaded.containment.rewind_cycles,
              serial.containment.rewind_cycles);
    expectStatsEqual(threaded.lba, serial.lba);
    expectFindingsEqual(threaded.findings, serial.findings);
}

TEST(ThreadedExecution, ThreadedPathActuallyBatches)
{
    // Sanity: threaded mode flows through consumeBatchDeferred, which
    // counts batches exactly like consumeBatch — so batches > 0 proves
    // records really crossed the worker threads, and equality with the
    // serial count proves the run partitioning is identical.
    auto gen = makeProgram("gzip", 20000);

    auto run = [&](ExecutionMode execution) {
        LbaConfig lba;
        lba.execution = execution;
        mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
        lifeguards::AddrCheck guard;
        LbaSystem system(guard, hierarchy, lba);
        sim::Process process{sim::ProcessConfig{}};
        process.load(gen.program);
        process.run(&system);
        system.finish();
        return system.dispatchStats().batches;
    };

    auto threaded = run(ExecutionMode::kThreaded);
    EXPECT_GT(threaded, 0u);
    EXPECT_EQ(threaded, run(ExecutionMode::kSerial));
}

/**
 * Determinism property: threaded execution must not let host thread
 * scheduling leak into results — the same program gives bit-identical
 * stats and findings on every one of 50 runs. (Each run spawns fresh
 * worker threads, so 50 runs sample 50 host schedules.)
 */
TEST(ThreadedDeterminism, FiftyRunsBitIdentical)
{
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    auto gen = workload::generate(*workload::findProfile("bc"), bugs,
                                  5000);
    LbaConfig lba;
    lba.execution = ExecutionMode::kThreaded;
    auto factory = [] {
        return std::make_unique<lifeguards::AddrCheck>();
    };
    Experiment exp(gen.program);
    PlatformResult first = exp.runLba(factory, lba);
    EXPECT_GT(first.findings.size(), 0u);

    for (int run = 1; run < 50; ++run) {
        SCOPED_TRACE(run);
        PlatformResult result = exp.runLba(factory, lba);
        EXPECT_EQ(result.cycles, first.cycles);
        EXPECT_EQ(result.lba.total_cycles, first.lba.total_cycles);
        EXPECT_EQ(result.lba.app_cycles, first.lba.app_cycles);
        EXPECT_EQ(result.lba.records_logged, first.lba.records_logged);
        EXPECT_EQ(result.lba.lifeguard_busy_cycles,
                  first.lba.lifeguard_busy_cycles);
        EXPECT_EQ(result.lba.backpressure_stall_cycles,
                  first.lba.backpressure_stall_cycles);
        EXPECT_EQ(result.lba.syscall_stall_cycles,
                  first.lba.syscall_stall_cycles);
        EXPECT_EQ(result.lba.mean_consume_lag,
                  first.lba.mean_consume_lag);
        ASSERT_EQ(result.findings.size(), first.findings.size());
        for (std::size_t i = 0; i < first.findings.size(); ++i) {
            EXPECT_EQ(result.findings[i].kind, first.findings[i].kind);
            EXPECT_EQ(result.findings[i].pc, first.findings[i].pc);
            EXPECT_EQ(result.findings[i].addr, first.findings[i].addr);
        }
    }
}

} // namespace
} // namespace lba::core
