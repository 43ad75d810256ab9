/**
 * @file
 * Tests for the LBA system: decoupled timing, back-pressure, syscall
 * containment, filtering, core placement, sharding across lifeguard
 * cores, systems sharing one timer, the three-stage ring on its own,
 * and runLba's three-stage schedule against the inline one (the
 * TwoThreadSchedule cases keep the name they had when the schedule had
 * two threads).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "asm/assembler.h"
#include "core/lba_system.h"
#include "core/runner.h"
#include "core/three_stage_run.h"
#include "fixed_cost_lifeguard.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/taintcheck.h"
#include "throwing_lifeguard.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::core {
namespace {

using assembler::assemble;

std::vector<isa::Instruction>
program(const std::string& source)
{
    auto r = assemble(source);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

LifeguardFactory
addrcheck()
{
    return [] { return std::make_unique<lifeguards::AddrCheck>(); };
}

TEST(LbaSystem, UnmonitoredBaselineIsCheapest)
{
    auto prog = program(R"(
        li r5, 0x100000
        li r1, 1000
    loop:
        ld r2, 0(r5)
        sd r2, 8(r5)
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )");
    Experiment exp(prog);
    auto base = exp.unmonitored();
    auto lba = exp.runLba(addrcheck());
    EXPECT_GT(base.cycles, 0u);
    EXPECT_GT(lba.cycles, base.cycles);
    EXPECT_GT(lba.slowdown, 1.0);
}

TEST(LbaSystem, EveryRetirementIsLogged)
{
    auto prog = program("li r1, 5\nadd r2, r1, r1\nhalt\n");
    Experiment exp(prog);
    auto lba = exp.runLba(addrcheck());
    // 3 instruction records + ThreadExit annotation.
    EXPECT_EQ(lba.lba.records_logged, 4u);
    EXPECT_EQ(lba.lba.app_instructions, 3u);
}

TEST(LbaSystem, CompressionAccountingActive)
{
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, 50000);
    Experiment exp(generated.program);
    auto lba = exp.runLba(addrcheck());
    EXPECT_GT(lba.lba.bytes_per_record, 0.0);
    EXPECT_LT(lba.lba.bytes_per_record, 1.0); // the paper's claim
}

TEST(LbaSystem, TinyBufferCausesBackpressure)
{
    auto generated =
        workload::generate(*workload::findProfile("mcf"), {}, 50000);
    Experiment exp(generated.program);

    LbaConfig tiny = exp.config().lba;
    tiny.buffer_capacity = 8;
    auto constrained = exp.runLba(addrcheck(), tiny);

    LbaConfig big = exp.config().lba;
    big.buffer_capacity = 1 << 20;
    auto decoupled = exp.runLba(addrcheck(), big);

    EXPECT_GT(constrained.lba.backpressure_stall_cycles, 0u);
    // More decoupling can only help (or tie).
    EXPECT_LE(decoupled.cycles, constrained.cycles);
}

TEST(LbaSystem, SyscallContainmentDrainsLog)
{
    auto prog = program(R"(
        li r5, 0x100000
        li r3, 200
    loop:
        sd r3, 0(r5)
        addi r3, r3, -1
        bne r3, r0, loop
        li r1, 64
        syscall 1
        halt
    )");
    Experiment exp(prog);

    LbaConfig stall = exp.config().lba;
    stall.syscall_stall = true;
    auto with = exp.runLba(addrcheck(), stall);

    LbaConfig nostall = exp.config().lba;
    nostall.syscall_stall = false;
    auto without = exp.runLba(addrcheck(), nostall);

    EXPECT_EQ(with.lba.syscall_drains, 1u);
    EXPECT_EQ(without.lba.syscall_drains, 0u);
    EXPECT_GE(with.lba.syscall_stall_cycles, 0u);
    // Containment can only slow the application side down.
    EXPECT_GE(with.cycles, without.cycles);
}

TEST(LbaSystem, FilteringDropsOutOfRangeRecords)
{
    auto prog = program(R"(
        li r5, 0x100000      ; global (outside heap)
        li r3, 100
    loop:
        ld r2, 0(r5)
        addi r3, r3, -1
        bne r3, r0, loop
        halt
    )");
    Experiment exp(prog);
    LbaConfig filt = exp.config().lba;
    filt.filter_enabled = true;
    filt.filter_base = 0x10000000; // heap only
    filt.filter_bytes = 64ull << 20;
    auto filtered = exp.runLba(addrcheck(), filt);
    EXPECT_EQ(filtered.lba.records_filtered, 100u);
    auto plain = exp.runLba(addrcheck());
    EXPECT_EQ(plain.lba.records_filtered, 0u);
    EXPECT_LT(filtered.lba.records_logged, plain.lba.records_logged);
}

TEST(LbaSystem, FilteringPreservesAddrCheckFindings)
{
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    bugs.leak = true;
    auto generated =
        workload::generate(*workload::findProfile("tidy"), bugs, 60000);
    Experiment exp(generated.program);

    LbaConfig filt = exp.config().lba;
    filt.filter_enabled = true;
    filt.filter_base = 0x10000000;
    filt.filter_bytes = 64ull << 20;
    auto filtered = exp.runLba(addrcheck(), filt);
    auto plain = exp.runLba(addrcheck());
    ASSERT_EQ(filtered.findings.size(), plain.findings.size());
    for (std::size_t i = 0; i < filtered.findings.size(); ++i) {
        EXPECT_EQ(filtered.findings[i].kind, plain.findings[i].kind);
    }
    // And filtering reduces lifeguard-side work.
    EXPECT_LE(filtered.lba.lifeguard_busy_cycles,
              plain.lba.lifeguard_busy_cycles);
}

TEST(LbaSystem, DeterministicAcrossRuns)
{
    auto generated =
        workload::generate(*workload::findProfile("bc"), {}, 40000);
    Experiment exp1(generated.program);
    Experiment exp2(generated.program);
    auto a = exp1.runLba(addrcheck());
    auto b = exp2.runLba(addrcheck());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.lba.records_logged, b.lba.records_logged);
    EXPECT_EQ(a.lba.bytes_per_record, b.lba.bytes_per_record);
}

TEST(LbaSystem, LifeguardLagIsObservable)
{
    auto generated =
        workload::generate(*workload::findProfile("gs"), {}, 40000);
    Experiment exp(generated.program);
    auto lba = exp.runLba(addrcheck());
    // The lifeguard runs behind the application (decoupled cores).
    EXPECT_GT(lba.lba.mean_consume_lag, 0.0);
    EXPECT_GT(lba.lba.lifeguard_busy_cycles, 0u);
}

TEST(ParallelLba, ShardingPreservesAddrCheckFindings)
{
    workload::BugInjection bugs;
    bugs.leak = true;
    bugs.double_free = true;
    auto generated =
        workload::generate(*workload::findProfile("tidy"), bugs, 60000);
    Experiment exp(generated.program);

    auto single = exp.runLba(addrcheck());
    auto sharded = exp.runLba(addrcheck(), 4);

    // Same finding kinds/addresses (order may differ across shards).
    auto key = [](const lifeguard::Finding& f) {
        return std::make_tuple(static_cast<int>(f.kind), f.addr, f.pc);
    };
    std::vector<std::tuple<int, Addr, Addr>> a, b;
    for (const auto& f : single.findings) a.push_back(key(f));
    for (const auto& f : sharded.findings) b.push_back(key(f));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
}

TEST(ParallelLba, RoutesEachRecordByTheShardingRule)
{
    // For every shard count from 1 to 5, powers of two or not: a load
    // or store goes to shard (addr >> 6) % n, each other instruction to
    // the next shard in turn from shard 0, and an annotation to every
    // shard. Each shard's lane counts the records it took as pushes.
    for (unsigned n = 1; n <= 5; ++n) {
        mem::HierarchyConfig hc;
        hc.num_cores = 1 + n;
        mem::CacheHierarchy hierarchy(hc);
        std::vector<std::unique_ptr<testing::FixedCostLifeguard>> guards;
        std::vector<lifeguard::Lifeguard*> shards;
        for (unsigned s = 0; s < n; ++s) {
            guards.push_back(std::make_unique<testing::FixedCostLifeguard>(1));
            shards.push_back(guards.back().get());
        }
        LbaSystem system(shards, hierarchy);

        std::vector<std::uint64_t> want(n, 0);
        auto consume = [&](log::EventType type, Addr addr,
                           const std::string& what) {
            log::EventRecord record;
            record.pc = 0x1000;
            record.type = type;
            record.addr = addr;
            record.aux = 8;
            system.consume(record, system.produce(record));
            for (unsigned s = 0; s < n; ++s) {
                EXPECT_EQ(system.bufferStats(s).pushes, want[s])
                    << n << " shards, shard " << s << ", after " << what;
            }
        };

        unsigned next = 0;
        auto roundRobin = [&](log::EventType type, const std::string& what) {
            ++want[next];
            next = (next + 1) % n;
            consume(type, 0, what);
        };
        for (unsigned i = 0; i < 2 * n + 1; ++i) {
            roundRobin(log::EventType::kIntAlu, "alu " + std::to_string(i));
        }

        const std::vector<Addr> addrs = {
            0x0,        0x3f,       0x40,       0x7f,
            0x80,       0xc8,       0x100,      0x1c0,
            0x240,      0x10000003, 0x1000fffc, 0x7fffffffffc0,
            0xdeadbeefcafe, ~Addr{0} & ~Addr{7}};
        for (Addr addr : addrs) {
            for (log::EventType type :
                 {log::EventType::kLoad, log::EventType::kStore}) {
                ++want[(addr >> 6) % n];
                consume(type, addr,
                        std::string(log::eventTypeName(type)) + " at " +
                            std::to_string(addr));
            }
            // Loads and stores do not move the round-robin cursor.
            roundRobin(log::EventType::kMove,
                       "move after " + std::to_string(addr));
        }

        for (log::EventType type :
             {log::EventType::kAlloc, log::EventType::kFree,
              log::EventType::kInput, log::EventType::kOutput,
              log::EventType::kLock, log::EventType::kUnlock,
              log::EventType::kThreadSpawn, log::EventType::kThreadExit}) {
            for (std::uint64_t& pushes : want) ++pushes;
            consume(type, 0x10000040, log::eventTypeName(type));
            // Annotations do not move the cursor either.
            roundRobin(log::EventType::kBranch,
                       std::string("branch after ") +
                           log::eventTypeName(type));
        }
        roundRobin(log::EventType::kSyscall, "syscall");
        roundRobin(log::EventType::kReturn, "return");
        system.finish();
    }
}

TEST(ParallelLba, MoreShardsReduceLifeguardBottleneck)
{
    auto generated =
        workload::generate(*workload::findProfile("mcf"), {}, 80000);
    Experiment exp(generated.program);
    auto one = exp.runLba(addrcheck(), 1);
    auto four = exp.runLba(addrcheck(), 4);
    EXPECT_LT(four.cycles, one.cycles);
    EXPECT_EQ(four.shards.size(), 4u);
}

TEST(LbaSystem, BandwidthLimitedTransportThrottles)
{
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, 40000);
    Experiment exp(generated.program);

    // Uncompressed 24-byte records over a 0.5 B/cycle transport: the
    // transport is the bottleneck (48 cycles/record >> handler cost).
    LbaConfig raw = exp.config().lba;
    raw.compress = false;
    raw.transport_bytes_per_cycle = 0.5;
    auto throttled = exp.runLba(addrcheck(), raw);

    LbaConfig compressed = exp.config().lba;
    compressed.compress = true;
    compressed.transport_bytes_per_cycle = 0.5;
    auto fine = exp.runLba(addrcheck(), compressed);

    EXPECT_GT(throttled.cycles, fine.cycles * 3);
    EXPECT_GT(throttled.lba.transport_wait_cycles, 0u);
    // Compressed records are ~30x smaller on the wire.
    EXPECT_LT(fine.lba.transport_bytes,
              throttled.lba.transport_bytes / 10);
}

TEST(LbaSystem, UnlimitedTransportIgnoresCompression)
{
    // Compression changes what the transport carries and nothing else:
    // on an unlimited link the raw and compressed runs take the same
    // cycles, and only the transport bytes differ.
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, 20000);
    Experiment exp(generated.program);
    LbaConfig raw = exp.config().lba;
    raw.compress = false;
    auto uncompressed = exp.runLba(addrcheck(), raw);
    auto compressed = exp.runLba(addrcheck());

    EXPECT_EQ(uncompressed.cycles, compressed.cycles);
    EXPECT_EQ(uncompressed.lba.records_logged,
              compressed.lba.records_logged);
    EXPECT_EQ(uncompressed.lba.lifeguard_busy_cycles,
              compressed.lba.lifeguard_busy_cycles);
    EXPECT_EQ(uncompressed.lba.transport_bytes,
              raw.raw_record_bytes *
                  static_cast<double>(uncompressed.lba.records_logged));
    EXPECT_LT(compressed.lba.transport_bytes,
              uncompressed.lba.transport_bytes / 10);
}

TEST(LbaSystem, UnlimitedBandwidthMatchesDefault)
{
    auto generated =
        workload::generate(*workload::findProfile("bc"), {}, 30000);
    Experiment exp(generated.program);
    auto plain = exp.runLba(addrcheck());
    LbaConfig wide = exp.config().lba;
    wide.transport_bytes_per_cycle = 1e9;
    auto unconstrained = exp.runLba(addrcheck(), wide);
    // Ceiling delivery: any finite bandwidth quantizes each record to
    // the next cycle boundary, so a huge-but-finite transport is never
    // faster than unlimited — and within a whisker of it.
    EXPECT_GE(unconstrained.cycles, plain.cycles);
    EXPECT_NEAR(static_cast<double>(unconstrained.cycles) /
                    static_cast<double>(plain.cycles),
                1.0, 0.01);
}

TEST(LbaSystem, FractionalBandwidthUsesCeilingDelivery)
{
    // 3 uncompressed 8-byte records over a 3 B/cycle transport: each
    // record needs 8/3 = 2.67 cycles on the wire. With ceiling
    // semantics a record is only consumable at the first cycle boundary
    // at or after its last byte arrives, so the cumulative delivery
    // points are ceil(2.67)=3, ceil(5.33)=6, ceil(8)=8 — truncation
    // would deliver at 2, 5, 8 and let records 1 and 2 be consumed
    // before their final byte crossed the transport.
    auto prog = program("li r1, 1\nli r2, 2\nhalt\n");
    Experiment exp(prog);
    LbaConfig frac = exp.config().lba;
    frac.compress = false;
    frac.raw_record_bytes = 8;
    frac.transport_bytes_per_cycle = 3.0;
    auto run = exp.runLba(addrcheck(), frac);
    // 3 instruction records + ThreadExit annotation = 4 records of
    // 8 bytes each; production finishes long before the wire does, so
    // every delivery waits on the transport.
    ASSERT_EQ(run.lba.records_logged, 4u);
    EXPECT_EQ(run.lba.transport_bytes, 32.0);
    // The run is deterministic, so pin the exact values that separate
    // the two semantics: ceiling delivery waits 24 cycles total (mean
    // lag 6.0); the old truncating delivery waited only 20 (lag 5.0),
    // consuming records before their final byte had crossed the wire.
    EXPECT_EQ(run.lba.transport_wait_cycles, 24u);
    EXPECT_DOUBLE_EQ(run.lba.mean_consume_lag, 6.0);
}

TEST(LbaSystem, StarvedTransportSaturatesInsteadOfWrapping)
{
    // At these bandwidths a record's delivery time does not fit in
    // Cycles. Delivery saturates at kDeliveryCeiling, so a starved link
    // is never faster than an unlimited one and the clocks never wrap.
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, 20000);
    Experiment exp(generated.program);
    auto unlimited = exp.runLba(addrcheck());
    for (double bandwidth : {1e-300, 1e-18}) {
        LbaConfig starved = exp.config().lba;
        starved.transport_bytes_per_cycle = bandwidth;
        auto run = exp.runLba(addrcheck(), starved);
        EXPECT_GE(run.lba.total_cycles, unlimited.lba.total_cycles)
            << bandwidth;
        EXPECT_GE(run.lba.total_cycles, kDeliveryCeiling) << bandwidth;
        EXPECT_LT(run.lba.total_cycles,
                  kDeliveryCeiling + unlimited.lba.total_cycles)
            << bandwidth;
        EXPECT_EQ(run.lba.records_logged, unlimited.lba.records_logged);
    }
}

TEST(LbaSystemDeathTest, NegativeOrNanBandwidthIsRejected)
{
    // Neither is a bandwidth; 0 is the only way to ask for unlimited.
    Experiment exp(program("li r1, 1\nhalt\n"));
    for (double bandwidth : {-1.0, std::nan("")}) {
        LbaConfig bad = exp.config().lba;
        bad.transport_bytes_per_cycle = bandwidth;
        EXPECT_DEATH(exp.runLba(addrcheck(), bad),
                     "transport bandwidth must be >= 0")
            << bandwidth;
    }
}

TEST(LbaSystem, TransportBytesMatchCompressorOutput)
{
    auto generated =
        workload::generate(*workload::findProfile("bc"), {}, 30000);
    Experiment exp(generated.program);
    auto result = exp.runLba(addrcheck());
    double expected = result.lba.bytes_per_record *
                      static_cast<double>(result.lba.records_logged);
    EXPECT_NEAR(result.lba.transport_bytes, expected,
                expected * 0.01 + 1.0);
}

TEST(LbaSystem, AttachedSystemsShareOneTimer)
{
    // Producers 0 and 1 (applications on cores 0 and 1) of one 2-lane
    // timer (lifeguard cores 2 and 3), one shard each; producer 1's
    // shard moves to lane 1.
    mem::HierarchyConfig hc;
    hc.num_cores = 4;
    mem::CacheHierarchy hierarchy(hc);
    LbaConfig config;
    PipelineTimer timer(hierarchy, config, 2, 2);
    ASSERT_EQ(timer.addProducer(1), 1u);
    testing::FixedCostLifeguard guard_a(0, 3), guard_b(0, 7);
    LbaSystem a({&guard_a}, timer, 0);
    LbaSystem b({&guard_b}, timer, 1);
    b.setLane(0, 1);

    log::EventRecord record;
    record.pc = 0x1000;
    record.type = log::EventType::kIntAlu;
    for (int i = 0; i < 2; ++i) a.consume(record, a.produce(record));
    for (int i = 0; i < 5; ++i) b.consume(record, b.produce(record));
    EXPECT_EQ(timer.laneStats(0).records, 2u);
    EXPECT_EQ(timer.laneStats(1).records, 5u);
    EXPECT_EQ(b.bufferStats(0).pushes, 5u);
    EXPECT_EQ(b.bufferStats(0).max_occupancy,
              timer.laneStats(1).buffer.max_occupancy);

    // Each final pass lands on its shard's current lane.
    Cycles busy0 = timer.laneStats(0).busy_cycles;
    Cycles busy1 = timer.laneStats(1).busy_cycles;
    a.finish();
    b.finish();
    EXPECT_EQ(timer.laneStats(0).busy_cycles, busy0 + 3);
    EXPECT_EQ(timer.laneStats(1).busy_cycles, busy1 + 7);

    // Neither finish() sealed the shared timer, or this seal() would
    // abort.
    timer.seal();
    EXPECT_EQ(a.stats().records_logged, 2u);
    EXPECT_EQ(b.stats().records_logged, 5u);
    EXPECT_EQ(b.stats().total_cycles, timer.laneStats(1).last_finish);
}

TEST(LbaSystem, AMovedShardKeepsChargingItsFirstCore)
{
    // Shard s's engine is built on lane s's core, first_core + s, and
    // setLane() moves only its timing lane: after shard 0 moves onto
    // lane 1, its records serialize on lane 1, but its handlers' metadata
    // accesses still go to core first_core's L1D, not to lane 1's core
    // first_core + 1.
    mem::HierarchyConfig hc;
    hc.num_cores = 3;
    mem::CacheHierarchy hierarchy(hc);
    LbaConfig config;
    const unsigned first_core = 1;
    PipelineTimer timer(hierarchy, config, 2, first_core);
    lifeguards::AddrCheck guard_0, guard_1;
    LbaSystem system({&guard_0, &guard_1}, timer, 0);
    system.setLane(0, 1);

    constexpr Addr kHeap = 0x10000000;
    log::EventRecord alloc;
    alloc.type = log::EventType::kAlloc;
    alloc.addr = kHeap;
    alloc.aux = 64;
    system.consume(alloc, system.produce(alloc));

    log::EventRecord load;
    load.pc = 0x1000;
    load.type = log::EventType::kLoad;
    load.addr = kHeap + 8;
    load.aux = 8;
    ASSERT_EQ((load.addr >> 6) % 2, 0u); // routed to shard 0
    std::uint64_t lane_0 = timer.laneStats(0).records;
    std::uint64_t lane_1 = timer.laneStats(1).records;
    std::uint64_t core_0 = hierarchy.l1d(first_core).stats().accesses();
    std::uint64_t core_1 = hierarchy.l1d(first_core + 1).stats().accesses();
    system.consume(load, system.produce(load));

    EXPECT_EQ(timer.laneStats(0).records, lane_0);
    EXPECT_EQ(timer.laneStats(1).records, lane_1 + 1);
    EXPECT_EQ(hierarchy.l1d(first_core).stats().accesses(), core_0 + 1);
    EXPECT_EQ(hierarchy.l1d(first_core + 1).stats().accesses(), core_1);
    EXPECT_TRUE(guard_0.findings().empty());
    system.finish();
    timer.seal();
}

/**
 * Run @p prog through runLba, which uses its three-stage schedule
 * without containment, and through LbaSystem driven inline on the
 * same setup; every statistic, lane and finding must agree.
 * @return The runLba result.
 */
PlatformResult
expectMatchesInline(const std::vector<isa::Instruction>& prog,
                    const ExperimentConfig& config, unsigned shards = 1)
{
    Experiment exp(prog, config);
    PlatformResult threaded =
        exp.runLba(addrcheck(), config.lba, config.containment, shards);

    sim::Process process(config.process);
    process.load(prog);
    mem::HierarchyConfig hc = config.hierarchy;
    hc.num_cores = std::max(hc.num_cores, 1 + shards);
    mem::CacheHierarchy hierarchy(hc);
    std::vector<std::unique_ptr<lifeguard::Lifeguard>> guards;
    std::vector<lifeguard::Lifeguard*> shard_guards;
    for (unsigned s = 0; s < shards; ++s) {
        guards.push_back(addrcheck()());
        shard_guards.push_back(guards.back().get());
    }
    LbaSystem system(shard_guards, hierarchy, config.lba);
    sim::RunResult run = process.run(&system);
    system.finish();

    EXPECT_EQ(threaded.instructions, run.instructions);
    EXPECT_EQ(threaded.lba, system.stats());
    EXPECT_EQ(threaded.shards.size(), shards);
    for (unsigned s = 0; s < std::min<std::size_t>(shards,
                                                   threaded.shards.size());
         ++s) {
        const LaneStats& got = threaded.shards[s];
        LaneStats want = system.timer().laneStats(s);
        EXPECT_EQ(got.last_finish, want.last_finish) << "shard " << s;
        EXPECT_EQ(got.busy_cycles, want.busy_cycles) << "shard " << s;
        EXPECT_EQ(got.records, want.records) << "shard " << s;
        EXPECT_EQ(got.mean_consume_lag, want.mean_consume_lag)
            << "shard " << s;
        EXPECT_EQ(got.transport_bytes, want.transport_bytes)
            << "shard " << s;
        EXPECT_EQ(got.transport_wait_cycles, want.transport_wait_cycles)
            << "shard " << s;
        EXPECT_EQ(got.buffer.pushes, want.buffer.pushes) << "shard " << s;
        EXPECT_EQ(got.buffer.pops, want.buffer.pops) << "shard " << s;
        EXPECT_EQ(got.buffer.max_occupancy, want.buffer.max_occupancy)
            << "shard " << s;
    }
    std::vector<lifeguard::Finding> findings =
        shards == 1 ? guards.front()->findings() : mergeShardFindings(guards);
    EXPECT_EQ(threaded.findings.size(), findings.size());
    for (std::size_t i = 0;
         i < std::min(threaded.findings.size(), findings.size()); ++i) {
        EXPECT_EQ(lifeguard::toString(threaded.findings[i]),
                  lifeguard::toString(findings[i]));
    }
    return threaded;
}

TEST(TwoThreadSchedule, MatchesInlineAtWindowBoundaries)
{
    // A syscall-free loop logs one record per retirement, and a run cut
    // by the instruction limit logs no exit annotation, so the limit
    // sets the record count: below one window, exactly two, and two
    // plus one.
    auto prog = program(R"(
        li r5, 0x100000
    loop:
        ld r2, 0(r5)
        sd r2, 8(r5)
        addi r5, r5, 8
        jmp loop
    )");
    for (std::uint64_t records :
         {kWindowRecords - 1, 2 * kWindowRecords, 2 * kWindowRecords + 1}) {
        ExperimentConfig config;
        config.process.max_instructions = records;
        PlatformResult run = expectMatchesInline(prog, config);
        EXPECT_EQ(run.lba.records_logged, records);
    }
}

TEST(TwoThreadSchedule, MatchesInlineWithBugsOnOneAndFourShards)
{
    // Many more windows than the ring holds, and findings to compare.
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    bugs.double_free = true;
    bugs.leak = true;
    auto generated =
        workload::generate(*workload::findProfile("tidy"), bugs, 60000);
    for (unsigned shards : {1u, 4u}) {
        PlatformResult run =
            expectMatchesInline(generated.program, {}, shards);
        EXPECT_GT(run.lba.records_logged, kWindows * kWindowRecords);
        EXPECT_FALSE(run.findings.empty());
    }
}

TEST(TwoThreadSchedule, MatchesInlineWithTheFilterOn)
{
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, 30000);
    ExperimentConfig config;
    config.lba.filter_enabled = true;
    config.lba.filter_base = 0x10000000; // heap only
    config.lba.filter_bytes = 64ull << 20;
    PlatformResult run = expectMatchesInline(generated.program, config);
    EXPECT_GT(run.lba.records_filtered, 0u);
}

TEST(TwoThreadSchedule, MatchesInlineWithFiniteBandwidth)
{
    auto generated =
        workload::generate(*workload::findProfile("mcf"), {}, 30000);
    ExperimentConfig config;
    config.lba.transport_bytes_per_cycle = 0.25;
    PlatformResult run = expectMatchesInline(generated.program, config);
    EXPECT_GT(run.lba.transport_wait_cycles, 0u);
}

TEST(TwoThreadSchedule, RethrowsAHandlerExceptionOnTheCaller)
{
    // The handler throws in the second window, and the program logs
    // four times what the ring holds: the driver must neither wait on
    // the failed worker nor lose its exception.
    auto prog = program(R"(
        li r5, 0x100000
    loop:
        ld r2, 0(r5)
        addi r5, r5, 8
        jmp loop
    )");
    ExperimentConfig config;
    config.process.max_instructions = 4 * kWindows * kWindowRecords;
    Experiment exp(prog, config);
    LifeguardFactory throwing = [] {
        return std::make_unique<testing::ThrowsOnNthRecord>(
            kWindowRecords + 5);
    };
    EXPECT_THROW(exp.runLba(throwing), std::runtime_error);
}

/** A ring entry: its commit index, and how often it was encoded. */
struct RingEntry
{
    std::uint64_t seq = 0;
    std::uint64_t encodes = 0;
};

/** What the worker saw of one entry. */
struct Consumed
{
    std::uint64_t seq;
    std::uint64_t encodes;
};

TEST(ThreeStageRun, EncodesEachEntryOnceBeforeConsumingItInOrder)
{
    // Empty, one entry, one short of a window, one window, and one
    // past a full ring (the driver reuses a window).
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          kWindowRecords - 1, kWindowRecords,
                          kWindows * kWindowRecords + 1}) {
        SCOPED_TRACE(n);
        std::vector<std::uint64_t> encoded; // encoder thread only
        std::vector<Consumed> consumed;     // worker only
        auto encode = [&encoded](RingEntry& entry) {
            ++entry.encodes;
            encoded.push_back(entry.seq);
        };
        auto consume = [&consumed](const RingEntry& entry) {
            consumed.push_back({entry.seq, entry.encodes});
        };
        ThreeStageRun<RingEntry, decltype(encode), decltype(consume)> ring(
            encode, consume);
        for (std::uint64_t i = 0; i < n; ++i) {
            ring.slot() = {i, 0};
            EXPECT_TRUE(ring.commit());
        }
        ring.finish();

        ASSERT_EQ(encoded.size(), n);
        ASSERT_EQ(consumed.size(), n);
        for (std::uint64_t i = 0; i < n; ++i) {
            EXPECT_EQ(encoded[i], i);
            EXPECT_EQ(consumed[i].seq, i);
            EXPECT_EQ(consumed[i].encodes, 1u) << "entry " << i;
        }
    }
}

TEST(ThreeStageRun, RethrowsAnEncoderExceptionWithoutHanging)
{
    // The encoder throws in the second window while the driver commits
    // four times what the ring holds, past the failure it is told of:
    // no stage may wait on another, and the worker consumes the first
    // window only.
    std::uint64_t seen = 0; // encoder thread only
    std::vector<std::uint64_t> consumed;
    auto encode = [&seen](RingEntry&) {
        if (++seen == kWindowRecords + 5) {
            throw std::runtime_error("encoder failed");
        }
    };
    auto consume = [&consumed](const RingEntry& entry) {
        consumed.push_back(entry.seq);
    };
    ThreeStageRun<RingEntry, decltype(encode), decltype(consume)> ring(
        encode, consume);
    bool told = false;
    for (std::uint64_t i = 0; i < 4 * kWindows * kWindowRecords; ++i) {
        ring.slot() = {i, 0};
        told |= !ring.commit();
    }
    EXPECT_TRUE(told);
    EXPECT_THROW(ring.finish(), std::runtime_error);
    ASSERT_EQ(consumed.size(), kWindowRecords);
    for (std::uint64_t i = 0; i < kWindowRecords; ++i) {
        EXPECT_EQ(consumed[i], i);
    }
}

TEST(ThreeStageRun, CommitReportsAWorkerFailureWithinTheRing)
{
    // The worker throws in the second window. The driver learns it at
    // a window handoff: at the latest when it needs the slot of the
    // window the worker never handed back.
    std::uint64_t seen = 0; // worker only
    auto encode = [](RingEntry&) {};
    auto consume = [&seen](const RingEntry&) {
        if (++seen == kWindowRecords + 5) {
            throw std::runtime_error("worker failed");
        }
    };
    ThreeStageRun<RingEntry, decltype(encode), decltype(consume)> ring(
        encode, consume);
    std::uint64_t failed_at = 0;
    bool told = false;
    for (std::uint64_t i = 0; i < 4 * kWindows * kWindowRecords && !told;
         ++i) {
        ring.slot() = {i, 0};
        told = !ring.commit();
        failed_at = i;
    }
    EXPECT_TRUE(told);
    EXPECT_LE(failed_at, (kWindows + 2) * kWindowRecords);
    // Entries after the report go nowhere.
    ring.slot() = {failed_at + 1, 0};
    ring.commit();
    EXPECT_THROW(ring.finish(), std::runtime_error);
}

TEST(Experiment, UnmonitoredIsCached)
{
    auto prog = program("li r1, 1\nhalt\n");
    Experiment exp(prog);
    const PlatformResult& a = exp.unmonitored();
    const PlatformResult& b = exp.unmonitored();
    EXPECT_EQ(&a, &b);
}

} // namespace
} // namespace lba::core
