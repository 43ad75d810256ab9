/**
 * @file
 * Direct tests of the shared timing engine (core::PipelineTimer): exact
 * transport-ceiling delivery, syscall-containment drain ordering,
 * per-lane finish cost, per-lane back-pressure and buffer statistics.
 *
 * These tests drive the engine with hand-built records and a
 * fixed-cost lifeguard so every cycle count is computable by hand; the
 * golden cycle corpus covers the same engine from the system level.
 */

#include <gtest/gtest.h>

#include "core/pipeline_timer.h"
#include "lifeguard/lifeguard.h"

namespace lba::core {
namespace {

/** Charges a fixed instruction count per record (and at finish). */
class FixedCostLifeguard : public lifeguard::Lifeguard
{
  public:
    explicit FixedCostLifeguard(std::uint32_t handler_instrs,
                                std::uint32_t finish_instrs = 0)
        : handler_instrs_(handler_instrs), finish_instrs_(finish_instrs)
    {
        for (unsigned t = 0; t < log::kNumEventTypes; ++t) {
            onEvent<&FixedCostLifeguard::onAny>(
                static_cast<log::EventType>(t));
        }
    }

    const char* name() const override { return "FixedCost"; }

    void
    onAny(const log::EventRecord&, lifeguard::CostSink& cost)
    {
        cost.instrs(handler_instrs_);
    }

    void
    finish(lifeguard::CostSink& cost) override
    {
        cost.instrs(finish_instrs_);
    }

  private:
    std::uint32_t handler_instrs_;
    std::uint32_t finish_instrs_;
};

mem::HierarchyConfig
cores(unsigned n)
{
    mem::HierarchyConfig hc;
    hc.num_cores = n;
    return hc;
}

log::EventRecord
aluRecord(Addr pc = 0x1000)
{
    log::EventRecord record;
    record.pc = pc;
    record.type = log::EventType::kIntAlu;
    return record;
}

/** The one-target list "lane @p lane, consumed by @p engine". */
std::vector<PipelineTimer::Target>
on(unsigned lane, lifeguard::DispatchEngine& engine)
{
    return {{lane, &engine}};
}

log::EventRecord
allocRecord(Addr base, std::uint64_t size)
{
    log::EventRecord record;
    record.type = log::EventType::kAlloc;
    record.addr = base;
    record.aux = size;
    return record;
}

TEST(PipelineTimer, FractionalTransportDeliversOnCeiling)
{
    // 3-byte raw records over a 2 B/cycle transport need 1.5 cycles
    // each. Record 1 completes at t=1.5 -> consumable at cycle 2 (not
    // at 1, as truncation allowed); record 2 completes at t=3.0 ->
    // consumable exactly at 3 (ceiling must not round exact integers up).
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.compress = false;
    config.raw_record_bytes = 3;
    config.transport_bytes_per_cycle = 2.0;
    FixedCostLifeguard guard(0);
    PipelineTimer timer(hierarchy, config, 1);
    auto engine = timer.makeEngine(guard, 0);

    timer.log(0, aluRecord(), on(0, *engine));
    timer.log(0, aluRecord(), on(0, *engine));

    // Waits: (2 - 0) + (3 - 0) = 5. Truncation would report 1 + 3 = 4.
    EXPECT_EQ(timer.stats().transport_wait_cycles, 5u);
    EXPECT_EQ(timer.stats().transport_bytes, 6.0);
    // start(1) = 2, start(2) = max(3, finish(1)=3) = 3.
    timer.finishShard(0, 0, *engine);
    timer.seal();
    EXPECT_EQ(timer.stats().total_cycles, 4u);
    EXPECT_DOUBLE_EQ(timer.stats().mean_consume_lag, 2.5);
}

TEST(PipelineTimer, ContainmentDrainCoversSyscallAnnotations)
{
    // The drain armed by a syscall must also wait for the annotation
    // records the syscall's own OS handlers emitted after it.
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.syscall_stall = true;
    FixedCostLifeguard guard(4); // consume cost = 1 dispatch + 4
    PipelineTimer timer(hierarchy, config, 1);
    auto engine = timer.makeEngine(guard, 0);

    sim::Retired retired;
    retired.pc = 0x1000;
    timer.retire(retired);
    Cycles app_before = timer.stats().app_cycles;

    // Syscall record, then its annotation, both produced at app_before.
    timer.log(0, aluRecord(), on(0, *engine));
    timer.noteSyscall();
    timer.log(0, allocRecord(0x10000000, 64), on(0, *engine));
    // finish(syscall) = app_before + 5; finish(alloc) = app_before + 10.

    retired.pc = 0x1008;
    timer.retire(retired);
    // The drain stalls the app from app_before to app_before + 10 —
    // covering the annotation, not just the syscall record.
    EXPECT_EQ(timer.stats().syscall_drains, 1u);
    EXPECT_EQ(timer.stats().syscall_stall_cycles, 10u);
    (void)app_before;
}

TEST(PipelineTimer, FinishCostLandsOnEachLane)
{
    // Lane 0: two records (last_finish = 2) and a cheap final pass (3).
    // Lane 1: idle but with an expensive final pass (10). Folding a
    // single max finish cost into the global clock would report
    // max(2,0) + 10 = 12; per-lane accounting gives
    // max(2+3, 0+10) = 10.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    FixedCostLifeguard cheap_finish(0, 3);
    FixedCostLifeguard dear_finish(0, 10);
    PipelineTimer timer(hierarchy, config, 2);
    auto cheap = timer.makeEngine(cheap_finish, 0);
    auto dear = timer.makeEngine(dear_finish, 1);

    timer.log(0, aluRecord(), on(0, *cheap));
    timer.log(0, aluRecord(), on(0, *cheap));
    timer.finishShard(0, 0, *cheap);
    timer.finishShard(0, 1, *dear);
    timer.seal();

    EXPECT_EQ(timer.stats().total_cycles, 10u);
    EXPECT_EQ(timer.laneStats(0).last_finish, 5u);
    EXPECT_EQ(timer.laneStats(1).last_finish, 10u);
    // Busy cycles include the lane's own finish pass.
    EXPECT_EQ(timer.laneStats(0).busy_cycles, 5u);
    EXPECT_EQ(timer.laneStats(1).busy_cycles, 10u);
    EXPECT_EQ(timer.stats().lifeguard_busy_cycles, 15u);
}

TEST(PipelineTimer, PerLaneBackpressureAndBufferStats)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.buffer_capacity = 2;
    FixedCostLifeguard guard(10); // consume cost = 11
    PipelineTimer timer(hierarchy, config, 1);
    auto engine = timer.makeEngine(guard, 0);

    timer.log(0, aluRecord(), on(0, *engine)); // finish = 11
    timer.log(0, aluRecord(), on(0, *engine)); // finish = 22
    // Third record: both slots taken; the app stalls until the first
    // record finishes at 11.
    timer.log(0, aluRecord(), on(0, *engine));
    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 11u);

    BufferStats bstats = timer.laneStats(0).buffer;
    EXPECT_EQ(bstats.pushes, 3u);
    EXPECT_EQ(bstats.pops, 1u);
    EXPECT_EQ(bstats.max_occupancy, 2u);
}

TEST(PipelineTimer, BroadcastReservesASlotInEveryLane)
{
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    FixedCostLifeguard a(2), b(7);
    PipelineTimer timer(hierarchy, config, 2);
    auto engine_a = timer.makeEngine(a, 0);
    auto engine_b = timer.makeEngine(b, 1);

    timer.log(0, allocRecord(0x10000000, 64),
              std::vector<PipelineTimer::Target>{{0, engine_a.get()},
                                                 {1, engine_b.get()}});
    // One logical record, one slot (and one consumption) per lane.
    EXPECT_EQ(timer.stats().records_logged, 1u);
    EXPECT_EQ(timer.laneStats(0).records, 1u);
    EXPECT_EQ(timer.laneStats(1).records, 1u);
    EXPECT_EQ(timer.laneStats(0).buffer.pushes, 1u);
    EXPECT_EQ(timer.laneStats(1).buffer.pushes, 1u);
    // Each lane's clock advances by its own consume cost.
    EXPECT_EQ(timer.laneStats(0).last_finish, 3u);
    EXPECT_EQ(timer.laneStats(1).last_finish, 8u);
}

TEST(PipelineTimer, TwoTargetsOnOneLaneReserveBothSlotsAtOnce)
{
    // Two shard contexts folded onto one lane of capacity 2: each
    // record takes both slots. The first record's consumptions finish
    // at 3 and 6; the second record must wait until both have freed,
    // not just one — 6 back-pressure cycles (reserving one slot per
    // target separately would stall only 3).
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.buffer_capacity = 2;
    FixedCostLifeguard a(2), b(2); // consume cost = 3
    PipelineTimer timer(hierarchy, config, 1);
    auto engine_a = timer.makeEngine(a, 0);
    auto engine_b = timer.makeEngine(b, 0);
    const std::vector<PipelineTimer::Target> folded = {
        {0, engine_a.get()}, {0, engine_b.get()}};

    timer.log(0, aluRecord(), folded);
    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 0u);
    EXPECT_EQ(timer.laneStats(0).last_finish, 6u);

    timer.log(0, aluRecord(), folded);
    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 6u);
    EXPECT_EQ(timer.producerTime(0), 6u);
    EXPECT_EQ(timer.laneStats(0).records, 4u);
    EXPECT_EQ(timer.laneStats(0).buffer.max_occupancy, 2u);
    EXPECT_EQ(timer.laneStats(0).last_finish, 12u);
}

TEST(PipelineTimer, FilterDropsBeforeAnyAccounting)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.filter_enabled = true;
    config.filter_base = 0x10000000;
    config.filter_bytes = 4096;
    config.compress = false;
    config.raw_record_bytes = 8;
    config.transport_bytes_per_cycle = 1.0;
    FixedCostLifeguard guard(0);
    PipelineTimer timer(hierarchy, config, 1);
    auto engine = timer.makeEngine(guard, 0);

    log::EventRecord out_of_range;
    out_of_range.type = log::EventType::kLoad;
    out_of_range.addr = 0x2000; // below the filter window
    EXPECT_FALSE(timer.log(0, out_of_range, on(0, *engine)));
    EXPECT_EQ(timer.stats().records_filtered, 1u);
    EXPECT_EQ(timer.stats().records_logged, 0u);
    EXPECT_EQ(timer.stats().transport_bytes, 0.0);
    EXPECT_EQ(timer.laneStats(0).buffer.pushes, 0u);

    log::EventRecord in_range;
    in_range.type = log::EventType::kLoad;
    in_range.addr = 0x10000010;
    EXPECT_TRUE(timer.log(0, in_range, on(0, *engine)));
    EXPECT_EQ(timer.stats().records_logged, 1u);
    EXPECT_EQ(timer.stats().transport_bytes, 8.0);
}

TEST(PipelineTimer, MixedLaneTransportBandwidths)
{
    // Heterogeneous pool: lane 0 drains 2 B/cycle, lane 1 only 1
    // B/cycle, in one timer. 4-byte raw records: lane 0 delivers at
    // t=2 (wait 2), lane 1 at t=4 (wait 4).
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    config.compress = false;
    config.raw_record_bytes = 4;
    config.transport_bytes_per_cycle = 9.0; // overridden per lane
    FixedCostLifeguard a(0), b(0);
    std::vector<LaneLimits> limits(2);
    limits[0].transport_bytes_per_cycle = 2.0;
    limits[1].transport_bytes_per_cycle = 1.0;
    PipelineTimer timer(hierarchy, config, 2, limits);
    auto engine_a = timer.makeEngine(a, 0);
    auto engine_b = timer.makeEngine(b, 1);

    timer.log(0, aluRecord(), on(0, *engine_a));
    timer.log(0, aluRecord(), on(1, *engine_b));

    EXPECT_EQ(timer.laneStats(0).transport_wait_cycles, 2u);
    EXPECT_EQ(timer.laneStats(1).transport_wait_cycles, 4u);
    EXPECT_EQ(timer.stats().transport_wait_cycles, 6u);
    // start = deliver, so per-lane lag equals the transport wait.
    EXPECT_DOUBLE_EQ(timer.laneStats(0).mean_consume_lag, 2.0);
    EXPECT_DOUBLE_EQ(timer.laneStats(1).mean_consume_lag, 4.0);
}

TEST(PipelineTimer, MixedLaneBufferCapacities)
{
    // Lane 0 holds a single record while lane 1 inherits the
    // config-wide capacity of 2: only the small lane back-pressures.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    config.buffer_capacity = 2;
    FixedCostLifeguard a(10), b(10); // consume cost = 11
    std::vector<LaneLimits> limits(2);
    limits[0].buffer_capacity = 1;
    PipelineTimer timer(hierarchy, config, 2, limits);
    auto engine_a = timer.makeEngine(a, 0);
    auto engine_b = timer.makeEngine(b, 1);

    // Lane 1 first: two records fit without stalling.
    timer.log(0, aluRecord(), on(1, *engine_b));
    timer.log(0, aluRecord(), on(1, *engine_b));
    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 0u);

    // Lane 0: the second record must wait for the first to finish at
    // cycle 11 before its slot frees.
    timer.log(0, aluRecord(), on(0, *engine_a));
    timer.log(0, aluRecord(), on(0, *engine_a));
    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 11u);
    EXPECT_EQ(timer.laneStats(0).buffer.max_occupancy, 1u);
    EXPECT_EQ(timer.laneStats(1).buffer.max_occupancy, 2u);
    // The stalled producer's clock moved to 11, so lane 0's second
    // record starts there and finishes at 22.
    EXPECT_EQ(timer.laneStats(0).last_finish, 22u);
}

TEST(PipelineTimer, MultiProducerSharedLaneSerializes)
{
    // Two producers (apps on cores 0 and 2) share one lane (core 1):
    // the lane serializes their records, each producer keeps its own
    // clock, lag and busy slice.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    config.compress = false;
    PipelineTimer timer(hierarchy, config, 1);
    unsigned p1 = timer.addProducer(2);
    EXPECT_EQ(p1, 1u);
    EXPECT_EQ(timer.producers(), 2u);

    // Consume costs 3 and 6; finish passes cost 1 and 2.
    FixedCostLifeguard cheap(2, 1), dear(5, 2);
    auto engine_a = timer.makeEngine(cheap, 0);
    auto engine_b = timer.makeEngine(dear, 0);

    // P0 consumes [0,3); P1's record, produced at 0, queues behind it:
    // start 3, finish 9.
    timer.log(0, aluRecord(), on(0, *engine_a));
    timer.log(1, aluRecord(), on(0, *engine_b));
    EXPECT_EQ(timer.laneStats(0).last_finish, 9u);
    EXPECT_EQ(timer.laneStats(0).records, 2u);

    // The final passes serialize on the shared lane too: P0's ends at
    // 9 + 1, P1's at 10 + 2.
    timer.finishShard(0, 0, *engine_a);
    timer.finishShard(1, 0, *engine_b);
    timer.seal();

    EXPECT_EQ(timer.producerStats(0).total_cycles, 10u);
    EXPECT_EQ(timer.producerStats(1).total_cycles, 12u);
    // P0's record never waited; P1's waited 3 cycles behind P0's.
    EXPECT_DOUBLE_EQ(timer.producerStats(0).mean_consume_lag, 0.0);
    EXPECT_DOUBLE_EQ(timer.producerStats(1).mean_consume_lag, 3.0);
    EXPECT_EQ(timer.producerStats(0).lifeguard_busy_cycles, 4u);
    EXPECT_EQ(timer.producerStats(1).lifeguard_busy_cycles, 8u);
    EXPECT_EQ(timer.producerStats(0).records_logged, 1u);
    EXPECT_EQ(timer.producerStats(1).records_logged, 1u);
    // Aggregates sum both producers; the lane's busy time is the sum
    // of both engines' work.
    EXPECT_EQ(timer.stats().records_logged, 2u);
    EXPECT_EQ(timer.stats().lifeguard_busy_cycles, 12u);
    EXPECT_EQ(timer.stats().total_cycles, 12u);
    EXPECT_DOUBLE_EQ(timer.stats().mean_consume_lag, 1.5);
}

TEST(PipelineTimer, MultiProducerIndependentDrains)
{
    // A containment drain stalls only the producer whose records are
    // outstanding: P0's syscall waits for P0's record, not P1's
    // backlog.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    PipelineTimer timer(hierarchy, config, 1);
    timer.addProducer(2);

    FixedCostLifeguard cheap(2), dear(40); // costs 3 and 41
    auto engine_a = timer.makeEngine(cheap, 0);
    auto engine_b = timer.makeEngine(dear, 0);

    // P0's record finishes at 3; P1's queues behind it until 44.
    timer.log(0, aluRecord(), on(0, *engine_a));
    timer.log(1, aluRecord(), on(0, *engine_b));

    timer.noteSyscall(0);
    sim::Retired retired;
    retired.pc = 0x1000;
    timer.retire(0, retired);
    // P0 drains to its own record's finish (3), not to P1's 44.
    EXPECT_EQ(timer.producerStats(0).syscall_stall_cycles, 3u);
    EXPECT_EQ(timer.producerStats(0).syscall_drains, 1u);
    EXPECT_EQ(timer.producerStats(1).syscall_drains, 0u);
}

} // namespace
} // namespace lba::core
