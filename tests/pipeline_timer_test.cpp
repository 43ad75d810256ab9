/**
 * @file
 * Direct tests of the shared timing engine (core::PipelineTimer): exact
 * transport-ceiling delivery, syscall-containment drain ordering,
 * per-lane finish cost, per-lane back-pressure and buffer statistics
 * (against a queue model of the slots over many wraps), and each
 * producer's lag histogram and the slice windows taken from it, exact
 * even when a starved transport puts every lag near 2^62.
 *
 * These tests drive the engine with hand-built records and a
 * fixed-cost lifeguard so every cycle count is computable by hand; the
 * golden cycle corpus covers the same engine from the system level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "core/pipeline_timer.h"
#include "fixed_cost_lifeguard.h"

namespace lba::core {
namespace {

using testing::FixedCostLifeguard;

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

/** Account one retirement of @p producer: its producer step's L1
 *  lookups (encode()), then retire(). */
void
retire(PipelineTimer& timer, unsigned producer,
       const log::EventRecord& record)
{
    timer.retire(producer, record,
                 timer.encode(producer, record).l1_misses);
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
    PipelineTimer timer(hierarchy, config, 1, 1);
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
    PipelineTimer timer(hierarchy, config, 1, 1);
    auto engine = timer.makeEngine(guard, 0);

    retire(timer, 0, aluRecord(0x1000));
    Cycles app_before = timer.stats().app_cycles;

    // Syscall record, then its annotation, both produced at app_before.
    timer.log(0, aluRecord(), on(0, *engine));
    timer.noteSyscall();
    timer.log(0, allocRecord(0x10000000, 64), on(0, *engine));
    // finish(syscall) = app_before + 5; finish(alloc) = app_before + 10.

    retire(timer, 0, aluRecord(0x1008));
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
    PipelineTimer timer(hierarchy, config, 2, 1);
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
    PipelineTimer timer(hierarchy, config, 1, 1);
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

/**
 * Log @p records records of seeded random shape on two lanes of
 * @p capacity slots and compare the timer, after every log(), with a
 * model that keeps each lane's slots as a std::deque of finish times.
 *
 * The model is the back-pressure rule as the file comment states it.
 * A record reserves its slots lane by lane, in the order its targets
 * first name each lane, and all of a lane's at once. While the slots
 * held plus the ones needed exceed the capacity, the lane reclaims its
 * oldest slot, and the application stalls to that slot's finish time
 * if it is behind it. Then each target's consumption starts at
 * max(produce time, lane clock), finishes its engine's cost later and
 * holds a slot. Each record names 1 to @p max_targets targets on random
 * lanes, so up to that many fold onto one lane. Each target's engine
 * costs 1 dispatch cycle plus 0, 2, 5 or 11 handler instructions, and
 * the application advances 0 to 15 cycles before each record, so some
 * records stall and some do not.
 */
void
expectSlotsMatchDequeModel(std::size_t capacity, unsigned max_targets,
                           unsigned records, unsigned seed)
{
    constexpr unsigned kLanes = 2;
    mem::CacheHierarchy hierarchy(cores(1 + kLanes));
    LbaConfig config;
    config.buffer_capacity = capacity;
    config.compress = false;
    PipelineTimer timer(hierarchy, config, kLanes, 1);

    std::vector<std::unique_ptr<FixedCostLifeguard>> guards;
    std::vector<std::unique_ptr<lifeguard::DispatchEngine>> engines;
    std::vector<Cycles> cost;
    for (std::uint32_t instrs : {0u, 2u, 5u, 11u}) {
        for (unsigned lane = 0; lane < kLanes; ++lane) {
            guards.push_back(std::make_unique<FixedCostLifeguard>(instrs));
            engines.push_back(timer.makeEngine(*guards.back(), lane));
            cost.push_back(1 + instrs);
        }
    }

    struct ModelLane
    {
        std::deque<Cycles> slots;
        Cycles clock = 0;
        BufferStats buffer;
    };
    std::vector<ModelLane> model(kLanes);
    Cycles app = 0;
    Cycles stalled = 0;

    std::mt19937 rng(seed);
    for (unsigned i = 0; i < records; ++i) {
        Cycles advance = rng() % 16;
        timer.chargeContainment(0, advance);
        app += advance;

        std::vector<PipelineTimer::Target> targets;
        std::vector<std::size_t> which;
        for (unsigned t = 1 + rng() % max_targets; t > 0; --t) {
            unsigned lane = rng() % kLanes;
            std::size_t engine = kLanes * (rng() % 4) + lane;
            targets.push_back({lane, engines[engine].get()});
            which.push_back(engine);
        }

        std::vector<std::size_t> demand(kLanes, 0);
        for (const PipelineTimer::Target& target : targets) {
            ++demand[target.lane];
        }
        for (const PipelineTimer::Target& target : targets) {
            ModelLane& lane = model[target.lane];
            while (lane.slots.size() + demand[target.lane] > capacity) {
                Cycles freed_at = lane.slots.front();
                lane.slots.pop_front();
                ++lane.buffer.pops;
                if (app < freed_at) {
                    stalled += freed_at - app;
                    app = freed_at;
                }
            }
            demand[target.lane] = 0;
        }
        Cycles produced_at = app;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            ModelLane& lane = model[targets[t].lane];
            lane.clock = std::max(produced_at, lane.clock) + cost[which[t]];
            lane.slots.push_back(lane.clock);
            ++lane.buffer.pushes;
            lane.buffer.max_occupancy =
                std::max<std::uint64_t>(lane.buffer.max_occupancy,
                                        lane.slots.size());
        }

        ASSERT_TRUE(timer.log(0, aluRecord(), targets));
        ASSERT_EQ(timer.producerStats(0).backpressure_stall_cycles, stalled)
            << "record " << i;
        ASSERT_EQ(timer.producerTime(0), app) << "record " << i;
        for (unsigned l = 0; l < kLanes; ++l) {
            LaneStats got = timer.laneStats(l);
            ASSERT_EQ(got.buffer.pushes, model[l].buffer.pushes)
                << "record " << i << ", lane " << l;
            ASSERT_EQ(got.buffer.pops, model[l].buffer.pops)
                << "record " << i << ", lane " << l;
            ASSERT_EQ(got.buffer.max_occupancy,
                      model[l].buffer.max_occupancy)
                << "record " << i << ", lane " << l;
            ASSERT_EQ(got.last_finish, model[l].clock)
                << "record " << i << ", lane " << l;
        }
    }
    // The slots wrapped many times, and the application stalled.
    EXPECT_GT(model[0].buffer.pops, 10 * capacity);
    EXPECT_GT(model[1].buffer.pops, 10 * capacity);
    EXPECT_GT(stalled, 0u);
}

TEST(PipelineTimer, SlotsMatchADequeModelOnFoldedLanes)
{
    expectSlotsMatchDequeModel(3, 3, 4000, 1);
}

TEST(PipelineTimer, SlotsMatchADequeModelWhenTheyGrowAfterAReclaim)
{
    // 65 slots start as an array of 64. A record needing more slots
    // than the last one left reclaims the oldest before that array is
    // full and then grows it, while its oldest entry is not at its
    // start.
    expectSlotsMatchDequeModel(65, 6, 4000, 2);
}

TEST(PipelineTimer, SlotsHeldDoNotScaleWithTheCapacity)
{
    // A buffer of 2^40 slots, whose finish times would take 8 TiB:
    // a few records hold a slot each and allocate no more than that.
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.buffer_capacity = std::size_t{1} << 40;
    FixedCostLifeguard guard(3);
    PipelineTimer timer(hierarchy, config, 1, 1);
    auto engine = timer.makeEngine(guard, 0);
    for (int i = 0; i < 5; ++i) timer.log(0, aluRecord(), on(0, *engine));

    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 0u);
    BufferStats bstats = timer.laneStats(0).buffer;
    EXPECT_EQ(bstats.pushes, 5u);
    EXPECT_EQ(bstats.pops, 0u);
    EXPECT_EQ(bstats.max_occupancy, 5u);
    EXPECT_EQ(timer.laneStats(0).last_finish, 20u);
}

TEST(PipelineTimer, BroadcastReservesASlotInEveryLane)
{
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    FixedCostLifeguard a(2), b(7);
    PipelineTimer timer(hierarchy, config, 2, 1);
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
    PipelineTimer timer(hierarchy, config, 1, 1);
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
    PipelineTimer timer(hierarchy, config, 1, 1);
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

TEST(PipelineTimer, MultiProducerSharedLaneSerializes)
{
    // Two producers (apps on cores 0 and 2) share one lane (core 1):
    // the lane serializes their records, each producer keeps its own
    // clock, lag and busy slice.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    config.compress = false;
    PipelineTimer timer(hierarchy, config, 1, 1);
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
    PipelineTimer timer(hierarchy, config, 1, 1);
    timer.addProducer(2);

    FixedCostLifeguard cheap(2), dear(40); // costs 3 and 41
    auto engine_a = timer.makeEngine(cheap, 0);
    auto engine_b = timer.makeEngine(dear, 0);

    // P0's record finishes at 3; P1's queues behind it until 44.
    timer.log(0, aluRecord(), on(0, *engine_a));
    timer.log(1, aluRecord(), on(0, *engine_b));

    timer.noteSyscall(0);
    retire(timer, 0, aluRecord(0x1000));
    // P0 drains to its own record's finish (3), not to P1's 44.
    EXPECT_EQ(timer.producerStats(0).syscall_stall_cycles, 3u);
    EXPECT_EQ(timer.producerStats(0).syscall_drains, 1u);
    EXPECT_EQ(timer.producerStats(1).syscall_drains, 0u);
}

TEST(PipelineTimer, LagWindowResetsAndHistogramsStayPerProducer)
{
    // Two producers on one lane, every record produced at cycle 0:
    // each record's lag is the lane's finish time of the one before.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    config.compress = false;
    PipelineTimer timer(hierarchy, config, 1, 1);
    timer.addProducer(2);
    FixedCostLifeguard cheap(2), dear(5); // costs 3 and 6
    auto engine_a = timer.makeEngine(cheap, 0);
    auto engine_b = timer.makeEngine(dear, 0);

    EXPECT_EQ(timer.takeLagWindow(0).count, 0u);
    EXPECT_EQ(timer.takeLagWindow(1).count, 0u);

    // First window: P0 lags 0 and 9, P1 lags 3.
    timer.log(0, aluRecord(), on(0, *engine_a)); // [0, 3)
    timer.log(1, aluRecord(), on(0, *engine_b)); // [3, 9)
    timer.log(0, aluRecord(), on(0, *engine_a)); // [9, 12)
    LagWindow first = timer.takeLagWindow(0);
    EXPECT_EQ(first.count, 2u);
    EXPECT_DOUBLE_EQ(first.mean(), 4.5);
    EXPECT_DOUBLE_EQ(timer.takeLagWindow(1).mean(), 3.0);
    // Taking a window starts the next one empty.
    EXPECT_EQ(timer.takeLagWindow(0).count, 0u);

    // Second window: P1 lags 12 and 18, P0 logs nothing.
    timer.log(1, aluRecord(), on(0, *engine_b)); // [12, 18)
    timer.log(1, aluRecord(), on(0, *engine_b)); // [18, 24)
    LagWindow second = timer.takeLagWindow(1);
    EXPECT_EQ(second.count, 2u);
    EXPECT_DOUBLE_EQ(second.mean(), 15.0);
    EXPECT_EQ(timer.takeLagWindow(0).count, 0u);

    // The histograms and the run's means keep every sample, each
    // producer its own.
    EXPECT_EQ(timer.lagHistogram(0).count(), 2u);
    EXPECT_DOUBLE_EQ(timer.lagHistogram(0).mean(), 4.5);
    EXPECT_EQ(timer.lagHistogram(1).count(), 3u);
    EXPECT_DOUBLE_EQ(timer.lagHistogram(1).mean(), 11.0);
    timer.finishShard(0, 0, *engine_a);
    timer.finishShard(1, 0, *engine_b);
    timer.seal();
    EXPECT_DOUBLE_EQ(timer.producerStats(0).mean_consume_lag, 4.5);
    EXPECT_DOUBLE_EQ(timer.producerStats(1).mean_consume_lag, 11.0);
    EXPECT_DOUBLE_EQ(timer.stats().mean_consume_lag, 42.0 / 5.0);
}

/**
 * Log 20 records of producer 0, each produced at cycle 0, on one lane
 * whose lifeguard takes 3 cycles a record, so record i's lag is
 * @p first_lag + 3i, and take a lag window at several points between
 * them. Each window must hold exactly the lags logged since the take
 * before it, the windows must add up to the histogram's count and
 * total, and the run's means must be the histogram's.
 */
void
expectWindowsPartitionTheLags(const LbaConfig& config, Cycles first_lag)
{
    mem::CacheHierarchy hierarchy(cores(2));
    PipelineTimer timer(hierarchy, config, 1, 1);
    FixedCostLifeguard guard(2);
    auto engine = timer.makeEngine(guard, 0);

    std::uint64_t logged = 0;
    LagWindow sum;
    for (std::uint64_t take : {0u, 1u, 4u, 5u, 12u, 12u, 20u}) {
        std::uint64_t first = logged;
        unsigned __int128 want = 0;
        for (; logged < take; ++logged) {
            timer.log(0, aluRecord(), on(0, *engine));
            want += first_lag + 3 * logged;
        }
        LagWindow window = timer.takeLagWindow(0);
        EXPECT_EQ(window.count, take - first) << "window ending at " << take;
        EXPECT_TRUE(window.total == want) << "window ending at " << take;
        EXPECT_EQ(window.mean(),
                  window.count ? static_cast<double>(want) /
                                     static_cast<double>(window.count)
                               : 0.0)
            << "window ending at " << take;
        sum.count += window.count;
        sum.total += window.total;
    }
    const stats::Histogram& lags = timer.lagHistogram(0);
    EXPECT_EQ(lags.count(), sum.count);
    EXPECT_TRUE(lags.total() == sum.total);

    timer.finishShard(0, 0, *engine);
    timer.seal();
    EXPECT_EQ(timer.producerStats(0).mean_consume_lag, sum.mean());
    EXPECT_EQ(timer.stats().mean_consume_lag, sum.mean());
}

TEST(PipelineTimer, LagWindowsAddUpToTheHistogram)
{
    LbaConfig config;
    config.compress = false;
    expectWindowsPartitionTheLags(config, 0);
}

TEST(PipelineTimer, LagWindowsAreExactOnAStarvedTransport)
{
    // Every record is delivered at kDeliveryCeiling, so the lags start
    // at 2^62 and four of them already pass 2^64.
    LbaConfig config;
    config.compress = false;
    config.transport_bytes_per_cycle = 1e-300;
    expectWindowsPartitionTheLags(config, kDeliveryCeiling);
}

} // namespace
} // namespace lba::core
