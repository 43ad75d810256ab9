/**
 * @file
 * Tests for the lifeguard framework: findings, shadow memory, the cost
 * sink's two forms, and the dispatch engine's cost accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dbi/dbi_system.h"
#include "lifeguard/dispatch.h"
#include "lifeguard/finding.h"
#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguard {
namespace {

TEST(Finding, NamesAndFormatting)
{
    Finding f{FindingKind::kDoubleFree, 0x1000, 0x2000, 1, "oops"};
    std::string s = toString(f);
    EXPECT_NE(s.find("DoubleFree"), std::string::npos);
    EXPECT_NE(s.find("oops"), std::string::npos);
    EXPECT_NE(s.find("0x1000"), std::string::npos);
}

TEST(ShadowMemory, EntriesStartZero)
{
    ShadowMemory<std::uint8_t, 8> shadow;
    EXPECT_EQ(shadow.find(0x1234), nullptr);
    EXPECT_EQ(shadow.entry(0x1234), 0u);
    EXPECT_NE(shadow.find(0x1234), nullptr);
}

TEST(ShadowMemory, GranuleSharing)
{
    ShadowMemory<std::uint8_t, 8> shadow;
    shadow.entry(0x1000) = 0xff;
    // Same 8-byte granule.
    EXPECT_EQ(shadow.entry(0x1007), 0xff);
    // Next granule is fresh.
    EXPECT_EQ(shadow.entry(0x1008), 0u);
}

TEST(ShadowMemory, ShadowAddressesAreDenseAndDisjoint)
{
    ShadowMemory<std::uint8_t, 8> a(kShadowBase);
    ShadowMemory<std::uint32_t, 8> b(kShadowBase + 0x100000000ull);
    EXPECT_EQ(a.shadowAddr(0x1008) - a.shadowAddr(0x1000), 1u);
    EXPECT_EQ(b.shadowAddr(0x1008) - b.shadowAddr(0x1000), 4u);
    EXPECT_NE(a.shadowAddr(0), b.shadowAddr(0));
}

TEST(ShadowMemory, LargeStructEntries)
{
    struct Granule
    {
        std::uint8_t state;
        std::uint16_t owner;
        std::uint32_t lockset;
    };
    ShadowMemory<Granule, 8> shadow;
    shadow.entry(0x2000).state = 3;
    shadow.entry(0x2000).lockset = 99;
    EXPECT_EQ(shadow.find(0x2004)->state, 3u);
    EXPECT_EQ(shadow.find(0x2004)->lockset, 99u);
}

TEST(CostSink, ChargingFormScalesInstructionsAndChargesItsOwnCore)
{
    // At factor 1 (the dispatch engine's) and at the DBI platform's
    // handler_instr_factor, on core 2 of three: instrs(n) costs n x the
    // factor, and each metadata access 1 + the core's dataAccess(), as
    // a twin hierarchy answers it. Only core 2's L1D sees the accesses.
    for (std::uint32_t factor : {1u, dbi::DbiConfig{}.handler_instr_factor}) {
        mem::HierarchyConfig hc;
        hc.num_cores = 3;
        mem::CacheHierarchy hierarchy(hc);
        mem::CacheHierarchy twin(hc);
        CostSink sink(hierarchy, 2, factor);

        sink.instrs(4);
        sink.instrs(0);
        EXPECT_EQ(sink.take(), 4u * factor) << "factor " << factor;
        EXPECT_EQ(sink.take(), 0u) << "factor " << factor;

        const CostSink::Access accesses[] = {
            {0x20000, false}, {0x20000, false}, {0x20008, true},
            {0x80000, true},  {0x20000, false},
        };
        for (const CostSink::Access& access : accesses) {
            sink.instrs(3);
            sink.memAccess(access.addr, access.is_write);
            EXPECT_EQ(sink.take(),
                      3u * factor + 1 +
                          twin.dataAccess(2, access.addr, access.is_write))
                << "factor " << factor << ", access at " << access.addr;
        }
        EXPECT_EQ(hierarchy.l1d(2).stats().accesses(), 5u);
        EXPECT_EQ(hierarchy.l1d(2).stats().misses,
                  twin.l1d(2).stats().misses);
        EXPECT_EQ(hierarchy.l1d(0).stats().accesses(), 0u);
        EXPECT_EQ(hierarchy.l1d(1).stats().accesses(), 0u);
        EXPECT_EQ(hierarchy.l2().stats().accesses(),
                  twin.l2().stats().accesses());
        EXPECT_TRUE(sink.accesses().empty());
    }
}

TEST(CostSink, CountingFormKeepsInstructionsAndAccessesInOrder)
{
    CostSink sink;
    EXPECT_EQ(sink.instructions(), 0u);
    EXPECT_TRUE(sink.accesses().empty());

    sink.instrs(3);
    sink.memAccess(0x4000000010, false);
    sink.instrs(4);
    sink.memAccess(0x4000000008, true);
    sink.memAccess(0x4000000010, false);
    EXPECT_EQ(sink.instructions(), 7u);
    EXPECT_EQ(sink.accesses(),
              (std::vector<CostSink::Access>{{0x4000000010, false},
                                             {0x4000000008, true},
                                             {0x4000000010, false}}));
}

/** A lifeguard with a deterministic per-event cost, for dispatch tests:
 *  one handler registered for every event type. */
class FixedCostLifeguard : public Lifeguard
{
  public:
    FixedCostLifeguard()
    {
        for (unsigned t = 0; t < log::kNumEventTypes; ++t) {
            onEvent<&FixedCostLifeguard::onAny>(
                static_cast<log::EventType>(t));
        }
    }

    const char* name() const override { return "FixedCost"; }

    void
    onAny(const log::EventRecord& record, CostSink& cost)
    {
        ++events;
        cost.instrs(5);
        if (record.type == log::EventType::kLoad) {
            cost.memAccess(0x4000000000ull + record.addr / 8, false);
        }
    }

    void finish(CostSink& cost) override { cost.instrs(100); }

    int events = 0;
};

/** Dispatch one record as a batch of one. */
Cycles
consumeOne(DispatchEngine& engine, const log::EventRecord& record)
{
    return engine.consumeBatch(&record, 1);
}

TEST(Dispatch, ChargesDispatchPlusHandler)
{
    FixedCostLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});

    log::EventRecord alu;
    alu.type = log::EventType::kIntAlu;
    // dispatch(1) + instrs(5) = 6.
    EXPECT_EQ(consumeOne(engine, alu), 6u);
    EXPECT_EQ(guard.events, 1);
}

TEST(Dispatch, MetadataAccessGoesThroughCaches)
{
    FixedCostLifeguard guard;
    mem::HierarchyConfig hc;
    mem::CacheHierarchy hierarchy(hc);
    DispatchEngine engine(guard, hierarchy, {1, 1});

    log::EventRecord load;
    load.type = log::EventType::kLoad;
    load.addr = 0x20000;
    // First touch: dispatch(1) + instrs(5) + mem(1 + L2miss 106) = 113.
    Cycles cold = consumeOne(engine, load);
    EXPECT_EQ(cold, 1 + 5 + 1 + hc.l2_hit_cycles + hc.mem_cycles);
    // Second touch: shadow line now in the lifeguard core's L1.
    Cycles warm = consumeOne(engine, load);
    EXPECT_EQ(warm, 1 + 5 + 1);
}

TEST(Dispatch, StatsBrokenDownByType)
{
    FixedCostLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});

    log::EventRecord alu;
    alu.type = log::EventType::kIntAlu;
    log::EventRecord store;
    store.type = log::EventType::kStore;
    consumeOne(engine, alu);
    consumeOne(engine, alu);
    consumeOne(engine, store);
    const DispatchStats& s = engine.stats();
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(
        s.records_by_type[static_cast<int>(log::EventType::kIntAlu)],
        2u);
    EXPECT_EQ(
        s.records_by_type[static_cast<int>(log::EventType::kStore)], 1u);
    EXPECT_GT(s.total_cycles, 0u);
    EXPECT_EQ(s.batches, 3u);
}

TEST(Dispatch, FinishRunsLifeguardHook)
{
    FixedCostLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});
    EXPECT_EQ(engine.finish(), 100u);
}

TEST(Dispatch, LifeguardCoreIsConfigurable)
{
    FixedCostLifeguard guard;
    mem::HierarchyConfig hc;
    hc.num_cores = 4;
    mem::CacheHierarchy hierarchy(hc);
    DispatchEngine engine(guard, hierarchy, {1, 3});

    log::EventRecord load;
    load.type = log::EventType::kLoad;
    load.addr = 0x20000;
    consumeOne(engine, load);
    // The metadata access must have hit core 3's L1D, not core 1's.
    EXPECT_EQ(hierarchy.l1d(3).stats().accesses(), 1u);
    EXPECT_EQ(hierarchy.l1d(1).stats().accesses(), 0u);
}

/** A lifeguard with handlers for two event types only. */
class TableLifeguard : public Lifeguard
{
  public:
    TableLifeguard()
    {
        onEvent<&TableLifeguard::onAlu>(log::EventType::kIntAlu);
        onEvent<&TableLifeguard::onLoad>(log::EventType::kLoad);
    }

    const char* name() const override { return "Table"; }

    void
    onAlu(const log::EventRecord&, CostSink& cost)
    {
        ++alu_events;
        cost.instrs(3);
    }

    void
    onLoad(const log::EventRecord& record, CostSink& cost)
    {
        ++load_events;
        cost.instrs(7);
        cost.memAccess(0x4000000000ull + record.addr / 8, false);
    }

    int alu_events = 0;
    int load_events = 0;
};

TEST(HandlerTable, RegistrationPopulatesTable)
{
    TableLifeguard guard;
    const auto& table = guard.handlers();
    EXPECT_NE(table[static_cast<std::size_t>(log::EventType::kIntAlu)],
              nullptr);
    EXPECT_NE(table[static_cast<std::size_t>(log::EventType::kLoad)],
              nullptr);
    EXPECT_EQ(table[static_cast<std::size_t>(log::EventType::kStore)],
              nullptr);
}

TEST(HandlerTable, HandleEventDispatchesThroughTable)
{
    // handleEvent() reaches the registered handler, so direct callers
    // (tests, the DBI platform) and the dispatch engine see the same
    // behaviour.
    TableLifeguard guard;
    CostSink sink;
    log::EventRecord alu;
    alu.type = log::EventType::kIntAlu;
    guard.handleEvent(alu, sink);
    EXPECT_EQ(guard.alu_events, 1);

    // Unregistered type: no-op, no crash.
    log::EventRecord store;
    store.type = log::EventType::kStore;
    guard.handleEvent(store, sink);
    EXPECT_EQ(guard.alu_events, 1);
    EXPECT_EQ(guard.load_events, 0);
}

TEST(HandlerTable, UnregisteredTypeCostsDispatchOnly)
{
    TableLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});
    log::EventRecord store;
    store.type = log::EventType::kStore;
    EXPECT_EQ(consumeOne(engine, store), 1u);
    EXPECT_EQ(engine.stats().records, 1u);
}

TEST(HandlerTable, ConsumeBatchIsSplitInvariant)
{
    // Callers cut batches differently (the timing engine passes one
    // record at a time); the cycles a record costs must not depend on
    // it. One batch of 64 charges exactly what 64 batches of one
    // charge, record by record.
    std::vector<log::EventRecord> records;
    for (int i = 0; i < 64; ++i) {
        log::EventRecord rec;
        rec.type = (i % 3 == 0) ? log::EventType::kLoad
                                : log::EventType::kIntAlu;
        rec.addr = 0x20000 + static_cast<Addr>(i) * 64;
        records.push_back(rec);
    }

    TableLifeguard whole_guard;
    mem::CacheHierarchy whole_hierarchy(mem::HierarchyConfig{});
    DispatchEngine whole(whole_guard, whole_hierarchy, {1, 1});
    std::vector<Cycles> costs(records.size());
    Cycles total = whole.consumeBatch(records.data(), records.size(),
                                      costs.data());

    TableLifeguard split_guard;
    mem::CacheHierarchy split_hierarchy(mem::HierarchyConfig{});
    DispatchEngine split(split_guard, split_hierarchy, {1, 1});
    Cycles expected = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        Cycles c = consumeOne(split, records[i]);
        EXPECT_EQ(costs[i], c) << i;
        expected += c;
    }
    EXPECT_EQ(total, expected);
    EXPECT_EQ(whole.stats().records, split.stats().records);
    EXPECT_EQ(whole.stats().total_cycles, split.stats().total_cycles);
    EXPECT_EQ(whole.stats().batches, 1u);
    EXPECT_EQ(split.stats().batches, records.size());
    EXPECT_EQ(whole_guard.load_events, split_guard.load_events);
    EXPECT_EQ(whole_guard.alu_events, split_guard.alu_events);
}

TEST(Lifeguard, FindingAccumulation)
{
    class Reporter : public Lifeguard
    {
      public:
        Reporter() { onEvent<&Reporter::onAlu>(log::EventType::kIntAlu); }
        const char* name() const override { return "R"; }
        void
        onAlu(const log::EventRecord&, CostSink&)
        {
            report({FindingKind::kOther, 0, 0, 0, "x"});
        }
    };
    Reporter r;
    CostSink sink;
    log::EventRecord rec;
    rec.type = log::EventType::kIntAlu;
    r.handleEvent(rec, sink);
    r.handleEvent(rec, sink);
    EXPECT_EQ(r.findings().size(), 2u);
    EXPECT_EQ(r.countFindings(FindingKind::kOther), 2u);
    EXPECT_EQ(r.countFindings(FindingKind::kDataRace), 0u);
}

} // namespace
} // namespace lba::lifeguard
