/**
 * @file
 * AddrCheck lifeguard tests: detection of unallocated accesses, double
 * frees and leaks; absence of false positives on clean event streams.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lifeguards/addrcheck.h"

namespace lba::lifeguards {
namespace {

using lifeguard::FindingKind;
using lifeguard::NullCostSink;
using log::EventRecord;
using log::EventType;

constexpr Addr kHeap = 0x10000000;

EventRecord
allocEvent(Addr base, std::uint64_t size)
{
    EventRecord r;
    r.type = EventType::kAlloc;
    r.addr = base;
    r.aux = size;
    return r;
}

EventRecord
freeEvent(Addr base)
{
    EventRecord r;
    r.type = EventType::kFree;
    r.addr = base;
    r.aux = 1;
    return r;
}

EventRecord
access(Addr addr, bool write, unsigned bytes = 8, Addr pc = 0x1000)
{
    EventRecord r;
    r.type = write ? EventType::kStore : EventType::kLoad;
    r.opcode = static_cast<std::uint8_t>(write ? isa::Opcode::kSd
                                               : isa::Opcode::kLd);
    r.pc = pc;
    r.addr = addr;
    r.aux = bytes;
    return r;
}

class AddrCheckTest : public ::testing::Test
{
  protected:
    AddrCheck guard;
    NullCostSink sink;

    void feed(const EventRecord& r) { guard.handleEvent(r, sink); }
};

TEST_F(AddrCheckTest, CleanAllocAccessFreeHasNoFindings)
{
    feed(allocEvent(kHeap, 64));
    feed(access(kHeap, false));
    feed(access(kHeap + 56, true));
    feed(freeEvent(kHeap));
    guard.finish(sink);
    EXPECT_TRUE(guard.findings().empty());
}

TEST_F(AddrCheckTest, DetectsAccessToNeverAllocatedHeap)
{
    feed(access(kHeap + 0x100, false, 8, 0x1040));
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kUnallocatedAccess);
    EXPECT_EQ(guard.findings()[0].pc, 0x1040u);
    EXPECT_EQ(guard.findings()[0].addr, kHeap + 0x100);
}

TEST_F(AddrCheckTest, DetectsUseAfterFree)
{
    feed(allocEvent(kHeap, 64));
    feed(access(kHeap + 8, false));
    feed(freeEvent(kHeap));
    EXPECT_TRUE(guard.findings().empty());
    feed(access(kHeap + 8, false));
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kUnallocatedAccess);
}

TEST_F(AddrCheckTest, IgnoresNonHeapAccesses)
{
    feed(access(0x1000, false));     // code
    feed(access(0x7ffe0000, true));  // stack
    feed(access(0x1000000, false));  // globals
    guard.finish(sink);
    EXPECT_TRUE(guard.findings().empty());
}

TEST_F(AddrCheckTest, DetectsDoubleFree)
{
    feed(allocEvent(kHeap, 64));
    feed(freeEvent(kHeap));
    feed(freeEvent(kHeap));
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kDoubleFree);
}

TEST_F(AddrCheckTest, DetectsWildFree)
{
    feed(freeEvent(kHeap + 0x500));
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kDoubleFree);
}

TEST_F(AddrCheckTest, DetectsLeakAtFinish)
{
    feed(allocEvent(kHeap, 64));
    feed(allocEvent(kHeap + 0x100, 32));
    feed(freeEvent(kHeap));
    guard.finish(sink);
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kMemoryLeak);
    EXPECT_EQ(guard.findings()[0].addr, kHeap + 0x100);
}

TEST_F(AddrCheckTest, ReallocatedMemoryIsValidAgain)
{
    feed(allocEvent(kHeap, 64));
    feed(freeEvent(kHeap));
    feed(allocEvent(kHeap, 64)); // allocator reuses the address
    feed(access(kHeap + 16, true));
    EXPECT_TRUE(guard.findings().empty());
}

TEST_F(AddrCheckTest, PartialBlockBoundaryIsExact)
{
    feed(allocEvent(kHeap, 16));
    feed(access(kHeap + 8, false, 8)); // last valid granule
    EXPECT_TRUE(guard.findings().empty());
    feed(access(kHeap + 16, false, 8)); // one past the end
    EXPECT_EQ(guard.findings().size(), 1u);
}

TEST_F(AddrCheckTest, StraddlingAccessChecksBothGranules)
{
    feed(allocEvent(kHeap, 8));
    // 4-byte access starting at offset 6 spills into the next granule.
    feed(access(kHeap + 6, false, 4));
    EXPECT_EQ(guard.findings().size(), 1u);
}

/** Sink that records every charge, in order. */
class RecordingSink : public lifeguard::CostSink
{
  public:
    void instrs(std::uint32_t n) override { instr_total += n; }
    void
    memAccess(Addr addr, bool is_write) override
    {
        EXPECT_FALSE(is_write);
        shadow_reads.push_back(addr);
    }

    std::uint64_t instr_total = 0;
    std::vector<Addr> shadow_reads;
};

/** Shadow address of the validity byte covering @p addr. */
Addr
shadowOf(Addr addr)
{
    return lifeguard::kShadowBase + addr / 8;
}

TEST_F(AddrCheckTest, PartiallyAllocatedGranuleChecksEveryByte)
{
    // 12 bytes: granule 0 fully valid, granule 1 valid in bytes 8..11.
    feed(allocEvent(kHeap, 12));

    RecordingSink inside;
    guard.handleEvent(access(kHeap + 8, false, 4), inside);
    EXPECT_TRUE(guard.findings().empty());
    EXPECT_EQ(inside.instr_total, 8u);
    EXPECT_EQ(inside.shadow_reads, std::vector<Addr>{shadowOf(kHeap + 8)});

    // Bytes 4..11 span both granules, all allocated: a second probe,
    // no finding.
    RecordingSink spanning;
    guard.handleEvent(access(kHeap + 4, false, 8), spanning);
    EXPECT_TRUE(guard.findings().empty());
    EXPECT_EQ(spanning.instr_total, 10u);
    EXPECT_EQ(spanning.shadow_reads,
              (std::vector<Addr>{shadowOf(kHeap), shadowOf(kHeap + 8)}));

    // Bytes 10..13: the last two are past the allocation.
    RecordingSink partial;
    guard.handleEvent(access(kHeap + 10, false, 4, 0x1080), partial);
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kUnallocatedAccess);
    EXPECT_EQ(guard.findings()[0].addr, kHeap + 10);
    EXPECT_EQ(guard.findings()[0].pc, 0x1080u);
    EXPECT_EQ(partial.instr_total, 8u);
    EXPECT_EQ(partial.shadow_reads,
              std::vector<Addr>{shadowOf(kHeap + 8)});
}

TEST_F(AddrCheckTest, LoadAcrossBlockEndIsReportedAndChargedTwoProbes)
{
    // A 16-byte block at +0x100; an 8-byte load at +0x10c reads four
    // bytes of it and four past its end, in the next granule.
    feed(allocEvent(kHeap + 0x100, 16));
    RecordingSink sink_across;
    guard.handleEvent(access(kHeap + 0x10c, false, 8, 0x10c0), sink_across);
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kUnallocatedAccess);
    EXPECT_EQ(guard.findings()[0].addr, kHeap + 0x10c);
    EXPECT_EQ(guard.findings()[0].pc, 0x10c0u);
    EXPECT_EQ(sink_across.instr_total, 10u);
    EXPECT_EQ(sink_across.shadow_reads,
              (std::vector<Addr>{shadowOf(kHeap + 0x108),
                                 shadowOf(kHeap + 0x110)}));

    // The block's last 8 bytes: one probe, no finding.
    RecordingSink sink_last;
    guard.handleEvent(access(kHeap + 0x108, false, 8), sink_last);
    EXPECT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(sink_last.instr_total, 8u);
    EXPECT_EQ(sink_last.shadow_reads,
              std::vector<Addr>{shadowOf(kHeap + 0x108)});
}

TEST(AddrCheckRanges, UnalignedBlocksMarkExactlyTheirBytes)
{
    // Blocks of 1 to 17 bytes at every unaligned offset. Every byte of
    // the block is addressable, and a 1-byte access one byte before or
    // one byte after it is flagged. With neighbours on both sides,
    // freeing the block clears exactly its own bytes.
    AddrCheckConfig cfg;
    cfg.dedupe_reports = false;
    NullCostSink sink;
    for (std::uint64_t size = 1; size <= 17; ++size) {
        for (Addr offset = 1; offset < 8; ++offset) {
            Addr base = kHeap + 0x100 + offset;
            std::string label = std::to_string(size) + " bytes at +" +
                                std::to_string(offset);

            AddrCheck alone(cfg);
            alone.handleEvent(allocEvent(base, size), sink);
            for (Addr a = base; a < base + size; ++a) {
                alone.handleEvent(access(a, a % 2 == 0, 1), sink);
            }
            EXPECT_TRUE(alone.findings().empty()) << label;
            alone.handleEvent(access(base - 1, false, 1), sink);
            alone.handleEvent(access(base + size, true, 1), sink);
            ASSERT_EQ(alone.findings().size(), 2u) << label;
            EXPECT_EQ(alone.findings()[0].addr, base - 1) << label;
            EXPECT_EQ(alone.findings()[1].addr, base + size) << label;

            AddrCheck packed(cfg);
            packed.handleEvent(allocEvent(base - 5, 5), sink);
            packed.handleEvent(allocEvent(base, size), sink);
            packed.handleEvent(allocEvent(base + size, 5), sink);
            packed.handleEvent(freeEvent(base), sink);
            packed.handleEvent(access(base - 1, false, 1), sink);
            packed.handleEvent(access(base + size, false, 1), sink);
            EXPECT_TRUE(packed.findings().empty()) << label;
            packed.handleEvent(access(base, false, 1), sink);
            packed.handleEvent(access(base + size - 1, false, 1), sink);
            EXPECT_EQ(packed.findings().size(), 2u) << label;
        }
    }
}

TEST_F(AddrCheckTest, DedupeSuppressesRepeats)
{
    feed(access(kHeap + 0x40, false));
    feed(access(kHeap + 0x40, false));
    feed(access(kHeap + 0x44, true));
    EXPECT_EQ(guard.findings().size(), 1u);
}

TEST_F(AddrCheckTest, DedupeDisabledReportsEach)
{
    AddrCheckConfig cfg;
    cfg.dedupe_reports = false;
    AddrCheck loud(cfg);
    loud.handleEvent(access(kHeap + 0x40, false), sink);
    loud.handleEvent(access(kHeap + 0x40, false), sink);
    EXPECT_EQ(loud.findings().size(), 2u);
}

TEST_F(AddrCheckTest, FailedAllocationIsIgnored)
{
    feed(allocEvent(0, 0)); // SYS_ALLOC returned null
    guard.finish(sink);
    EXPECT_TRUE(guard.findings().empty());
    EXPECT_EQ(guard.liveBytes(), 0u);
}

TEST_F(AddrCheckTest, LiveBytesTracksAllocations)
{
    feed(allocEvent(kHeap, 64));
    feed(allocEvent(kHeap + 0x100, 32));
    EXPECT_EQ(guard.liveBytes(), 96u);
    feed(freeEvent(kHeap));
    EXPECT_EQ(guard.liveBytes(), 32u);
}

TEST_F(AddrCheckTest, CostModelChargesMoreForHeapAccesses)
{
    /** Sink that counts charged instructions and accesses. */
    class CountingSink : public lifeguard::CostSink
    {
      public:
        void instrs(std::uint32_t n) override { total += n; }
        void memAccess(Addr, bool) override { ++accesses; }
        std::uint64_t total = 0;
        std::uint64_t accesses = 0;
    };
    CountingSink counting;
    guard.handleEvent(allocEvent(kHeap, 512), counting);
    std::uint64_t alloc_cost = counting.total;
    EXPECT_GT(alloc_cost, 0u);
    EXPECT_EQ(counting.accesses, 8u); // 512 B = 8 shadow-word stores

    counting.total = 0;
    counting.accesses = 0;
    guard.handleEvent(access(kHeap, false), counting);
    std::uint64_t heap_access_cost = counting.total;
    EXPECT_EQ(counting.accesses, 1u);

    counting.total = 0;
    counting.accesses = 0;
    guard.handleEvent(access(0x5000, false), counting);
    EXPECT_LT(counting.total, heap_access_cost);
    EXPECT_EQ(counting.accesses, 0u);
}

} // namespace
} // namespace lba::lifeguards
