/**
 * @file
 * TaintCheck lifeguard tests: taint introduction, propagation through
 * registers and memory, clearing, and tainted-control detection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "lifeguards/taintcheck.h"

namespace lba::lifeguards {
namespace {

using lifeguard::FindingKind;
using lifeguard::NullCostSink;
using log::EventRecord;
using log::EventType;

EventRecord
inputEvent(Addr buf, std::uint64_t len)
{
    EventRecord r;
    r.type = EventType::kInput;
    r.addr = buf;
    r.aux = len;
    return r;
}

EventRecord
instr(isa::Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
      Addr addr = 0, std::uint64_t aux = 0)
{
    EventRecord r;
    r.type = log::eventTypeOf(isa::classOf(op));
    r.opcode = static_cast<std::uint8_t>(op);
    r.rd = rd;
    r.rs1 = rs1;
    r.rs2 = rs2;
    r.pc = 0x1000;
    r.addr = addr;
    r.aux = aux;
    return r;
}

class TaintCheckTest : public ::testing::Test
{
  protected:
    TaintCheck guard;
    NullCostSink sink;

    void feed(const EventRecord& r) { guard.handleEvent(r, sink); }
};

TEST_F(TaintCheckTest, InputTaintsMemory)
{
    feed(inputEvent(0x20000, 64));
    EXPECT_TRUE(guard.memTainted(0x20000, 1));
    EXPECT_TRUE(guard.memTainted(0x2003f, 1));
    EXPECT_FALSE(guard.memTainted(0x20040, 1));
}

TEST_F(TaintCheckTest, LoadTaintsRegister)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8));
    EXPECT_TRUE(guard.regTainted(0, 3));
    // Load from clean memory clears the register.
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x30000, 8));
    EXPECT_FALSE(guard.regTainted(0, 3));
}

TEST_F(TaintCheckTest, StorePropagatesRegisterToMemory)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8)); // r3 tainted
    feed(instr(isa::Opcode::kSd, 0, 6, 3, 0x30000, 8)); // store r3
    EXPECT_TRUE(guard.memTainted(0x30000, 8));
    // Storing a clean register overwrites the taint.
    feed(instr(isa::Opcode::kSd, 0, 6, 4, 0x30000, 8));
    EXPECT_FALSE(guard.memTainted(0x30000, 8));
}

TEST_F(TaintCheckTest, AluUnionsSourceTaint)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8)); // r3 tainted
    feed(instr(isa::Opcode::kAdd, 4, 3, 6));            // r4 = r3 + r6
    EXPECT_TRUE(guard.regTainted(0, 4));
    feed(instr(isa::Opcode::kAdd, 7, 6, 6)); // clean + clean
    EXPECT_FALSE(guard.regTainted(0, 7));
    // Immediate ALU does not read rs2's taint.
    feed(instr(isa::Opcode::kAddi, 8, 6, 3)); // rs2 field is noise
    EXPECT_FALSE(guard.regTainted(0, 8));
}

TEST_F(TaintCheckTest, MoveCopiesLiClears)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8));
    feed(instr(isa::Opcode::kMov, 4, 3, 0));
    EXPECT_TRUE(guard.regTainted(0, 4));
    feed(instr(isa::Opcode::kLi, 4, 0, 0));
    EXPECT_FALSE(guard.regTainted(0, 4));
    // lih preserves existing taint (it mixes into rd).
    feed(instr(isa::Opcode::kMov, 4, 3, 0));
    feed(instr(isa::Opcode::kLih, 4, 0, 0));
    EXPECT_TRUE(guard.regTainted(0, 4));
}

TEST_F(TaintCheckTest, DetectsTaintedIndirectJump)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8));
    feed(instr(isa::Opcode::kJr, 0, 3, 0, 0xdead, 1));
    ASSERT_EQ(guard.findings().size(), 1u);
    EXPECT_EQ(guard.findings()[0].kind, FindingKind::kTaintedJump);
}

TEST_F(TaintCheckTest, DetectsTaintedIndirectCallAndReturn)
{
    feed(inputEvent(0x20000, 16));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8));
    feed(instr(isa::Opcode::kCallr, 0, 3, 0, 0xbeef, 1));
    EXPECT_EQ(guard.countFindings(FindingKind::kTaintedJump), 1u);
    // Tainted LR then ret.
    feed(instr(isa::Opcode::kLd, isa::kRegLr, 5, 0, 0x20008, 8));
    EventRecord ret = instr(isa::Opcode::kRet, 0, 0, 0, 0xf00d, 1);
    ret.pc = 0x2000; // distinct pc (dedupe is per pc)
    feed(ret);
    EXPECT_EQ(guard.countFindings(FindingKind::kTaintedJump), 2u);
}

TEST_F(TaintCheckTest, CleanIndirectJumpIsFine)
{
    feed(instr(isa::Opcode::kJr, 0, 3, 0, 0x1000, 1));
    EXPECT_TRUE(guard.findings().empty());
}

TEST_F(TaintCheckTest, TaintFlowsThroughMemoryChain)
{
    // input -> r1 -> mem A -> r2 -> alu r3 -> mem B -> r4 -> jr
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 1, 9, 0, 0x20000, 8));
    feed(instr(isa::Opcode::kSd, 0, 9, 1, 0x30000, 8));
    feed(instr(isa::Opcode::kLd, 2, 9, 0, 0x30000, 8));
    feed(instr(isa::Opcode::kXor, 3, 2, 2));
    feed(instr(isa::Opcode::kSd, 0, 9, 3, 0x40000, 8));
    feed(instr(isa::Opcode::kLd, 4, 9, 0, 0x40000, 8));
    EXPECT_TRUE(guard.regTainted(0, 4));
    feed(instr(isa::Opcode::kJr, 0, 4, 0, 0x666, 1));
    EXPECT_EQ(guard.countFindings(FindingKind::kTaintedJump), 1u);
}

TEST_F(TaintCheckTest, AllocationClearsStaleTaint)
{
    feed(inputEvent(0x10000000, 32)); // taint a heap area
    EXPECT_TRUE(guard.memTainted(0x10000000, 1));
    EventRecord alloc;
    alloc.type = EventType::kAlloc;
    alloc.addr = 0x10000000;
    alloc.aux = 64;
    feed(alloc);
    EXPECT_FALSE(guard.memTainted(0x10000000, 32));
}

TEST_F(TaintCheckTest, PartialByteGranularity)
{
    feed(inputEvent(0x20003, 2)); // bytes 3 and 4 only
    EXPECT_FALSE(guard.memTainted(0x20000, 1));
    EXPECT_TRUE(guard.memTainted(0x20003, 1));
    EXPECT_TRUE(guard.memTainted(0x20004, 1));
    EXPECT_FALSE(guard.memTainted(0x20005, 1));
    // A byte load of the clean byte stays clean; of a dirty byte taints.
    feed(instr(isa::Opcode::kLb, 1, 9, 0, 0x20000, 1));
    EXPECT_FALSE(guard.regTainted(0, 1));
    feed(instr(isa::Opcode::kLb, 1, 9, 0, 0x20004, 1));
    EXPECT_TRUE(guard.regTainted(0, 1));
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

/** Shadow address of the taint byte covering @p addr. */
Addr
shadowOf(Addr addr)
{
    return TaintCheckConfig{}.shadow_base + addr / 8;
}

TEST(TaintCheckLoads, EveryLoadReadsExactlyItsBytesAtOneProbePerGranule)
{
    // One tainted byte at every position of three granules, against
    // loads of every size at every offset of two granules. A load is
    // tainted exactly when it covers the byte; among them are loads
    // that straddle a granule with the taint only in the far one. Each
    // is charged 6 instructions and a shadow read of its first
    // granule, plus 1 instruction and a read per further granule.
    constexpr Addr kBuf = 0x20000;
    NullCostSink sink;
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        for (Addr off = 0; off < 16; ++off) {
            for (Addr t = 0; t < 24; ++t) {
                TaintCheck guard;
                guard.handleEvent(inputEvent(kBuf + t, 1), sink);
                RecordingSink charged;
                guard.handleEvent(instr(isa::Opcode::kLd, 3, 5, 0,
                                        kBuf + off, size),
                                  charged);
                EXPECT_EQ(guard.regTainted(0, 3),
                          t >= off && t < off + size)
                    << size << "-byte load at +" << off << ", taint at +"
                    << t;
                std::vector<Addr> reads{shadowOf(kBuf + off)};
                for (Addr g = (kBuf + off + 8) & ~7ull;
                     g < kBuf + off + size; g += 8) {
                    reads.push_back(shadowOf(g));
                }
                EXPECT_EQ(charged.instr_total, 6 + reads.size() - 1);
                EXPECT_EQ(charged.shadow_reads, reads);
            }
        }
    }
}

TEST(TaintCheckRanges, EmptyInputChargesTheSameAtAnyAlignment)
{
    // A zero-byte input marks nothing, so wherever its buffer starts it
    // costs the handler's 6 instructions and no shadow access.
    for (Addr offset = 0; offset < 8; ++offset) {
        TaintCheck guard;
        RecordingSink charged;
        guard.handleEvent(inputEvent(0x10000000 + offset, 0), charged);
        EXPECT_EQ(charged.instr_total, 6u) << "buffer at +" << offset;
        EXPECT_TRUE(charged.shadow_reads.empty()) << "buffer at +" << offset;
        EXPECT_FALSE(guard.memTainted(0x10000000, 8));
    }
}

TEST(TaintCheckRanges, UnalignedInputsAndAllocationsMarkExactlyTheirBytes)
{
    // Blocks of 1 to 17 bytes at every unaligned offset: an input taints
    // exactly its bytes, and an allocation inside a tainted span clears
    // exactly its bytes. Each byte is checked through memTainted() and
    // through a 1-byte load.
    NullCostSink sink;
    for (std::uint64_t size = 1; size <= 17; ++size) {
        for (Addr offset = 1; offset < 8; ++offset) {
            Addr base = 0x10000100 + offset;
            auto expectTaint = [&](TaintCheck& guard, bool inside) {
                for (Addr a = base - 1; a <= base + size; ++a) {
                    bool expected = (a >= base && a < base + size) == inside;
                    EXPECT_EQ(guard.memTainted(a, 1), expected)
                        << size << " bytes at +" << offset << ", byte "
                        << a - base;
                    guard.handleEvent(
                        instr(isa::Opcode::kLb, 3, 5, 0, a, 1), sink);
                    EXPECT_EQ(guard.regTainted(0, 3), expected)
                        << size << " bytes at +" << offset << ", byte "
                        << a - base;
                }
            };

            TaintCheck input;
            input.handleEvent(inputEvent(base, size), sink);
            expectTaint(input, true);

            TaintCheck alloc;
            alloc.handleEvent(inputEvent(base - 9, size + 18), sink);
            EventRecord block;
            block.type = EventType::kAlloc;
            block.addr = base;
            block.aux = size;
            alloc.handleEvent(block, sink);
            expectTaint(alloc, false);
        }
    }
}

TEST_F(TaintCheckTest, PerThreadRegisterTaint)
{
    feed(inputEvent(0x20000, 8));
    // Thread 7 taints a register before threads 1-6 have run at all.
    EventRecord ld7 = instr(isa::Opcode::kLd, 4, 5, 0, 0x20000, 8);
    ld7.tid = 7;
    feed(ld7);
    EXPECT_TRUE(guard.regTainted(7, 4));
    for (ThreadId tid = 0; tid < 7; ++tid) {
        EXPECT_FALSE(guard.regTainted(tid, 4)) << "tid " << tid;
    }

    EventRecord ld = instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8);
    ld.tid = 1;
    feed(ld);
    EXPECT_TRUE(guard.regTainted(1, 3));
    EXPECT_FALSE(guard.regTainted(0, 3));
    EXPECT_FALSE(guard.regTainted(7, 3));
    EXPECT_TRUE(guard.regTainted(7, 4));

    // Taint moves within thread 7 only.
    EventRecord mov = instr(isa::Opcode::kMov, 6, 4, 0);
    mov.tid = 7;
    feed(mov);
    EXPECT_TRUE(guard.regTainted(7, 6));
    EXPECT_FALSE(guard.regTainted(1, 6));

    // A thread never seen reads clean in every register.
    for (ThreadId tid : {ThreadId{8}, ThreadId{0xffff}}) {
        for (RegIndex reg = 0; reg < isa::kNumRegs; ++reg) {
            EXPECT_FALSE(guard.regTainted(tid, reg))
                << "tid " << tid << " r" << unsigned{reg};
        }
    }
}

TEST_F(TaintCheckTest, RegisterZeroNeverTainted)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 0, 5, 0, 0x20000, 8)); // load to r0
    EXPECT_FALSE(guard.regTainted(0, 0));
}

TEST_F(TaintCheckTest, DedupePerPc)
{
    feed(inputEvent(0x20000, 8));
    feed(instr(isa::Opcode::kLd, 3, 5, 0, 0x20000, 8));
    feed(instr(isa::Opcode::kJr, 0, 3, 0, 0x1, 1));
    feed(instr(isa::Opcode::kJr, 0, 3, 0, 0x2, 1)); // same pc 0x1000
    EXPECT_EQ(guard.findings().size(), 1u);
}

} // namespace
} // namespace lba::lifeguards
