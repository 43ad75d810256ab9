/**
 * @file
 * Tests for event records and the capture unit.
 */

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "log/capture.h"
#include "log/event.h"
#include "sim/process.h"

namespace lba::log {
namespace {

TEST(EventType, InstrClassMappingIsValuePreserving)
{
    EXPECT_EQ(eventTypeOf(isa::InstrClass::kLoad), EventType::kLoad);
    EXPECT_EQ(eventTypeOf(isa::InstrClass::kSyscall),
              EventType::kSyscall);
    EXPECT_EQ(eventTypeOf(sim::OsEventType::kAlloc), EventType::kAlloc);
    EXPECT_EQ(eventTypeOf(sim::OsEventType::kThreadExit),
              EventType::kThreadExit);
}

TEST(EventType, AnnotationPredicate)
{
    EXPECT_FALSE(isAnnotation(EventType::kLoad));
    EXPECT_FALSE(isAnnotation(EventType::kSyscall));
    EXPECT_TRUE(isAnnotation(EventType::kAlloc));
    EXPECT_TRUE(isAnnotation(EventType::kThreadExit));
}

TEST(EventType, NamesExist)
{
    for (unsigned i = 0; i < kNumEventTypes; ++i) {
        EXPECT_NE(eventTypeName(static_cast<EventType>(i)), nullptr);
    }
}

TEST(Capture, RecordFromMemoryRetirement)
{
    sim::Retired r;
    r.tid = 2;
    r.pc = 0x1000;
    r.instr = {isa::Opcode::kLd, 4, 5, 0, 8};
    r.mem_addr = 0x2008;
    r.mem_bytes = 8;
    EventRecord rec = CaptureUnit::makeRecord(r);
    EXPECT_EQ(rec.type, EventType::kLoad);
    EXPECT_EQ(rec.pc, 0x1000u);
    EXPECT_EQ(rec.tid, 2u);
    EXPECT_EQ(rec.rd, 4u);
    EXPECT_EQ(rec.rs1, 5u);
    EXPECT_EQ(rec.addr, 0x2008u);
    EXPECT_EQ(rec.aux, 8u);
}

TEST(Capture, RecordFromTakenBranch)
{
    sim::Retired r;
    r.pc = 0x1000;
    r.instr = {isa::Opcode::kBne, 0, 1, 2, 0x40};
    r.ctrl_taken = true;
    r.ctrl_target = 0x1040;
    EventRecord rec = CaptureUnit::makeRecord(r);
    EXPECT_EQ(rec.type, EventType::kBranch);
    EXPECT_EQ(rec.addr, 0x1040u);
    EXPECT_EQ(rec.aux, 1u);
}

TEST(Capture, RecordFromNotTakenBranch)
{
    sim::Retired r;
    r.pc = 0x1000;
    r.instr = {isa::Opcode::kBne, 0, 1, 2, 0x40};
    EventRecord rec = CaptureUnit::makeRecord(r);
    EXPECT_EQ(rec.addr, 0u);
    EXPECT_EQ(rec.aux, 0u);
}

TEST(Capture, RecordFromOsEvent)
{
    sim::OsEvent e{sim::OsEventType::kAlloc, 1, 0x10000000, 64};
    EventRecord rec = CaptureUnit::makeRecord(e);
    EXPECT_EQ(rec.type, EventType::kAlloc);
    EXPECT_EQ(rec.tid, 1u);
    EXPECT_EQ(rec.addr, 0x10000000u);
    EXPECT_EQ(rec.aux, 64u);
}

TEST(Capture, StreamsWholeProgramInOrder)
{
    auto r = assembler::assemble(R"(
        li r5, 0x100000
        ld r1, 0(r5)
        li r1, 16
        syscall 1
        halt
    )");
    ASSERT_TRUE(r.ok());
    std::vector<EventRecord> records;
    CaptureUnit capture(
        [&](const EventRecord& rec) { records.push_back(rec); });
    sim::Process p;
    p.load(r.program);
    p.run(&capture);

    // 5 instruction events + Alloc + ThreadExit annotations.
    ASSERT_EQ(records.size(), 7u);
    EXPECT_EQ(records[0].type, EventType::kLoadImm);
    EXPECT_EQ(records[1].type, EventType::kLoad);
    EXPECT_EQ(records[3].type, EventType::kSyscall);
    EXPECT_EQ(records[4].type, EventType::kAlloc);
    EXPECT_EQ(records[5].type, EventType::kHalt);
    EXPECT_EQ(records[6].type, EventType::kThreadExit);
    // PCs advance by 8.
    EXPECT_EQ(records[1].pc, records[0].pc + 8);
}

TEST(EventRecord, ToStringMentionsTypeAndPc)
{
    EventRecord rec;
    rec.type = EventType::kStore;
    rec.pc = 0xabc;
    std::string s = toString(rec);
    EXPECT_NE(s.find("Store"), std::string::npos);
    EXPECT_NE(s.find("abc"), std::string::npos);
}

} // namespace
} // namespace lba::log
