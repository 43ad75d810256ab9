/**
 * @file
 * Tests for the checkpoint/rewind extension: exact state restoration,
 * syscall-boundary checkpoints, stop/resume, patching, and the full
 * detect-rewind-repair-resume loop.
 */

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "core/lba_system.h"
#include "isa/encoding.h"
#include "lifeguards/addrcheck.h"
#include "replay/checkpoint.h"
#include "sim/process.h"

namespace lba::replay {
namespace {

using assembler::assemble;

std::vector<isa::Instruction>
program(const std::string& source)
{
    auto r = assemble(source);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

TEST(Checkpointer, RewindRestoresMemoryAndRegisters)
{
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        li r1, 11
        sd r1, 0(r5)
        syscall 9           ; yield: checkpoint boundary after this
        li r1, 22           ; --- window to be rewound ---
        sd r1, 0(r5)
        sd r1, 8(r5)
        li r2, 99
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    sim::RunResult result = p.run(&cp);
    EXPECT_TRUE(result.all_exited);

    // State at the end of the run.
    EXPECT_EQ(p.memory().read64(0x100000), 22u);
    EXPECT_EQ(p.memory().read64(0x100008), 22u);
    EXPECT_EQ(p.thread(0).reg(2), 99u);

    cp.rewind();
    // Back to just after the yield: the window's stores are undone,
    // registers are back to the checkpoint values.
    EXPECT_EQ(p.memory().read64(0x100000), 11u);
    EXPECT_EQ(p.memory().read64(0x100008), 0u);
    EXPECT_EQ(p.thread(0).reg(1), 11u);
    EXPECT_EQ(p.thread(0).reg(2), 0u);
    EXPECT_EQ(cp.stats().rewinds, 1u);
}

TEST(Checkpointer, RerunAfterRewindIsDeterministic)
{
    const char* src = R"(
        li r5, 0x100000
        syscall 9
        li r1, 7
        muli r1, r1, 6
        sd r1, 0(r5)
        halt
    )";
    sim::Process p;
    p.load(program(src));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    Word final_r1 = p.thread(0).reg(1);
    EXPECT_EQ(p.memory().read64(0x100000), 42u);

    cp.rewind();
    // Resume from the checkpoint: the same instructions re-execute and
    // produce the same state (thread state Done again too).
    sim::RunResult again = p.run(&cp);
    EXPECT_TRUE(again.all_exited);
    EXPECT_EQ(p.thread(0).reg(1), final_r1);
    EXPECT_EQ(p.memory().read64(0x100000), 42u);
}

TEST(Checkpointer, CheckpointsFollowSyscalls)
{
    sim::Process p;
    p.load(program(R"(
        li r1, 64
        syscall 1
        li r2, 1
        li r1, 16
        syscall 1
        li r2, 2
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    // Initial + one after each syscall (taken at the next retirement).
    EXPECT_EQ(cp.stats().checkpoints, 3u);
}

TEST(Checkpointer, UndoLogCountsStores)
{
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        sd r5, 0(r5)
        sw r5, 8(r5)
        sb r5, 12(r5)
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    EXPECT_EQ(cp.stats().undo_entries, 3u);
}

TEST(Checkpointer, PartialWidthUndoIsExact)
{
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        li r1, -1
        sd r1, 0(r5)        ; memory = ff..ff
        syscall 9           ; checkpoint
        li r2, 0
        sb r2, 3(r5)        ; clobber one byte
        sw r2, 4(r5)        ; clobber four bytes
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    EXPECT_NE(p.memory().read64(0x100000), ~0ull);
    cp.rewind();
    EXPECT_EQ(p.memory().read64(0x100000), ~0ull);
}

TEST(Checkpointer, HighWaterAccountedByRewind)
{
    // The window that a rewind() ends — not a checkpoint — must still
    // contribute to max_window_entries (regression: it used to be
    // sampled only inside takeCheckpoint()).
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        syscall 9           ; checkpoint; window starts empty
        sd r5, 0(r5)
        sd r5, 8(r5)
        sd r5, 16(r5)
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    EXPECT_EQ(cp.stats().max_window_entries, 0u);
    cp.rewind();
    EXPECT_EQ(cp.stats().max_window_entries, 3u);
}

TEST(Checkpointer, HighWaterAccountedByFinalize)
{
    // Same scenario ended by end-of-run: finalize() (and the
    // destructor) must fold the last window in.
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        syscall 9
        sd r5, 0(r5)
        sd r5, 8(r5)
        sd r5, 16(r5)
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    EXPECT_EQ(cp.stats().max_window_entries, 0u);
    cp.finalize();
    EXPECT_EQ(cp.stats().max_window_entries, 3u);
    // Idempotent: a second finalize changes nothing.
    cp.finalize();
    EXPECT_EQ(cp.stats().max_window_entries, 3u);
}

TEST(Checkpointer, HighWaterKeepsLargestWindow)
{
    // Two stores before the syscall checkpoint, three after: the
    // checkpoint samples 2, finalize samples 3, max is 3.
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        sd r5, 0(r5)
        sd r5, 8(r5)
        syscall 9
        sd r5, 16(r5)
        sd r5, 24(r5)
        sd r5, 32(r5)
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    cp.finalize();
    EXPECT_EQ(cp.stats().max_window_entries, 3u);
    EXPECT_EQ(cp.stats().undo_entries, 5u);
}

TEST(Checkpointer, UndoLogIsExposedForCostModelling)
{
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        syscall 9
        sd r5, 0(r5)
        sw r5, 8(r5)
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    ASSERT_EQ(cp.undoLog().size(), 2u);
    EXPECT_EQ(cp.undoLog()[0].addr, 0x100000u);
    EXPECT_EQ(cp.undoLog()[0].bytes, 8u);
    EXPECT_EQ(cp.undoLog()[1].addr, 0x100008u);
    EXPECT_EQ(cp.undoLog()[1].bytes, 4u);
}

TEST(Checkpointer, ManualCheckpointNarrowsWindow)
{
    sim::Process p;
    p.load(program(R"(
        li r5, 0x100000
        li r1, 1
        sd r1, 0(r5)
        li r1, 2
        sd r1, 0(r5)
        halt
    )"));
    Checkpointer cp(p);
    p.setStoreInterceptor(&cp);
    p.run(&cp);
    cp.takeCheckpoint(); // end-of-run state becomes the baseline
    cp.rewind();
    EXPECT_EQ(p.memory().read64(0x100000), 2u); // nothing undone
}

TEST(Process, StopRequestSuspendsAndResumes)
{
    /** Observer that stops after the Nth retirement. */
    class Stopper : public sim::RetireObserver
    {
      public:
        Stopper(sim::Process& p, int stop_after)
            : process_(p), remaining_(stop_after)
        {
        }
        void
        onRetire(const sim::Retired&) override
        {
            if (--remaining_ == 0) process_.requestStop();
        }
        void onOsEvent(const sim::OsEvent&) override {}

      private:
        sim::Process& process_;
        int remaining_;
    };

    sim::Process p;
    p.load(program(R"(
        li r1, 100
    loop:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )"));
    Stopper stopper(p, 10);
    sim::RunResult first = p.run(&stopper);
    EXPECT_TRUE(first.stopped);
    EXPECT_FALSE(first.all_exited);
    EXPECT_EQ(first.instructions, 10u);

    sim::RunResult second = p.run(nullptr);
    EXPECT_FALSE(second.stopped);
    EXPECT_TRUE(second.all_exited);
}

TEST(Process, PatchInstructionRewritesCodeAndImage)
{
    sim::Process p;
    p.load(program("li r1, 1\nli r2, 2\nhalt\n"));
    // Patch the second li into li r2, 77.
    EXPECT_TRUE(p.patchInstruction(
        sim::kCodeBase + 8, {isa::Opcode::kLi, 2, 0, 0, 77}));
    // Outside the code region: rejected.
    EXPECT_FALSE(p.patchInstruction(0x500, {isa::Opcode::kNop, 0, 0, 0,
                                            0}));
    EXPECT_FALSE(p.patchInstruction(sim::kCodeBase + 4,
                                    {isa::Opcode::kNop, 0, 0, 0, 0}));
    p.run(nullptr);
    EXPECT_EQ(p.thread(0).reg(2), 77u);
    // The in-memory code image was updated too.
    auto decoded = isa::decode(p.memory().read64(sim::kCodeBase + 8));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->imm, 77);
}

TEST(Integration, DetectRewindRepairResume)
{
    // The rewind_repair example's scenario, asserted end to end.
    sim::Process p;
    p.load(program(R"(
        li r10, 3
    serve:
        li r1, 64
        syscall 1
        mov r9, r1
        sd r10, 0(r9)
        mov r1, r9
        syscall 2
        ld r2, 0(r9)        ; use after free
        addi r10, r10, -1
        bne r10, r0, serve
        halt
    )"));
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    lifeguards::AddrCheck guard;
    core::LbaSystem system(guard, hierarchy, {});

    class StopOnFinding : public sim::RetireObserver
    {
      public:
        StopOnFinding(sim::Process& p, core::LbaSystem& s,
                      lifeguard::Lifeguard& g)
            : process_(p), system_(s), guard_(g)
        {
        }
        void
        onRetire(const sim::Retired& r) override
        {
            system_.onRetire(r);
            if (guard_.findings().size() > seen_) {
                seen_ = guard_.findings().size();
                process_.requestStop();
            }
        }
        void onOsEvent(const sim::OsEvent& e) override
        {
            system_.onOsEvent(e);
        }

      private:
        sim::Process& process_;
        core::LbaSystem& system_;
        lifeguard::Lifeguard& guard_;
        std::size_t seen_ = 0;
    };
    StopOnFinding stopper(p, system, guard);
    Checkpointer cp(p, &stopper);
    p.setStoreInterceptor(&cp);

    sim::RunResult r1 = p.run(&cp);
    ASSERT_TRUE(r1.stopped);
    ASSERT_EQ(guard.findings().size(), 1u);
    Addr bug_pc = guard.findings()[0].pc;

    cp.rewind();
    ASSERT_TRUE(
        p.patchInstruction(bug_pc, {isa::Opcode::kNop, 0, 0, 0, 0}));

    sim::RunResult r2 = p.run(&cp);
    system.finish();
    EXPECT_TRUE(r2.all_exited);
    EXPECT_EQ(guard.findings().size(), 1u); // no recurrence
    EXPECT_EQ(cp.stats().rewinds, 1u);
}

} // namespace
} // namespace lba::replay
