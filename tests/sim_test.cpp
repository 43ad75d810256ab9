/**
 * @file
 * Tests for the functional simulator: CPU semantics, heap allocator,
 * process/scheduler/syscall behaviour.
 */

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "sim/cpu.h"
#include "sim/heap.h"
#include "sim/process.h"

namespace lba::sim {
namespace {

using assembler::assemble;

/** Run source to completion and return the process for inspection. */
std::unique_ptr<Process>
runSource(const std::string& source, RunResult* out = nullptr,
          const ProcessConfig& config = {})
{
    auto r = assemble(source);
    EXPECT_TRUE(r.ok()) << r.error << " line " << r.error_line;
    auto process = std::make_unique<Process>(config);
    process->load(r.program);
    RunResult result = process->run(nullptr);
    if (out) *out = result;
    return process;
}

// ---------------------------------------------------------------- CPU --

TEST(Cpu, RegisterZeroIsHardwired)
{
    Thread t;
    t.setReg(0, 42);
    EXPECT_EQ(t.reg(0), 0u);
    t.setReg(1, 42);
    EXPECT_EQ(t.reg(1), 42u);
}

TEST(Cpu, AluSemantics)
{
    auto p = runSource(R"(
        li r1, 7
        li r2, 3
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        divu r6, r1, r2
        remu r7, r1, r2
        xor r8, r1, r2
        shl r9, r1, r2
        slt r11, r2, r1
        halt
    )");
    const Thread& t = p->thread(0);
    EXPECT_EQ(t.reg(3), 10u);
    EXPECT_EQ(t.reg(4), 4u);
    EXPECT_EQ(t.reg(5), 21u);
    EXPECT_EQ(t.reg(6), 2u);
    EXPECT_EQ(t.reg(7), 1u);
    EXPECT_EQ(t.reg(8), 4u);
    EXPECT_EQ(t.reg(9), 56u);
    EXPECT_EQ(t.reg(11), 1u);
}

TEST(Cpu, DivisionByZeroIsDefined)
{
    auto p = runSource(R"(
        li r1, 9
        li r2, 0
        divu r3, r1, r2
        remu r4, r1, r2
        halt
    )");
    EXPECT_EQ(p->thread(0).reg(3), ~0ull);
    EXPECT_EQ(p->thread(0).reg(4), 9u);
}

TEST(Cpu, SignedArithmeticAndBranches)
{
    auto p = runSource(R"(
        li r1, -5
        li r2, 3
        blt r1, r2, neg_ok
        li r10, 0
        halt
    neg_ok:
        li r10, 1
        sra r3, r1, r2
        halt
    )");
    EXPECT_EQ(p->thread(0).reg(10), 1u);
    EXPECT_EQ(static_cast<std::int64_t>(p->thread(0).reg(3)), -1);
}

TEST(Cpu, Li64ViaLih)
{
    auto p = runSource(R"(
        li r1, 0
        lih r1, 1
        halt
    )");
    EXPECT_EQ(p->thread(0).reg(1), 1ull << 32);
}

TEST(Cpu, LoadStoreWidths)
{
    auto p = runSource(R"(
        li r5, 0x100000
        li r1, -1
        sd r1, 0(r5)
        lb r2, 0(r5)
        lw r3, 0(r5)
        ld r4, 0(r5)
        halt
    )");
    EXPECT_EQ(p->thread(0).reg(2), 0xffull);        // zero-extended
    EXPECT_EQ(p->thread(0).reg(3), 0xffffffffull);
    EXPECT_EQ(p->thread(0).reg(4), ~0ull);
}

TEST(Cpu, CallAndReturn)
{
    auto p = runSource(R"(
        li r1, 0
        call fn
        addi r1, r1, 100
        halt
    fn:
        addi r1, r1, 1
        ret
    )");
    EXPECT_EQ(p->thread(0).reg(1), 101u);
}

TEST(Cpu, IndirectCallThroughRegister)
{
    auto p = runSource(R"(
        li r2, 0
        li r1, 0x10028
        callr r1
        halt
        nop
    target:
        li r2, 77
        ret
    )");
    // target is at instruction index 5 -> 0x10000 + 5*8 = 0x10028.
    EXPECT_EQ(p->thread(0).reg(2), 77u);
}

TEST(Cpu, RetiredObservationForMemoryOps)
{
    mem::Memory m;
    Thread t;
    t.setReg(2, 0x2000);
    t.setReg(3, 0xabcd);
    Retired r = execute(t, m, {isa::Opcode::kSd, 0, 2, 3, 8});
    EXPECT_EQ(r.mem_addr, 0x2008u);
    EXPECT_EQ(r.mem_bytes, 8u);
    EXPECT_TRUE(r.mem_is_write);
    EXPECT_EQ(m.read64(0x2008), 0xabcdu);

    Retired r2 = execute(t, m, {isa::Opcode::kLd, 4, 2, 0, 8});
    EXPECT_EQ(r2.mem_addr, 0x2008u);
    EXPECT_FALSE(r2.mem_is_write);
    EXPECT_EQ(t.reg(4), 0xabcdu);
}

TEST(Cpu, RetiredObservationForBranches)
{
    mem::Memory m;
    Thread t;
    t.pc = 0x100;
    Retired taken = execute(t, m, {isa::Opcode::kBeq, 0, 0, 0, 0x40});
    EXPECT_TRUE(taken.ctrl_taken);
    EXPECT_EQ(taken.ctrl_target, 0x140u);
    EXPECT_EQ(t.pc, 0x140u);

    t.setReg(1, 1);
    Retired nottaken =
        execute(t, m, {isa::Opcode::kBeq, 0, 1, 0, 0x40});
    EXPECT_FALSE(nottaken.ctrl_taken);
    EXPECT_EQ(t.pc, 0x148u);
}

// --------------------------------------------------------------- Heap --

TEST(Heap, AllocFreeRoundTrip)
{
    Heap h(0x1000, 0x10000);
    Addr a = h.alloc(100);
    ASSERT_NE(a, 0u);
    EXPECT_TRUE(h.isLiveBlock(a));
    EXPECT_EQ(h.blockSize(a), 112u); // rounded to 16
    EXPECT_TRUE(h.free(a));
    EXPECT_FALSE(h.isLiveBlock(a));
}

TEST(Heap, DoubleFreeRejected)
{
    Heap h(0x1000, 0x10000);
    Addr a = h.alloc(32);
    EXPECT_TRUE(h.free(a));
    EXPECT_FALSE(h.free(a));
    EXPECT_FALSE(h.free(0x1008)); // wild free
}

TEST(Heap, ExhaustionReturnsZero)
{
    Heap h(0x1000, 256);
    Addr a = h.alloc(128);
    Addr b = h.alloc(128);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_EQ(h.alloc(16), 0u);
    h.free(a);
    EXPECT_NE(h.alloc(64), 0u);
}

TEST(Heap, CoalescingAllowsBigRealloc)
{
    Heap h(0x1000, 1024);
    Addr a = h.alloc(256);
    Addr b = h.alloc(256);
    Addr c = h.alloc(256);
    ASSERT_NE(c, 0u);
    h.free(b);
    h.free(a); // coalesces with b's region
    Addr big = h.alloc(512);
    EXPECT_NE(big, 0u);
}

TEST(Heap, LiveBytesTracking)
{
    Heap h(0x1000, 4096);
    EXPECT_EQ(h.liveBytes(), 0u);
    Addr a = h.alloc(16);
    Addr b = h.alloc(16);
    EXPECT_EQ(h.liveBytes(), 32u);
    h.free(a);
    EXPECT_EQ(h.liveBytes(), 16u);
    h.free(b);
    EXPECT_EQ(h.liveBlocks(), 0u);
}

TEST(Heap, DistinctBlocksDoNotOverlap)
{
    Heap h(0x1000, 1 << 20);
    std::vector<Addr> blocks;
    for (int i = 0; i < 100; ++i) {
        Addr a = h.alloc(48);
        ASSERT_NE(a, 0u);
        for (Addr other : blocks) {
            EXPECT_TRUE(a + 48 <= other || other + 48 <= a);
        }
        blocks.push_back(a);
    }
}

// ------------------------------------------------------------ Process --

TEST(Process, RunsToCompletion)
{
    RunResult result;
    runSource("li r1, 1\nhalt\n", &result);
    EXPECT_TRUE(result.all_exited);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.instructions, 2u);
}

TEST(Process, CountsInstructionClasses)
{
    auto p = runSource(R"(
        li r5, 0x100000
        ld r1, 0(r5)
        sd r1, 8(r5)
        add r2, r1, r1
        halt
    )");
    const auto& counts = p->classCounts();
    EXPECT_EQ(counts[static_cast<int>(isa::InstrClass::kLoad)], 1u);
    EXPECT_EQ(counts[static_cast<int>(isa::InstrClass::kStore)], 1u);
    EXPECT_EQ(p->memRefs(), 2u);
}

TEST(Process, AllocSyscallReturnsHeapPointer)
{
    auto p = runSource(R"(
        li r1, 64
        syscall 1
        mov r20, r1
        halt
    )");
    Addr ptr = p->thread(0).reg(20);
    EXPECT_GE(ptr, kHeapBase);
    EXPECT_TRUE(p->heap().isLiveBlock(ptr));
}

TEST(Process, FreeSyscallReportsBadFree)
{
    auto p = runSource(R"(
        li r1, 64
        syscall 1
        mov r20, r1
        syscall 2       ; valid free (r1 still holds ptr? no: r1 = ptr)
        mov r21, r1     ; 1 = ok
        mov r1, r20
        syscall 2       ; double free
        mov r22, r1     ; 0 = bad
        halt
    )");
    EXPECT_EQ(p->thread(0).reg(21), 1u);
    EXPECT_EQ(p->thread(0).reg(22), 0u);
}

TEST(Process, ReadFillsDeterministicInput)
{
    ProcessConfig cfg;
    cfg.input_seed = 42;
    auto p1 = runSource(R"(
        li r1, 0x100000
        li r2, 16
        syscall 3
        li r5, 0x100000
        ld r20, 0(r5)
        halt
    )", nullptr, cfg);
    auto p2 = runSource(R"(
        li r1, 0x100000
        li r2, 16
        syscall 3
        li r5, 0x100000
        ld r20, 0(r5)
        halt
    )", nullptr, cfg);
    EXPECT_NE(p1->thread(0).reg(20), 0u);
    EXPECT_EQ(p1->thread(0).reg(20), p2->thread(0).reg(20));
}

TEST(Process, SpawnAndJoin)
{
    RunResult result;
    auto p = runSource(R"(
        li r1, 0x10040      ; worker entry (instr index 8)
        li r2, 123
        syscall 7           ; spawn
        mov r20, r1         ; child tid
        mov r1, r20
        syscall 8           ; join
        li r21, 1
        halt
    worker:
        li r5, 0x200000
        sd r1, 0(r5)        ; store arg
        syscall 0           ; exit
    )", &result);
    EXPECT_TRUE(result.all_exited);
    EXPECT_EQ(p->numThreads(), 2u);
    EXPECT_EQ(p->thread(0).reg(20), 1u); // child tid
    EXPECT_EQ(p->thread(0).reg(21), 1u); // reached after join
    EXPECT_EQ(p->memory().read64(0x200000), 123u);
}

TEST(Process, LockMutualExclusionAndHandoff)
{
    // Main holds the lock; worker blocks on it; main increments a
    // shared counter then unlocks; worker must observe the increment.
    RunResult result;
    auto p = runSource(R"(
        li r9, 0x300000     ; lock address
        mov r1, r9
        syscall 5           ; lock (main acquires)
        li r1, 0x10078      ; worker entry (instr index 15)
        li r2, 0
        syscall 7           ; spawn
        syscall 9           ; yield (let the worker block on the lock)
        li r5, 0x200000
        li r6, 7
        sd r6, 0(r5)        ; write shared value while holding the lock
        mov r1, r9
        syscall 6           ; unlock -> hands off to worker
        li r1, 1
        syscall 8           ; join worker
        halt
    worker:
        li r9, 0x300000
        mov r1, r9
        syscall 5           ; blocks until main unlocks
        li r5, 0x200000
        ld r20, 0(r5)
        mov r1, r9
        syscall 6
        syscall 0
    )", &result);
    EXPECT_TRUE(result.all_exited);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(p->thread(1).reg(20), 7u);
}

TEST(Process, DeadlockDetected)
{
    RunResult result;
    runSource(R"(
        li r1, 0x300000
        syscall 5           ; acquire
        li r1, 2            ; clobbered below
        li r1, 0x10040      ; worker entry (index 8)
        li r2, 0
        syscall 7
        syscall 8           ; join worker, but worker waits on our lock
        halt
    worker:
        li r1, 0x300000
        syscall 5           ; blocks forever (main never unlocks)
        syscall 0
    )", &result);
    // Main blocks joining (r1 = worker tid 1? r1 was clobbered...)
    // Regardless of join target, worker never acquires: deadlock or
    // instruction-limit; the run must not report clean exit.
    EXPECT_FALSE(result.all_exited);
}

TEST(Process, FaultOnWildJump)
{
    RunResult result;
    runSource(R"(
        li r1, 0x7f000000
        jr r1
        halt
    )", &result);
    EXPECT_EQ(result.faulted_threads, 1u);
    EXPECT_TRUE(result.all_exited); // faulted thread is accounted done
}

TEST(Process, InstructionLimitStopsRunaway)
{
    ProcessConfig cfg;
    cfg.max_instructions = 1000;
    RunResult result;
    runSource("loop: jmp loop\n", &result, cfg);
    EXPECT_TRUE(result.hit_instruction_limit);
    EXPECT_EQ(result.instructions, 1000u);
}

/** Records the thread of each retirement, and stops the run at the
 *  @p stop_at-th one (0 = never). */
class ThreadLog : public RetireObserver
{
  public:
    ThreadLog(Process& process, std::size_t stop_at)
        : process_(process), stop_at_(stop_at)
    {
    }

    void
    onRetire(const Retired& retired) override
    {
        tids.push_back(retired.tid);
        if (tids.size() == stop_at_) process_.requestStop();
    }

    void onOsEvent(const OsEvent&) override {}

    std::vector<ThreadId> tids;

  private:
    Process& process_;
    std::size_t stop_at_;
};

TEST(Process, StopEndsTheRunningThreadsQuantum)
{
    // Two threads that are always ready, a quantum of 10: run alone,
    // each retires 10 instructions a turn. A stop after 5 ends thread
    // 0's quantum there, and the next run() starts on thread 1. So a
    // run stopped and resumed, as the pool's slices are, retires
    // another interleaving than the run alone.
    auto r = assemble(R"(
        li r1, 0x10020      ; worker entry (instr index 4)
        li r2, 0
        syscall 7           ; spawn
    spin:
        jmp spin
    worker:
        jmp worker
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    ProcessConfig config;
    config.quantum = 10;
    config.max_instructions = 40;

    Process alone(config);
    alone.load(r.program);
    ThreadLog alone_log(alone, 0);
    alone.run(&alone_log);

    Process sliced(config);
    sliced.load(r.program);
    ThreadLog sliced_log(sliced, 5);
    EXPECT_TRUE(sliced.run(&sliced_log).stopped);
    EXPECT_FALSE(sliced.run(&sliced_log).stopped);

    // (thread, retirements) turns, flattened.
    auto turns = [](std::vector<std::pair<ThreadId, std::size_t>> list) {
        std::vector<ThreadId> tids;
        for (auto [tid, n] : list) tids.insert(tids.end(), n, tid);
        return tids;
    };
    EXPECT_EQ(alone_log.tids, turns({{0, 10}, {1, 10}, {0, 10}, {1, 10}}));
    EXPECT_EQ(sliced_log.tids,
              turns({{0, 5}, {1, 10}, {0, 10}, {1, 10}, {0, 5}}));
}

/** Observer order: OS events follow the syscall retirement. */
class OrderObserver : public RetireObserver
{
  public:
    void
    onRetire(const Retired& retired) override
    {
        if (retired.is_syscall) log.push_back('s');
        else log.push_back('i');
    }
    void onOsEvent(const OsEvent& event) override
    {
        log.push_back(event.type == OsEventType::kAlloc ? 'A' : 'o');
    }
    std::string log;
};

TEST(Process, ObserverSeesSyscallThenAnnotation)
{
    auto r = assemble("li r1, 64\nsyscall 1\nhalt\n");
    ASSERT_TRUE(r.ok());
    Process p;
    p.load(r.program);
    OrderObserver obs;
    p.run(&obs);
    EXPECT_EQ(obs.log, "isAio"); // li, syscall, Alloc, halt, ThreadExit
}

TEST(Process, DeterministicReplay)
{
    const char* src = R"(
        li r9, 0
        li r10, 50
    loop:
        li r1, 32
        syscall 1
        mov r2, r1
        sd r10, 0(r2)
        mov r1, r2
        syscall 2
        addi r10, r10, -1
        bne r10, r0, loop
        halt
    )";
    RunResult a, b;
    auto pa = runSource(src, &a);
    auto pb = runSource(src, &b);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(pa->memRefs(), pb->memRefs());
}

} // namespace
} // namespace lba::sim
