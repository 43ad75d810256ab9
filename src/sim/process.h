#pragma once
/**
 * @file
 * The simulated process: program image, threads, scheduler, heap and OS
 * services. This is the substrate the monitored application runs on; both
 * monitoring platforms (LBA and the Valgrind-style DBI baseline) observe
 * its retirement stream through the RetireObserver interface.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/types.h"
#include "isa/isa.h"
#include "mem/memory.h"
#include "sim/cpu.h"
#include "sim/heap.h"
#include "sim/syscalls.h"

namespace lba::sim {

/** Standard address-space layout of a simulated process. */
inline constexpr Addr kCodeBase = 0x10000;
inline constexpr Addr kGlobalBase = 0x1000000;
inline constexpr Addr kHeapBase = 0x10000000;
inline constexpr Addr kStackTop = 0x7fff0000;
inline constexpr std::uint64_t kStackRegion = 1 << 20; // 1 MiB per thread

/** Tunables for a simulated process. */
struct ProcessConfig
{
    std::uint64_t heap_bytes = 64ull << 20;
    /** Instructions per scheduling quantum (round-robin). */
    std::uint64_t quantum = 100;
    /** Seed of the untrusted-input stream served by SYS_READ. */
    std::uint64_t input_seed = 0x1234abcd;
    /** Safety stop for runaway programs. */
    std::uint64_t max_instructions = 500ull << 20;
    /** Maximum number of threads (stacks are carved statically). */
    unsigned max_threads = 64;
};

/**
 * Observer of the retirement stream. The LBA capture hardware, the DBI
 * baseline, and plain timing models all implement this.
 */
class RetireObserver
{
  public:
    virtual ~RetireObserver() = default;

    /** Called after every retired instruction, in program (retire) order. */
    virtual void onRetire(const Retired& retired) = 0;

    /**
     * Called when a syscall completes an OS-level action, immediately
     * after the syscall instruction's onRetire().
     */
    virtual void onOsEvent(const OsEvent& event) = 0;

    /**
     * Called once all OS-side effects of a syscall have been applied
     * and before the next instruction executes — a consistent
     * checkpoint boundary (default: no-op).
     */
    virtual void onSyscallComplete(ThreadId tid) { (void)tid; }
};

/**
 * Pre-execution hook for stores: sees the value about to be overwritten.
 * This is the capture point for undo logging (the paper's footnote 1:
 * "additional fields would be needed to enable rewind" — the old value
 * is exactly that additional field).
 */
class StoreInterceptor
{
  public:
    virtual ~StoreInterceptor() = default;

    /** Called before a store clobbers [addr, addr+bytes). */
    virtual void onPreStore(ThreadId tid, Addr addr, unsigned bytes,
                            Word old_value) = 0;
};

/** Outcome of Process::run(). */
struct RunResult
{
    std::uint64_t instructions = 0;
    bool all_exited = false;
    bool deadlocked = false;
    bool hit_instruction_limit = false;
    /** True when an observer called requestStop(); run() may resume. */
    bool stopped = false;
    /** Threads in the faulted state at return: every fault of any
     *  run() call, less those a rewind undid. */
    unsigned faulted_threads = 0;
};

/**
 * A single simulated process with its own memory image, heap and threads.
 */
class Process
{
  public:
    explicit Process(const ProcessConfig& config = {});

    /**
     * Load @p program at kCodeBase and create the main thread (tid 0)
     * with pc at the first instruction and a full stack.
     */
    void load(const std::vector<isa::Instruction>& program);

    /**
     * Run until every thread exits, deadlock, the instruction limit, or
     * an observer calls requestStop(). Calling run() again resumes from
     * the stop point (scheduler and thread state persist).
     *
     * @param observer Retirement observer; may be nullptr.
     */
    RunResult run(RetireObserver* observer);

    /**
     * Ask the current run() to return after the current instruction.
     * Callable from observer callbacks (e.g. when a lifeguard finding
     * should trigger a rewind).
     */
    void requestStop() { stop_requested_ = true; }

    /** Install a pre-store hook (nullptr to remove). */
    void setStoreInterceptor(StoreInterceptor* interceptor)
    {
        store_interceptor_ = interceptor;
    }

    /**
     * Overwrite the architectural state of a thread (rewind support).
     * The thread must already exist.
     */
    void restoreThread(ThreadId tid, const Thread& state);

    /**
     * Replace the instruction at @p pc in both the decoded program and
     * the in-memory code image (on-the-fly bug repair).
     * @return False when @p pc is not a valid instruction address.
     */
    bool patchInstruction(Addr pc, const isa::Instruction& instr);

    /**
     * Read the (possibly patched) instruction at @p pc, so a repair
     * policy can craft a semantic replacement.
     * @return False when @p pc is not a valid instruction address.
     */
    bool instructionAt(Addr pc, isa::Instruction* instr) const;

    /** Scheduler rotation cursor (exposed for exact rewind). */
    std::size_t schedulerCursor() const { return current_; }
    void setSchedulerCursor(std::size_t cursor) { current_ = cursor; }

    mem::Memory& memory() { return memory_; }
    const mem::Memory& memory() const { return memory_; }
    Heap& heap() { return heap_; }
    const Heap& heap() const { return heap_; }

    /** Number of threads ever created. */
    std::size_t numThreads() const { return threads_.size(); }
    const Thread& thread(ThreadId tid) const { return threads_.at(tid); }

    /** Total instructions retired across all threads. */
    std::uint64_t instructionsRetired() const { return instructions_; }

    /** Retired-instruction count per instruction class. */
    const std::array<std::uint64_t, isa::kNumInstrClasses>&
    classCounts() const
    {
        return class_counts_;
    }

    /** Retired memory references (loads + stores). */
    std::uint64_t memRefs() const;

  private:
    struct LockState
    {
        bool held = false;
        ThreadId owner = 0;
        std::deque<ThreadId> waiters;
    };

    /** Fetch + decode the instruction at @p t's pc; false on fault. */
    bool fetch(Thread& t, isa::Instruction* instr) const;

    /** Run OS semantics for the syscall just retired by @p t. */
    void handleSyscall(Thread& t, RetireObserver* observer,
                       bool* end_quantum);

    /** Mark a thread exited and wake joiners. */
    void exitThread(Thread& t, RetireObserver* observer, ThreadState state);

    /** Next untrusted-input byte (xorshift64 stream). */
    std::uint8_t nextInputByte();

    /** Emit an OS event to the observer (if any). */
    void emit(RetireObserver* observer, const OsEvent& event);

    ProcessConfig config_;
    mem::Memory memory_;
    Heap heap_;
    std::vector<Thread> threads_;
    std::vector<isa::Instruction> program_;
    Addr code_end_ = kCodeBase;

    std::map<Addr, LockState> locks_;
    std::map<ThreadId, std::vector<ThreadId>> join_waiters_;

    std::uint64_t input_state_;
    std::uint64_t instructions_ = 0;
    std::array<std::uint64_t, isa::kNumInstrClasses> class_counts_{};
    std::size_t current_ = 0;
    bool stop_requested_ = false;
    StoreInterceptor* store_interceptor_ = nullptr;
};

} // namespace lba::sim
