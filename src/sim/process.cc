/**
 * @file
 * Simulated process implementation: loader, scheduler, OS services.
 */

#include "sim/process.h"

#include "common/assert.h"
#include "isa/encoding.h"

namespace lba::sim {

using isa::Instruction;

const char*
osEventName(OsEventType type)
{
    switch (type) {
      case OsEventType::kAlloc: return "Alloc";
      case OsEventType::kFree: return "Free";
      case OsEventType::kInput: return "Input";
      case OsEventType::kOutput: return "Output";
      case OsEventType::kLock: return "Lock";
      case OsEventType::kUnlock: return "Unlock";
      case OsEventType::kThreadSpawn: return "ThreadSpawn";
      case OsEventType::kThreadExit: return "ThreadExit";
      default: return "?";
    }
}

Process::Process(const ProcessConfig& config)
    : config_(config),
      heap_(kHeapBase, config.heap_bytes),
      input_state_(config.input_seed ? config.input_seed : 1)
{
}

void
Process::load(const std::vector<Instruction>& program)
{
    LBA_ASSERT(threads_.empty(), "load() may only be called once");
    LBA_ASSERT(!program.empty(), "cannot load an empty program");
    program_ = program;
    code_end_ = kCodeBase + program_.size() * isa::kInstrBytes;

    // Materialize the encoded image in simulated memory so instruction
    // fetches touch real addresses (the I-cache model needs them).
    std::vector<std::uint8_t> image = isa::encodeProgram(program_);
    memory_.writeBytes(kCodeBase, image.data(), image.size());

    Thread main;
    main.tid = 0;
    main.pc = kCodeBase;
    main.setReg(isa::kRegSp, kStackTop);
    threads_.push_back(main);
}

bool
Process::fetch(Thread& t, Instruction* instr) const
{
    if (t.pc < kCodeBase || t.pc >= code_end_ ||
        (t.pc - kCodeBase) % isa::kInstrBytes != 0) {
        return false;
    }
    *instr = program_[(t.pc - kCodeBase) / isa::kInstrBytes];
    return true;
}

std::uint8_t
Process::nextInputByte()
{
    // xorshift64: deterministic pseudo-random "untrusted input" stream.
    input_state_ ^= input_state_ << 13;
    input_state_ ^= input_state_ >> 7;
    input_state_ ^= input_state_ << 17;
    return static_cast<std::uint8_t>(input_state_);
}

void
Process::emit(RetireObserver* observer, const OsEvent& event)
{
    if (observer) observer->onOsEvent(event);
}

void
Process::exitThread(Thread& t, RetireObserver* observer, ThreadState state)
{
    t.state = state;
    emit(observer, {OsEventType::kThreadExit, t.tid, 0, 0});
    auto it = join_waiters_.find(t.tid);
    if (it != join_waiters_.end()) {
        for (ThreadId waiter : it->second) {
            Thread& w = threads_[waiter];
            if (w.state == ThreadState::kBlockedJoin &&
                w.wait_target == t.tid) {
                w.state = ThreadState::kReady;
            }
        }
        join_waiters_.erase(it);
    }
}

void
Process::handleSyscall(Thread& t, RetireObserver* observer,
                       bool* end_quantum)
{
    // The syscall number travels in the instruction immediate; the decoded
    // instruction is at pc - 8 now (pc already advanced).
    Instruction instr;
    Thread probe = t;
    probe.pc = t.pc - isa::kInstrBytes;
    bool ok = fetch(probe, &instr);
    LBA_ASSERT(ok, "syscall retired from unfetchable pc");
    auto sys = static_cast<Sys>(static_cast<std::uint32_t>(instr.imm));

    switch (sys) {
      case Sys::kExit:
        exitThread(t, observer, ThreadState::kDone);
        *end_quantum = true;
        break;

      case Sys::kAlloc: {
        std::uint64_t size = t.reg(1);
        Addr ptr = heap_.alloc(size);
        t.setReg(1, ptr);
        emit(observer, {OsEventType::kAlloc, t.tid, ptr,
                        ptr ? heap_.blockSize(ptr) : 0});
        break;
      }

      case Sys::kFree: {
        Addr ptr = t.reg(1);
        bool freed = heap_.free(ptr);
        t.setReg(1, freed ? 1 : 0);
        emit(observer, {OsEventType::kFree, t.tid, ptr,
                        freed ? 1ull : 0ull});
        break;
      }

      case Sys::kRead: {
        Addr buf = t.reg(1);
        std::uint64_t len = t.reg(2);
        for (std::uint64_t i = 0; i < len; ++i) {
            memory_.write8(buf + i, nextInputByte());
        }
        t.setReg(1, len);
        emit(observer, {OsEventType::kInput, t.tid, buf, len});
        break;
      }

      case Sys::kWrite: {
        Addr buf = t.reg(1);
        std::uint64_t len = t.reg(2);
        t.setReg(1, len);
        emit(observer, {OsEventType::kOutput, t.tid, buf, len});
        break;
      }

      case Sys::kLock: {
        Addr addr = t.reg(1);
        LockState& lock = locks_[addr];
        if (!lock.held) {
            lock.held = true;
            lock.owner = t.tid;
            emit(observer, {OsEventType::kLock, t.tid, addr, 0});
        } else if (lock.owner == t.tid) {
            // Recursive acquire: treated as a no-op.
        } else {
            lock.waiters.push_back(t.tid);
            t.state = ThreadState::kBlockedLock;
            t.wait_target = addr;
            *end_quantum = true;
        }
        break;
      }

      case Sys::kUnlock: {
        Addr addr = t.reg(1);
        auto it = locks_.find(addr);
        if (it == locks_.end() || !it->second.held ||
            it->second.owner != t.tid) {
            t.setReg(1, 0);
            emit(observer, {OsEventType::kUnlock, t.tid, addr, 0});
            break;
        }
        LockState& lock = it->second;
        t.setReg(1, 1);
        emit(observer, {OsEventType::kUnlock, t.tid, addr, 1});
        if (lock.waiters.empty()) {
            lock.held = false;
        } else {
            // Transfer ownership to the first waiter and wake it.
            ThreadId next = lock.waiters.front();
            lock.waiters.pop_front();
            lock.owner = next;
            Thread& w = threads_[next];
            LBA_ASSERT(w.state == ThreadState::kBlockedLock &&
                           w.wait_target == addr,
                       "lock waiter in unexpected state");
            w.state = ThreadState::kReady;
            emit(observer, {OsEventType::kLock, next, addr, 0});
        }
        break;
      }

      case Sys::kSpawn: {
        Addr entry = t.reg(1);
        Word arg = t.reg(2);
        if (threads_.size() >= config_.max_threads) {
            t.setReg(1, ~0ull); // spawn failure
            break;
        }
        Thread child;
        child.tid = static_cast<ThreadId>(threads_.size());
        child.pc = entry;
        child.setReg(1, arg);
        child.setReg(isa::kRegSp, kStackTop - child.tid * kStackRegion);
        t.setReg(1, child.tid);
        emit(observer, {OsEventType::kThreadSpawn, t.tid, child.tid,
                        entry});
        threads_.push_back(child);
        break;
      }

      case Sys::kJoin: {
        auto target = static_cast<ThreadId>(t.reg(1));
        if (target >= threads_.size() || target == t.tid) {
            break; // join on nonsense: no-op
        }
        ThreadState st = threads_[target].state;
        if (st != ThreadState::kDone && st != ThreadState::kFaulted) {
            t.state = ThreadState::kBlockedJoin;
            t.wait_target = target;
            join_waiters_[target].push_back(t.tid);
            *end_quantum = true;
        }
        break;
      }

      case Sys::kYield:
        *end_quantum = true;
        break;

      default:
        // Unknown syscall: treated as a no-op (returns 0).
        t.setReg(1, 0);
        break;
    }
}

RunResult
Process::run(RetireObserver* observer)
{
    LBA_ASSERT(!threads_.empty(), "run() requires a loaded program");
    RunResult result;

    while (instructions_ < config_.max_instructions) {
        // Pick the next ready thread, round-robin from current_.
        Thread* t = nullptr;
        bool any_live = false;
        for (std::size_t i = 0; i < threads_.size(); ++i) {
            std::size_t idx = (current_ + i) % threads_.size();
            ThreadState st = threads_[idx].state;
            if (st == ThreadState::kBlockedLock ||
                st == ThreadState::kBlockedJoin) {
                any_live = true;
            } else if (st == ThreadState::kReady) {
                any_live = true;
                t = &threads_[idx];
                current_ = idx;
                break;
            }
        }
        if (!t) {
            result.deadlocked = any_live;
            break;
        }

        bool end_quantum = false;
        for (std::uint64_t q = 0;
             q < config_.quantum &&
             instructions_ < config_.max_instructions;
             ++q) {
            Instruction instr;
            if (!fetch(*t, &instr)) {
                exitThread(*t, observer, ThreadState::kFaulted);
                break;
            }
            if (store_interceptor_ && isa::isStore(instr.op)) {
                Addr ea = t->reg(instr.rs1) +
                          static_cast<Word>(
                              static_cast<std::int64_t>(instr.imm));
                unsigned bytes = isa::memAccessBytes(instr.op);
                store_interceptor_->onPreStore(
                    t->tid, ea, bytes, memory_.readValue(ea, bytes));
            }
            Retired retired = execute(*t, memory_, instr);
            ++instructions_;
            ++class_counts_[static_cast<std::size_t>(
                isa::classOf(instr.op))];
            if (observer) observer->onRetire(retired);

            if (retired.is_halt) {
                exitThread(*t, observer, ThreadState::kDone);
                break;
            }
            if (retired.is_syscall) {
                handleSyscall(*t, observer, &end_quantum);
                // kSpawn may grow threads_ and reallocate its storage;
                // re-resolve the running thread before touching it.
                t = &threads_[current_];
                if (observer) observer->onSyscallComplete(t->tid);
            }
            if (stop_requested_) break;
            if (end_quantum || t->state != ThreadState::kReady) break;
        }
        current_ = (current_ + 1) % threads_.size();
        if (stop_requested_) {
            stop_requested_ = false;
            result.stopped = true;
            break;
        }
    }

    result.instructions = instructions_;
    result.hit_instruction_limit =
        instructions_ >= config_.max_instructions;
    // From the thread states, like all_exited: a fault that a rewind
    // undid no longer counts, and one before a resume still does.
    result.all_exited = true;
    for (const Thread& t : threads_) {
        if (t.state == ThreadState::kFaulted) {
            ++result.faulted_threads;
        } else if (t.state != ThreadState::kDone) {
            result.all_exited = false;
        }
    }
    return result;
}

void
Process::restoreThread(ThreadId tid, const Thread& state)
{
    LBA_ASSERT(tid < threads_.size(), "restoreThread: unknown thread");
    LBA_ASSERT(state.tid == tid, "restoreThread: tid mismatch");
    threads_[tid] = state;
}

bool
Process::patchInstruction(Addr pc, const isa::Instruction& instr)
{
    if (pc < kCodeBase || pc >= code_end_ ||
        (pc - kCodeBase) % isa::kInstrBytes != 0) {
        return false;
    }
    program_[(pc - kCodeBase) / isa::kInstrBytes] = instr;
    memory_.write64(pc, isa::encode(instr));
    return true;
}

bool
Process::instructionAt(Addr pc, isa::Instruction* instr) const
{
    if (pc < kCodeBase || pc >= code_end_ ||
        (pc - kCodeBase) % isa::kInstrBytes != 0) {
        return false;
    }
    *instr = program_[(pc - kCodeBase) / isa::kInstrBytes];
    return true;
}

std::uint64_t
Process::memRefs() const
{
    return class_counts_[static_cast<std::size_t>(isa::InstrClass::kLoad)] +
           class_counts_[static_cast<std::size_t>(isa::InstrClass::kStore)];
}

} // namespace lba::sim
