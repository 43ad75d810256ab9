/**
 * @file
 * Rewind and on-the-fly bug repair — the paper's Section 1 vision: "the
 * log ... provid[es] a means, when a problem is detected, to
 * (selectively) rewind the monitored program and possibly perform
 * on-the-fly bug repair".
 *
 * The scenario: a service loop occasionally executes a use-after-free
 * read. AddrCheck (on the LBA lifeguard core) detects it; because
 * syscall containment bounds the detection lag, the process can be
 * rewound to the last syscall boundary — before the bad access took
 * effect — the offending instruction is patched out, and execution
 * resumes to a clean finish. The run is wired manually (Process +
 * LbaSystem + Checkpointer) to show the lower-level public API.
 */

#include <cstdio>
#include <memory>

#include "asm/assembler.h"
#include "core/lba_system.h"
#include "lifeguards/addrcheck.h"
#include "replay/checkpoint.h"

namespace {

using namespace lba;

/** Forwards to the LBA platform and stops the process on a finding. */
class StopOnFinding : public sim::RetireObserver
{
  public:
    StopOnFinding(sim::Process& process, core::LbaSystem& system,
                  lifeguard::Lifeguard& guard)
        : process_(process), system_(system), guard_(guard)
    {
    }

    void
    onRetire(const sim::Retired& retired) override
    {
        system_.onRetire(retired);
        if (guard_.findings().size() > seen_) {
            seen_ = guard_.findings().size();
            process_.requestStop();
        }
    }

    void onOsEvent(const sim::OsEvent& event) override
    {
        system_.onOsEvent(event);
    }

  private:
    sim::Process& process_;
    core::LbaSystem& system_;
    lifeguard::Lifeguard& guard_;
    std::size_t seen_ = 0;
};

} // namespace

int
main()
{
    const char* source = R"(
        ; a "service" that processes requests in a loop; one path reads
        ; a stale pointer after the buffer was released
        li r10, 5           ; requests to serve
    serve:
        li r1, 64
        syscall 1           ; buf = alloc(64)
        mov r9, r1
        sd r10, 0(r9)       ; use the buffer
        mov r1, r9
        syscall 2           ; free(buf)
        ld r2, 0(r9)        ; BUG: stale read after free
        addi r10, r10, -1
        bne r10, r0, serve
        halt
    )";
    auto assembled = lba::assembler::assemble(source);
    if (!assembled.ok()) {
        std::fprintf(stderr, "assembly error: %s\n",
                     assembled.error.c_str());
        return 1;
    }

    lba::sim::Process process;
    process.load(assembled.program);
    lba::mem::CacheHierarchy hierarchy(lba::mem::HierarchyConfig{});
    lba::lifeguards::AddrCheck guard;
    lba::core::LbaSystem system(guard, hierarchy, {});
    StopOnFinding stopper(process, system, guard);
    lba::replay::Checkpointer checkpointer(process, &stopper);
    process.setStoreInterceptor(&checkpointer);

    std::printf("=== rewind + on-the-fly repair ===\n");
    auto result = process.run(&checkpointer);
    if (!result.stopped || guard.findings().empty()) {
        std::printf("expected a finding to stop the run\n");
        return 1;
    }
    const auto& finding = guard.findings().front();
    std::printf("detected : %s\n",
                lba::lifeguard::toString(finding).c_str());
    std::printf("lag      : %llu instructions since the last syscall "
                "checkpoint\n",
                static_cast<unsigned long long>(
                    checkpointer.instructionsSinceCheckpoint()));

    // Rewind to the pre-bug state and patch the stale read into a nop.
    checkpointer.rewind();
    bool patched = process.patchInstruction(
        finding.pc, {lba::isa::Opcode::kNop, 0, 0, 0, 0});
    std::printf("repair   : %s instruction at pc=0x%llx\n",
                patched ? "patched" : "FAILED to patch",
                static_cast<unsigned long long>(finding.pc));

    // Resume: the remaining requests are served without incident.
    result = process.run(&checkpointer);
    system.finish();
    std::printf("resumed  : all_exited=%d, total findings=%zu "
                "(the one detection)\n",
                result.all_exited, guard.findings().size());
    std::printf("rewinds  : %llu, undo entries logged: %llu\n",
                static_cast<unsigned long long>(
                    checkpointer.stats().rewinds),
                static_cast<unsigned long long>(
                    checkpointer.stats().undo_entries));

    bool ok = patched && result.all_exited &&
              guard.findings().size() == 1;
    std::printf("\n%s\n", ok ? "repair SUCCEEDED" : "repair FAILED");
    return ok ? 0 : 1;
}
