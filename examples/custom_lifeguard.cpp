/**
 * @file
 * Writing a new lifeguard against the public API.
 *
 * LBA's pitch over special-purpose dual-core checkers [paper refs 7, 8]
 * is that it is a *general-purpose* monitoring substrate: a new checker
 * is just another event-handler collection. This example implements a
 * call/return-pairing checker (the class of integrity checks those
 * special-purpose proposals hard-wired) in ~60 lines: it maintains a
 * per-thread shadow stack of expected return addresses and reports when
 * a return goes somewhere else (stack smash, longjmp, ROP...).
 *
 * It uses the handler-table API (docs/LIFEGUARD_GUIDE.md): one handler
 * per event type, registered in the constructor, dispatched through
 * the same per-type table the paper's `nlba` instruction jumps
 * through. Every other event type costs dispatch cycles only.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "asm/assembler.h"
#include "core/runner.h"
#include "lifeguard/lifeguard.h"

namespace {

using namespace lba;

/** Shadow-stack call/return integrity lifeguard. */
class CallRetChecker : public lifeguard::Lifeguard
{
  public:
    CallRetChecker()
    {
        onEvent<&CallRetChecker::onCall>(log::EventType::kCall);
        onEvent<&CallRetChecker::onCall>(log::EventType::kIndirectCall);
        onEvent<&CallRetChecker::onReturn>(log::EventType::kReturn);
    }

    const char* name() const override { return "CallRetChecker"; }

  private:
    void
    onCall(const log::EventRecord& record, lifeguard::CostSink& cost)
    {
        // Push the architectural return address (pc + 8).
        cost.instrs(3);
        stacks_[record.tid].push_back(record.pc + 8);
    }

    void
    onReturn(const log::EventRecord& record, lifeguard::CostSink& cost)
    {
        cost.instrs(4);
        auto& stack = stacks_[record.tid];
        if (stack.empty()) {
            report({lifeguard::FindingKind::kCallRetMismatch, record.pc,
                    record.addr, record.tid,
                    "return without matching call"});
            return;
        }
        Addr expected = stack.back();
        stack.pop_back();
        if (record.addr != expected) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "return to 0x%llx, expected 0x%llx",
                          static_cast<unsigned long long>(record.addr),
                          static_cast<unsigned long long>(expected));
            report({lifeguard::FindingKind::kCallRetMismatch, record.pc,
                    record.addr, record.tid, msg});
        }
    }

    std::map<ThreadId, std::vector<Addr>> stacks_;
};

} // namespace

int
main()
{
    // A victim whose "callback" clobbers the link register before
    // returning — the return goes to the wrong place.
    const char* source = R"(
        li r9, 0
        call good           ; well-paired call
        call evil           ; returns to a hijacked address
        addi r9, r9, 100    ; skipped by the hijack
        halt
    good:
        addi r9, r9, 1
        ret
    evil:
        li lr, 0x10020      ; clobber the return address (stack smash):
        ret                 ; "returns" straight to halt at 0x10020
    )";
    auto assembled = assembler::assemble(source);
    if (!assembled.ok()) {
        std::fprintf(stderr, "assembly error (line %d): %s\n",
                     assembled.error_line, assembled.error.c_str());
        return 1;
    }

    core::Experiment experiment(assembled.program);
    auto factory = [] { return std::make_unique<CallRetChecker>(); };
    auto result = experiment.runLba(factory);

    std::printf("=== Custom lifeguard: call/return integrity ===\n");
    std::printf("slowdown: %.2fx (cheap handlers -> near-free "
                "monitoring)\n",
                result.slowdown);
    std::printf("findings (%zu):\n", result.findings.size());
    for (const auto& finding : result.findings) {
        std::printf("  %s\n", lifeguard::toString(finding).c_str());
    }
    if (result.findings.size() != 1 ||
        result.findings[0].kind !=
            lifeguard::FindingKind::kCallRetMismatch) {
        std::fprintf(stderr, "expected exactly one call/ret mismatch\n");
        return 1;
    }
    return 0;
}
