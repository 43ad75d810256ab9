/**
 * @file
 * Containment manager implementation.
 */

#include "replay/containment.h"

#include <algorithm>

#include "common/assert.h"
#include "isa/isa.h"

namespace lba::replay {

const char*
repairPolicyName(RepairPolicy policy)
{
    switch (policy) {
      case RepairPolicy::kAbort: return "abort";
      case RepairPolicy::kSkip: return "skip";
      case RepairPolicy::kPatch: return "patch";
      case RepairPolicy::kQuarantine: return "quarantine";
    }
    return "?";
}

bool
parseRepairPolicy(std::string_view name, RepairPolicy* policy)
{
    if (name == "abort") {
        *policy = RepairPolicy::kAbort;
    } else if (name == "skip") {
        *policy = RepairPolicy::kSkip;
    } else if (name == "patch") {
        *policy = RepairPolicy::kPatch;
    } else if (name == "quarantine") {
        *policy = RepairPolicy::kQuarantine;
    } else {
        return false;
    }
    return true;
}

namespace {

/** Suppression key: a finding's identity across shards and re-runs. */
std::tuple<std::uint8_t, Addr, Addr>
findingKey(const lifeguard::Finding& finding)
{
    return {static_cast<std::uint8_t>(finding.kind), finding.pc,
            finding.addr};
}

/**
 * True when patching the finding's pc is a sound repair. Leak findings
 * (MemLeak's kLeakSuspect / end-of-run kMemoryLeak) attribute the
 * *allocation site* — nopping or li-patching an allocation syscall
 * would corrupt the program's heap dataflow, so those route to
 * quarantine regardless of the skip/patch policy.
 */
bool
patchableSite(const lifeguard::Finding& finding)
{
    return finding.kind != lifeguard::FindingKind::kLeakSuspect &&
           finding.kind != lifeguard::FindingKind::kMemoryLeak;
}

} // namespace

ContainmentManager::ContainmentManager(sim::Process& process,
                                       core::LbaSystem& system,
                                       sim::RetireObserver& platform,
                                       const ContainmentConfig& config)
    : process_(process),
      system_(system),
      timer_(system.timer()),
      producer_(system.producer()),
      config_(config),
      checkpointer_(process, &platform),
      seen_(system.shards(), 0)
{
    for (unsigned g = 0; g < system_.shards(); ++g) {
        seen_[g] = system_.shardLifeguard(g).findings().size();
    }
    process_.setStoreInterceptor(this);
}

ContainmentManager::~ContainmentManager()
{
    process_.setStoreInterceptor(nullptr);
}

bool
ContainmentManager::isSuppressed(const lifeguard::Finding& finding) const
{
    return quarantined_.count(finding.addr) > 0 ||
           repaired_.count(findingKey(finding)) > 0;
}

void
ContainmentManager::checkFindings()
{
    if (pending_) return;
    for (unsigned g = 0; g < system_.shards(); ++g) {
        const auto& findings = system_.shardLifeguard(g).findings();
        while (seen_[g] < findings.size()) {
            const lifeguard::Finding& finding = findings[seen_[g]++];
            if (isSuppressed(finding)) {
                ++stats_.repairs.suppressed;
                continue;
            }
            // Stop the application at this retirement; the driver
            // (the pool's drive) calls containAndRepair().
            // Remaining new findings stay unexamined until the next
            // event, so each gets its own containment decision.
            pending_ = finding;
            process_.requestStop();
            return;
        }
    }
}

void
ContainmentManager::intervalCheckpoint()
{
    // An interval checkpoint is only consistent once the lifeguards
    // have verified everything logged before it: drain every lane the
    // producer targeted. This is the (paid) generalisation of the free
    // syscall-boundary checkpoint.
    stats_.checkpoint_stall_cycles += timer_.drainProducer(producer_);
    checkpointer_.takeCheckpoint();
    ++stats_.interval_checkpoints;
}

void
ContainmentManager::onRetire(const sim::Retired& retired)
{
    checkpointer_.onRetire(retired);
    checkFindings();
    // No interval checkpoint on a syscall retirement (the free
    // syscall-boundary checkpoint follows immediately) or while a
    // finding is pending (a checkpoint would discard the rewind
    // window before containAndRepair uses it).
    if (config_.checkpoint_interval > 0 && !pending_ &&
        !retired.is_syscall &&
        checkpointer_.instructionsSinceCheckpoint() >=
            config_.checkpoint_interval) {
        intervalCheckpoint();
    }
}

void
ContainmentManager::onOsEvent(const sim::OsEvent& event)
{
    checkpointer_.onOsEvent(event);
    checkFindings();
}

void
ContainmentManager::onSyscallComplete(ThreadId tid)
{
    // Always checkpoint here, even with a finding pending: the syscall's
    // OS-side effects (heap, locks, input writes) are not undo-logged,
    // so the window must never span a completed syscall. A finding
    // raised by the syscall itself therefore rewinds distance 0 — to
    // the state right after the syscall.
    checkpointer_.onSyscallComplete(tid);
    ++stats_.syscall_checkpoints;
}

void
ContainmentManager::onPreStore(ThreadId tid, Addr addr, unsigned bytes,
                               Word old_value)
{
    checkpointer_.onPreStore(tid, addr, bytes, old_value);
}

bool
ContainmentManager::containAndRepair()
{
    LBA_ASSERT(pending_.has_value(),
               "containAndRepair() without a pending finding");
    lifeguard::Finding finding = *pending_;
    pending_.reset();

    // 1. Coordinate: every lane must consume the application's
    //    outstanding records before the rewind point is trusted. The
    //    stall is exactly the consume lag at detection time.
    Cycles drain_stall = timer_.drainProducer(producer_);

    // 2. Rewind, charging the cost: each undone store replays through
    //    the application core's caches (newest first, like the
    //    functional undo), plus a fixed pipeline-flush cost.
    std::uint64_t distance = checkpointer_.instructionsSinceCheckpoint();
    Cycles replay_cost = config_.rewind_flush_cycles;
    mem::CacheHierarchy& hierarchy = timer_.hierarchy();
    unsigned app_core = timer_.producerCore(producer_);
    const auto& undo = checkpointer_.undoLog();
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        replay_cost += 1 + hierarchy.dataAccess(app_core, it->addr, true);
    }
    timer_.chargeContainment(producer_, replay_cost);
    checkpointer_.rewind();

    ++stats_.rewinds;
    stats_.rewound_instructions += distance;
    stats_.max_rewind_distance =
        std::max(stats_.max_rewind_distance, distance);
    stats_.rewind_distance.record(distance);
    stats_.rewind_cycles += drain_stall + replay_cost;

    // 3. Repair.
    const isa::Instruction nop{};
    switch (config_.policy) {
      case RepairPolicy::kAbort:
        ++stats_.repairs.aborted;
        return false;

      case RepairPolicy::kSkip:
        if (patchableSite(finding) &&
            process_.patchInstruction(finding.pc, nop)) {
            ++stats_.repairs.skipped;
            repaired_.insert(findingKey(finding));
        } else {
            // Unpatchable site (e.g. an end-of-run or OS-event finding
            // with pc 0): quarantine instead so the run makes progress.
            quarantined_.insert(finding.addr);
            ++stats_.repairs.quarantined;
        }
        break;

      case RepairPolicy::kPatch: {
        isa::Instruction instr;
        bool patched = false;
        if (!patchableSite(finding)) {
            // fall through to quarantine below
        } else if (process_.instructionAt(finding.pc, &instr) &&
                   isa::isLoad(instr.op)) {
            // Preserve dataflow: the faulting load's destination gets a
            // defined default value instead of the poisoned read.
            patched = process_.patchInstruction(
                finding.pc, {isa::Opcode::kLi, instr.rd, 0, 0, 0});
        } else {
            patched = process_.patchInstruction(finding.pc, nop);
        }
        if (patched) {
            ++stats_.repairs.patched;
            repaired_.insert(findingKey(finding));
        } else {
            quarantined_.insert(finding.addr);
            ++stats_.repairs.quarantined;
        }
        break;
      }

      case RepairPolicy::kQuarantine:
        quarantined_.insert(finding.addr);
        ++stats_.repairs.quarantined;
        break;
    }
    return true;
}

void
ContainmentManager::finalize()
{
    checkpointer_.finalize();
    stats_.checkpoints = checkpointer_.stats().checkpoints;
    stats_.undo_entries = checkpointer_.stats().undo_entries;
    stats_.max_window_entries = checkpointer_.stats().max_window_entries;
}

} // namespace lba::replay
