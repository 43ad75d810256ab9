#pragma once
/**
 * @file
 * End-to-end containment: detection -> rewind -> on-the-fly repair.
 *
 * The paper's Section 1 extension promises that the log "provid[es] a
 * means, when a problem is detected, to (selectively) rewind the
 * monitored program and possibly perform on-the-fly bug repair". The
 * Checkpointer (replay/checkpoint.h) supplies the mechanism — syscall-
 * boundary snapshots plus a store undo log — and this module closes the
 * loop with the timing platform:
 *
 *  - A ContainmentManager wraps an LbaSystem's observer chain (the
 *    system itself, or the pool driver) and watches its shard
 *    lifeguards; a finding stops the application at that retirement.
 *  - Containment drain: before the rewind point is trusted, every lane
 *    the application's records targeted must have consumed them
 *    (PipelineTimer::drainProducer — the multi-lane generalisation of
 *    the syscall-containment drain). The consume lag at detection time
 *    is exactly how far the application ran ahead of the lifeguard.
 *  - Rewind cost: restoring the last checkpoint replays the undo log
 *    newest-first; each undone store is charged through the application
 *    core's caches, plus a fixed pipeline-flush cost, all landing on
 *    the application clock (PipelineTimer::chargeContainment).
 *  - A RepairPolicy decides what happens next: abort the program, skip
 *    the offending instruction, patch it with a safe replacement, or
 *    quarantine the offending address and resume unchanged.
 *
 * Checkpoints are free at syscall boundaries (the syscall-containment
 * drain already synchronised app and lifeguard there), so containment
 * with zero findings is cycle-identical to a baseline run — asserted by
 * differential tests. An optional checkpoint interval additionally
 * snapshots every N instructions; each such checkpoint must drain the
 * lanes first and therefore costs cycles, which is the
 * interval-vs-rewind-distance trade bench/ablation_containment.cc
 * sweeps. (Contrast with hardware tagging like ARM MTE, which detects
 * but cannot rewind.)
 */

#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/lba_system.h"
#include "replay/checkpoint.h"
#include "sim/process.h"
#include "stats/histogram.h"

namespace lba::replay {

/** What to do with the program after a finding triggered a rewind. */
enum class RepairPolicy : std::uint8_t {
    /** Terminate the program at the rewind point (clean state). */
    kAbort = 0,
    /** Patch the offending instruction out (nop). */
    kSkip,
    /**
     * Semantic patch: a faulting load becomes `li rd, 0` so downstream
     * dataflow sees a defined value; other instructions become nops.
     */
    kPatch,
    /**
     * Leave the code alone, quarantine the offending data address:
     * further findings at that address are suppressed and execution
     * resumes past the (still buggy) access.
     */
    kQuarantine,
};

/** Printable policy name ("abort", "skip", "patch", "quarantine"). */
const char* repairPolicyName(RepairPolicy policy);

/** Parse a policy name. @return False on an unknown name. */
bool parseRepairPolicy(std::string_view name, RepairPolicy* policy);

/** Containment configuration (platform-independent): policy and costs. */
struct ContainmentConfig
{
    /** Master switch; when false the platforms run exactly as before. */
    bool enabled = false;
    RepairPolicy policy = RepairPolicy::kPatch;
    /**
     * Extra checkpoint every N retired instructions (0 = checkpoints at
     * syscall boundaries only). Interval checkpoints bound the rewind
     * distance of syscall-free stretches but cost a containment drain
     * each, so — unlike the free syscall-boundary checkpoints — they
     * perturb timing even when nothing is ever rewound.
     */
    std::uint64_t checkpoint_interval = 0;
    /** Fixed pipeline-flush cost charged per rewind. */
    Cycles rewind_flush_cycles = 20;
};

/** How each handled finding was repaired. */
struct RepairOutcomes
{
    /** Offending instruction replaced with a safe equivalent. */
    std::uint64_t patched = 0;
    /** Offending instruction nop'd out. */
    std::uint64_t skipped = 0;
    /** Offending address quarantined (code untouched). */
    std::uint64_t quarantined = 0;
    /** Program terminated at the rewind point. */
    std::uint64_t aborted = 0;
    /** Findings ignored because their address was already quarantined
     *  or the same finding was already repaired. */
    std::uint64_t suppressed = 0;
};

/** Accounting for one contained run (per monitored application). */
struct ContainmentStats
{
    std::uint64_t checkpoints = 0;
    std::uint64_t syscall_checkpoints = 0;
    std::uint64_t interval_checkpoints = 0;
    std::uint64_t undo_entries = 0;
    /** High-water undo-log size between two checkpoints. */
    std::uint64_t max_window_entries = 0;

    std::uint64_t rewinds = 0;
    /** Total instructions rewound (sum of rewind distances). */
    std::uint64_t rewound_instructions = 0;
    std::uint64_t max_rewind_distance = 0;
    /** Cycles charged to the app for rewinds (drain + undo replay). */
    Cycles rewind_cycles = 0;
    /** Cycles the app stalled draining for interval checkpoints. */
    Cycles checkpoint_stall_cycles = 0;

    RepairOutcomes repairs;

    /** Rewind distances, in instructions (64 buckets of 16). */
    stats::Histogram rewind_distance{64, 16};
};

/**
 * Drives detection, rewind and repair for one monitored application:
 * one LbaSystem, whose producer it rewinds and whose shard lifeguards
 * it watches.
 *
 * Wire it as the process's RetireObserver. It is the process's
 * StoreInterceptor while it exists, owns a Checkpointer internally and
 * forwards every event to @p platform. The driver (in the library,
 * sched::LifeguardPool's drive) resumes after each contained finding:
 * @code
 *   replay::ContainmentManager manager(process, system, system, config);
 *   while (process.run(&manager).stopped && manager.pendingFinding() &&
 *          manager.containAndRepair()) {
 *   }
 *   manager.finalize();
 * @endcode
 */
class ContainmentManager : public sim::RetireObserver,
                           public sim::StoreInterceptor
{
  public:
    /**
     * @param process  The monitored application (must outlive this).
     * @param system   Its platform (must outlive this): findings of any
     *                 of its shard lifeguards trigger containment, which
     *                 drains and charges its producer on its timer.
     * @param platform Downstream observer: @p system, or the driver
     *                 that feeds it.
     * @param config   Containment configuration (enabled is ignored
     *                 here; constructing a manager means "on").
     */
    ContainmentManager(sim::Process& process, core::LbaSystem& system,
                       sim::RetireObserver& platform,
                       const ContainmentConfig& config);
    /** Clear the process's store interceptor. */
    ~ContainmentManager() override;

    ContainmentManager(const ContainmentManager&) = delete;
    ContainmentManager& operator=(const ContainmentManager&) = delete;

    // RetireObserver: forward through the checkpointer to the platform,
    // then detect new findings and take interval checkpoints.
    void onRetire(const sim::Retired& retired) override;
    void onOsEvent(const sim::OsEvent& event) override;
    void onSyscallComplete(ThreadId tid) override;

    // StoreInterceptor: undo logging.
    void onPreStore(ThreadId tid, Addr addr, unsigned bytes,
                    Word old_value) override;

    /** True when a finding stopped the run and awaits containment. */
    bool pendingFinding() const { return pending_.has_value(); }

    /**
     * Contain the pending finding: drain every lane, rewind to the last
     * checkpoint (charging the cost to the application clock), and
     * apply the repair policy.
     * @return False when the policy terminates the run (abort).
     */
    bool containAndRepair();

    /** Fold end-of-run window state into the statistics. Idempotent. */
    void finalize();

    const ContainmentStats& stats() const { return stats_; }

  private:
    /** Scan the shard lifeguards for new findings; arm a stop. */
    void checkFindings();

    /** True when @p finding must not trigger (another) containment. */
    bool isSuppressed(const lifeguard::Finding& finding) const;

    /** Drain + snapshot between syscalls (checkpoint_interval). */
    void intervalCheckpoint();

    sim::Process& process_;
    core::LbaSystem& system_;
    core::PipelineTimer& timer_;
    unsigned producer_;
    ContainmentConfig config_;

    Checkpointer checkpointer_;
    /** Per-shard count of findings already examined. */
    std::vector<std::size_t> seen_;
    /** The finding that stopped the run, if any. */
    std::optional<lifeguard::Finding> pending_;
    /** Data addresses whose findings are suppressed (quarantine). */
    std::set<Addr> quarantined_;
    /** Exact findings already repaired; duplicates from other shards
     *  (broadcast annotations) must not rewind again. */
    std::set<std::tuple<std::uint8_t, Addr, Addr>> repaired_;

    ContainmentStats stats_;
};

} // namespace lba::replay
