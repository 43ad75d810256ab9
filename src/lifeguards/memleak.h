#pragma once
/**
 * @file
 * MemLeak lifeguard: allocation-site tracking with reachability-decay
 * sweeps. Where AddrCheck answers "is this access legal?", MemLeak
 * answers "is this block still in use?": every live heap block carries
 * its allocation site and a last-touch epoch stamp; heap loads/stores
 * refresh the stamp, and at syscall boundaries a periodic decay sweep
 * walks the block table and reports blocks untouched for a
 * configurable number of epochs as FindingKind::kLeakSuspect (once per
 * block). Blocks still live at program end are definite
 * FindingKind::kMemoryLeak reports.
 *
 * Cost profile: the *opposite* of BoundsCheck. Long-lived shadow state
 * (a word-wide epoch stamp per 16-byte granule that is written on
 * every heap access and never discarded) plus periodic whole-table
 * sweeps make MemLeak's overhead grow with the live heap footprint and
 * the syscall rate — it deliberately stresses shadow-memory footprint
 * and the syscall drains of the timing engine.
 */

#include <map>

#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguards {

/** MemLeak configuration. */
struct MemLeakConfig
{
    /** Heap range to track. */
    Addr heap_base = 0x10000000;
    std::uint64_t heap_bytes = 64ull << 20;
    /** Simulated base of the epoch-stamp shadow (distinct per guard). */
    Addr shadow_base = lifeguard::kShadowBase + 0x2800000000ull;
    /** Syscalls per epoch-advancing decay sweep. */
    std::uint64_t sweep_period = 64;
    /** Epochs (syscalls) a block may go untouched before it is
     *  reported as a leak suspect. */
    std::uint64_t stale_epochs = 256;
};

/** See file comment. */
class MemLeak : public lifeguard::Lifeguard
{
  public:
    explicit MemLeak(const MemLeakConfig& config = {});

    const char* name() const override { return "MemLeak"; }

    void finish(lifeguard::CostSink& cost) override;

    /** Live (unfreed) blocks currently tracked (for tests). */
    std::size_t liveBlocks() const { return blocks_.size(); }

    /** Decay sweeps performed so far (for tests). */
    std::uint64_t sweeps() const { return sweeps_; }

  private:
    /** One tracked allocation. */
    struct Block
    {
        std::uint64_t size = 0;
        Addr alloc_pc = 0;
        ThreadId tid = 0;
        std::uint64_t last_epoch = 0;
        bool suspected = false;
    };

    /** kLoad/kStore handler: heap-range test, then refresh the granule
     *  and block stamps. */
    void checkAccess(const log::EventRecord& record,
                     lifeguard::CostSink& cost);

    /** kSyscall handler: advance the epoch clock, maybe sweep. */
    void onSyscall(const log::EventRecord& record,
                   lifeguard::CostSink& cost);

    /** kAlloc handler: start tracking the block. */
    void onAlloc(const log::EventRecord& record,
                 lifeguard::CostSink& cost);

    /** kFree handler: stop tracking the block. */
    void onFree(const log::EventRecord& record,
                lifeguard::CostSink& cost);

    /** The tracked block containing @p addr, or nullptr. */
    Block* owningBlock(Addr addr);

    MemLeakConfig config_;
    /** Last-touch epoch stamp per 16-byte granule (long-lived; never
     *  reclaimed while the guard runs — the footprint stressor). */
    lifeguard::ShadowMemory<std::uint32_t, 16> stamps_;
    /** Tracked blocks, base -> Block. std::map so sweep order (and
     *  therefore finding order) is deterministic. */
    std::map<Addr, Block> blocks_;
    /** Epoch clock: one tick per syscall record seen. */
    std::uint64_t epoch_ = 0;
    std::uint64_t sweeps_ = 0;
};

} // namespace lba::lifeguards
