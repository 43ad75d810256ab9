#pragma once
/**
 * @file
 * LockSet lifeguard (paper Section 3, after Savage et al.'s Eraser):
 * detects possible data races in multithreaded programs by refining, for
 * every shared memory location, the set of locks consistently held when
 * it is accessed.
 *
 * State machine per 8-byte granule (the Eraser algorithm):
 *   Virgin -> Exclusive(first thread) -> Shared (second thread reads)
 *          -> SharedModified (second thread writes / write while Shared)
 * The candidate lockset C(v) is initialized at the first sharing
 * transition and intersected with the accessing thread's held-lock set on
 * every subsequent access; an empty C(v) in SharedModified state is a
 * potential race.
 *
 * Locksets are canonicalized in a LocksetTable so that intersection is
 * memoized and each set has a stable id (and a simulated table address
 * for cache timing).
 */

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguards {

/** Canonical lockset storage with memoized intersection. */
class LocksetTable
{
  public:
    explicit LocksetTable(Addr table_base);

    /** Id of the empty lockset. */
    static constexpr std::uint32_t kEmpty = 0;

    /** Canonical id of a sorted, duplicate-free lock vector. */
    std::uint32_t idOf(const std::vector<Addr>& sorted_locks);

    /** Memoized intersection of two canonical sets. */
    std::uint32_t intersect(std::uint32_t a, std::uint32_t b);

    /** The locks in set @p id. */
    const std::vector<Addr>& locks(std::uint32_t id) const;

    /** Simulated address of the set's table entry (for cache timing). */
    Addr
    simAddr(std::uint32_t id) const
    {
        return table_base_ + static_cast<Addr>(id) * 16;
    }

    /** Number of distinct locksets interned. */
    std::size_t size() const { return sets_.size(); }

  private:
    Addr table_base_;
    std::vector<std::vector<Addr>> sets_;
    std::map<std::vector<Addr>, std::uint32_t> ids_;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
        intersect_memo_;
};

/** LockSet configuration. */
struct LockSetConfig
{
    /** Simulated base of the granule-state shadow table. */
    Addr shadow_base = lifeguard::kShadowBase + 0x1000000000ull;
    /** Simulated base of the lockset table. */
    Addr lockset_table_base = lifeguard::kShadowBase + 0x1800000000ull;
    /** Suppress duplicate race reports per granule. */
    bool dedupe_reports = true;
    /**
     * Only granules in this range participate (the shared-data segment);
     * 0 size = check everything. Restricting to the heap/globals avoids
     * per-thread stack noise, as Eraser does via its allocation hooks.
     */
    Addr check_base = 0;
    std::uint64_t check_bytes = 0;
};

/** See file comment. */
class LockSet : public lifeguard::Lifeguard
{
  public:
    explicit LockSet(const LockSetConfig& config = {});

    const char* name() const override { return "LockSet"; }

    /** Current lockset id of a thread (tests). */
    std::uint32_t threadLockset(ThreadId tid) const;

    /** Granule state values (exposed for tests). */
    enum State : std::uint8_t {
        kVirgin = 0,
        kExclusive = 1,
        kShared = 2,
        kSharedModified = 3,
    };

    /** State of the granule containing @p addr (tests). */
    State granuleState(Addr addr) const;

  private:
    /** Per-granule Eraser metadata (8 bytes; one shadow entry). */
    struct Granule
    {
        std::uint8_t state = kVirgin;
        ThreadId owner = 0;
        std::uint32_t lockset = LocksetTable::kEmpty;
    };

    /** Per-thread held-lock bookkeeping. */
    struct ThreadLocks
    {
        std::vector<Addr> held; // sorted
        std::uint32_t id = LocksetTable::kEmpty;
    };

    // Handlers (registered in the constructor).
    void onLoad(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onStore(const log::EventRecord& record,
                 lifeguard::CostSink& cost);
    void onLock(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onUnlock(const log::EventRecord& record,
                  lifeguard::CostSink& cost);
    /** Reallocation resets the granules' Eraser state. */
    void onAlloc(const log::EventRecord& record, lifeguard::CostSink& cost);

    /** Load/store body: optional range filter + the Eraser state
     *  machine. */
    void handleAccess(const log::EventRecord& record, bool is_write,
                      lifeguard::CostSink& cost);

    void handleLock(const log::EventRecord& record, bool acquire,
                    lifeguard::CostSink& cost);

    LockSetConfig config_;
    LocksetTable table_;
    lifeguard::ShadowMemory<Granule, 8> granules_;
    std::unordered_map<ThreadId, ThreadLocks> thread_locks_;
    std::unordered_set<std::uint64_t> reported_;
};

} // namespace lba::lifeguards
