/**
 * @file
 * LockSet (Eraser) implementation.
 *
 * Handler cost model (charged via CostSink, per event):
 *   lock/unlock          : 12 instrs + 1 lockset-table access
 *   load/store           : 3 instrs + 1 shadow read, then by state:
 *     Virgin -> Exclusive      : +2 instrs + 1 shadow write
 *     Exclusive, same thread   : +2 instrs
 *     Exclusive -> Shared(Mod) : +4 instrs + 1 shadow write
 *     Shared/SharedModified    : +18 instrs (lockset hash + intersection)
 *                                + 1 lockset-table read
 *                                + 1 shadow write
 * The intersection is the expensive path — it is why LockSet is the
 * slowest lifeguard in the paper (9.7X average on LBA, vs 3.9X/4.8X).
 */

#include "lifeguards/lockset.h"

#include <algorithm>
#include <cstdio>

#include "common/assert.h"

namespace lba::lifeguards {

using lifeguard::CostSink;
using lifeguard::FindingKind;
using log::EventRecord;
using log::EventType;

LocksetTable::LocksetTable(Addr table_base)
    : table_base_(table_base)
{
    sets_.push_back({}); // id 0: the empty set
    ids_[{}] = kEmpty;
}

std::uint32_t
LocksetTable::idOf(const std::vector<Addr>& sorted_locks)
{
    auto it = ids_.find(sorted_locks);
    if (it != ids_.end()) return it->second;
    auto id = static_cast<std::uint32_t>(sets_.size());
    sets_.push_back(sorted_locks);
    ids_[sorted_locks] = id;
    return id;
}

std::uint32_t
LocksetTable::intersect(std::uint32_t a, std::uint32_t b)
{
    if (a == b) return a;
    if (a == kEmpty || b == kEmpty) return kEmpty;
    auto key = std::minmax(a, b);
    auto memo = intersect_memo_.find(key);
    if (memo != intersect_memo_.end()) return memo->second;

    const std::vector<Addr>& sa = locks(a);
    const std::vector<Addr>& sb = locks(b);
    std::vector<Addr> out;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(out));
    std::uint32_t id = idOf(out);
    intersect_memo_[key] = id;
    return id;
}

const std::vector<Addr>&
LocksetTable::locks(std::uint32_t id) const
{
    LBA_ASSERT(id < sets_.size(), "invalid lockset id");
    return sets_[id];
}

LockSet::LockSet(const LockSetConfig& config)
    : config_(config),
      table_(config.lockset_table_base),
      granules_(config.shadow_base)
{
    // The handler table: memory accesses drive the Eraser state
    // machine, lock annotations maintain the held-lock sets, alloc
    // annotations reset recycled granules.
    onEvent<&LockSet::onLoad>(EventType::kLoad);
    onEvent<&LockSet::onStore>(EventType::kStore);
    onEvent<&LockSet::onLock>(EventType::kLock);
    onEvent<&LockSet::onUnlock>(EventType::kUnlock);
    onEvent<&LockSet::onAlloc>(EventType::kAlloc);
}

void
LockSet::onLoad(const EventRecord& record, CostSink& cost)
{
    handleAccess(record, false, cost);
}

void
LockSet::onStore(const EventRecord& record, CostSink& cost)
{
    handleAccess(record, true, cost);
}

void
LockSet::onLock(const EventRecord& record, CostSink& cost)
{
    handleLock(record, true, cost);
}

void
LockSet::onUnlock(const EventRecord& record, CostSink& cost)
{
    if (record.aux != 0) handleLock(record, false, cost);
}

std::uint32_t
LockSet::threadLockset(ThreadId tid) const
{
    auto it = thread_locks_.find(tid);
    return it == thread_locks_.end() ? LocksetTable::kEmpty
                                     : it->second.id;
}

LockSet::State
LockSet::granuleState(Addr addr) const
{
    const Granule* g = granules_.find(addr);
    return g ? static_cast<State>(g->state) : kVirgin;
}

void
LockSet::handleLock(const EventRecord& record, bool acquire,
                    CostSink& cost)
{
    cost.instrs(12);
    ThreadLocks& tl = thread_locks_[record.tid];
    if (acquire) {
        auto it = std::lower_bound(tl.held.begin(), tl.held.end(),
                                   record.addr);
        if (it == tl.held.end() || *it != record.addr) {
            tl.held.insert(it, record.addr);
        }
    } else {
        auto it = std::lower_bound(tl.held.begin(), tl.held.end(),
                                   record.addr);
        if (it != tl.held.end() && *it == record.addr) {
            tl.held.erase(it);
        }
    }
    tl.id = table_.idOf(tl.held);
    cost.memAccess(table_.simAddr(tl.id), true);
}

void
LockSet::handleAccess(const EventRecord& record, bool is_write,
                      CostSink& cost)
{
    if (config_.check_bytes != 0 &&
        (record.addr < config_.check_base ||
         record.addr >= config_.check_base + config_.check_bytes)) {
        cost.instrs(2); // range filter
        return;
    }
    Addr addr = record.addr;
    cost.instrs(3);
    Granule& g = granules_.entry(addr);
    cost.memAccess(granules_.shadowAddr(addr), false);

    ThreadId tid = record.tid;
    std::uint32_t held = threadLockset(tid);

    switch (g.state) {
      case kVirgin:
        g.state = kExclusive;
        g.owner = tid;
        cost.instrs(2);
        cost.memAccess(granules_.shadowAddr(addr), true);
        return;

      case kExclusive:
        if (g.owner == tid) {
            cost.instrs(2);
            return;
        }
        // Second thread: initialize the candidate set from its locks.
        g.state = is_write ? kSharedModified : kShared;
        g.lockset = held;
        cost.instrs(4);
        cost.memAccess(granules_.shadowAddr(addr), true);
        break;

      case kShared: {
        std::uint32_t refined = table_.intersect(g.lockset, held);
        bool changed = refined != g.lockset ||
                       (is_write && g.state != kSharedModified);
        g.lockset = refined;
        if (is_write) g.state = kSharedModified;
        cost.instrs(18);
        cost.memAccess(table_.simAddr(g.lockset), false);
        // The shadow word is written back only when it changed.
        if (changed) cost.memAccess(granules_.shadowAddr(addr), true);
        break;
      }

      case kSharedModified: {
        std::uint32_t refined = table_.intersect(g.lockset, held);
        bool changed = refined != g.lockset;
        g.lockset = refined;
        cost.instrs(18);
        cost.memAccess(table_.simAddr(g.lockset), false);
        if (changed) cost.memAccess(granules_.shadowAddr(addr), true);
        break;
      }

      default:
        LBA_ASSERT(false, "corrupt granule state");
    }

    if (g.state == kSharedModified && g.lockset == LocksetTable::kEmpty) {
        std::uint64_t granule = addr >> 3;
        if (config_.dedupe_reports && !reported_.insert(granule).second) {
            return;
        }
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "%s with empty candidate lockset",
                      is_write ? "write" : "read");
        report({FindingKind::kDataRace, record.pc, addr, tid, msg});
    }
}

void
LockSet::onAlloc(const EventRecord& record, CostSink& cost)
{
    // Reallocation resets the Eraser state machine: the new owner
    // must not inherit sharing history (or races!) from the block's
    // previous life. Eraser does this via its malloc hook.
    cost.instrs(6);
    if (record.addr != 0) {
        for (Addr g = record.addr & ~7ull; g < record.addr + record.aux;
             g += 8) {
            granules_.entry(g) = Granule{};
            reported_.erase(g >> 3);
            // One 8-byte shadow store per granule (memset loop).
            cost.memAccess(granules_.shadowAddr(g), true);
        }
    }
}

} // namespace lba::lifeguards
