/**
 * @file
 * MemLeak implementation.
 *
 * Handler cost model (charged via CostSink, per event):
 *   non-memory event      : no handler work (dispatch cost only)
 *   load/store, non-heap  : 3 instrs  (range check, fall through)
 *   load/store, heap      : 4 instrs + 1 shadow read + 1 shadow write
 *                           (read-modify-write of the granule's
 *                           last-touch stamp — every heap access pays
 *                           a metadata *store*, unlike AddrCheck's
 *                           read-only probe)
 *   syscall               : 2 instrs (epoch tick); every sweep_period-th
 *                           syscall additionally walks the block table
 *                           at 4 instrs + 1 shadow read per live block
 *   alloc/free            : ~12 instrs + 1 instr and 1 shadow write per
 *                           64 bytes of block (stamp seeding/clearing)
 */

#include "lifeguards/memleak.h"

#include <cstdio>

namespace lba::lifeguards {

using lifeguard::CostSink;
using lifeguard::Finding;
using lifeguard::FindingKind;
using log::EventRecord;
using log::EventType;

MemLeak::MemLeak(const MemLeakConfig& config)
    : config_(config), stamps_(config.shadow_base)
{
    // The handler table: every event type MemLeak does not register
    // costs dispatch cycles only.
    onEvent<&MemLeak::checkAccess>(EventType::kLoad);
    onEvent<&MemLeak::checkAccess>(EventType::kStore);
    onEvent<&MemLeak::onSyscall>(EventType::kSyscall);
    onEvent<&MemLeak::onAlloc>(EventType::kAlloc);
    onEvent<&MemLeak::onFree>(EventType::kFree);
}

MemLeak::Block*
MemLeak::owningBlock(Addr addr)
{
    // Host-side range lookup; the simulated cost of the equivalent
    // shadow-resident lookup is charged by the callers.
    auto it = blocks_.upper_bound(addr);
    if (it == blocks_.begin()) return nullptr;
    --it;
    if (addr >= it->first && addr < it->first + it->second.size) {
        return &it->second;
    }
    return nullptr;
}

void
MemLeak::checkAccess(const EventRecord& record, CostSink& cost)
{
    // Range test: two compares against the heap bounds.
    cost.instrs(2);
    Addr addr = record.addr;
    if (addr < config_.heap_base ||
        addr >= config_.heap_base + config_.heap_bytes) {
        cost.instrs(1); // fall-through branch
        return;
    }
    // Stamp read-modify-write: index computation, load, store, plus
    // the block-table refresh.
    cost.instrs(4);
    cost.memAccess(stamps_.shadowAddr(addr), false);
    cost.memAccess(stamps_.shadowAddr(addr), true);

    stamps_.entry(addr) = static_cast<std::uint32_t>(epoch_);
    if (Block* block = owningBlock(addr)) {
        block->last_epoch = epoch_;
    }
}

void
MemLeak::onSyscall(const EventRecord& record, CostSink& cost)
{
    // Epoch tick: increment + period test.
    cost.instrs(2);
    ++epoch_;
    if (epoch_ % config_.sweep_period != 0) return;

    // Decay sweep: walk the block table; each block costs the stamp
    // probe plus the staleness compare.
    ++sweeps_;
    for (auto& [base, block] : blocks_) {
        cost.instrs(4);
        cost.memAccess(stamps_.shadowAddr(base), false);
        if (block.suspected) continue;
        if (epoch_ - block.last_epoch < config_.stale_epochs) continue;
        block.suspected = true;
        char msg[96];
        std::snprintf(
            msg, sizeof(msg),
            "block of %llu bytes untouched for %llu syscalls",
            static_cast<unsigned long long>(block.size),
            static_cast<unsigned long long>(epoch_ - block.last_epoch));
        report({FindingKind::kLeakSuspect, block.alloc_pc, base,
                block.tid, msg});
    }
    (void)record;
}

void
MemLeak::onAlloc(const EventRecord& record, CostSink& cost)
{
    // Block-table insert + allocation-site capture.
    cost.instrs(12);
    if (record.addr == 0) return; // failed allocation
    blocks_[record.addr] =
        Block{record.aux, record.pc, record.tid, epoch_, false};
    // Seed the granule stamps (an 8-byte store covers 2 word-wide
    // entries = 32 application bytes; charge per 64 like a 2x-unrolled
    // loop).
    Addr end = record.addr + record.aux;
    for (Addr g = record.addr & ~15ull; g < end; g += 16) {
        stamps_.entry(g) = static_cast<std::uint32_t>(epoch_);
    }
    for (Addr g = record.addr & ~15ull; g < end; g += 64) {
        cost.instrs(1);
        cost.memAccess(stamps_.shadowAddr(g), true);
    }
}

void
MemLeak::onFree(const EventRecord& record, CostSink& cost)
{
    cost.instrs(12);
    auto it = blocks_.find(record.addr);
    if (it == blocks_.end()) return; // AddrCheck owns double-free
    // Clear the stamps (same store pattern as seeding).
    Addr end = record.addr + it->second.size;
    for (Addr g = record.addr & ~15ull; g < end; g += 16) {
        stamps_.entry(g) = 0;
    }
    for (Addr g = record.addr & ~15ull; g < end; g += 64) {
        cost.instrs(1);
        cost.memAccess(stamps_.shadowAddr(g), true);
    }
    blocks_.erase(it);
}

void
MemLeak::finish(CostSink& cost)
{
    // End-of-run scan: anything still tracked is a definite leak.
    cost.instrs(5);
    for (const auto& [base, block] : blocks_) {
        cost.instrs(20);
        char msg[96];
        std::snprintf(msg, sizeof(msg), "leaked block of %llu bytes",
                      static_cast<unsigned long long>(block.size));
        report({FindingKind::kMemoryLeak, block.alloc_pc, base,
                block.tid, msg});
    }
}

} // namespace lba::lifeguards
