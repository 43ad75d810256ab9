/**
 * @file
 * AddrCheck implementation.
 *
 * Handler cost model (charged via CostSink, per event):
 *   non-memory event      : no handler work (dispatch cost only)
 *   load/store, non-heap  : 3 instrs  (range check, fall through)
 *   load/store, heap      : 8 instrs + 1 shadow read (+1 more when the
 *                           access straddles a granule boundary)
 *   alloc/free            : ~10 instrs + 2 instrs and 1 shadow write per
 *                           8-byte granule of the block
 * These counts correspond to a tight hand-written handler: address range
 * test, shadow index computation, mask test, and conditional report.
 */

#include "lifeguards/addrcheck.h"

#include <cstdio>

namespace lba::lifeguards {

using lifeguard::CostSink;
using lifeguard::Finding;
using lifeguard::FindingKind;
using log::EventRecord;
using log::EventType;

AddrCheck::AddrCheck(const AddrCheckConfig& config)
    : config_(config), valid_(config.shadow_base)
{
    // The handler table (paper Section 2): every event type AddrCheck
    // does not register costs dispatch cycles only.
    onEvent<&AddrCheck::checkAccess>(EventType::kLoad);
    onEvent<&AddrCheck::checkAccess>(EventType::kStore);
    onEvent<&AddrCheck::onAlloc>(EventType::kAlloc);
    onEvent<&AddrCheck::onFree>(EventType::kFree);
}

void
AddrCheck::markRange(Addr base, std::uint64_t size, bool allocated,
                     CostSink& cost)
{
    // Functional update: per-granule validity masks.
    Addr end = base + size;
    for (Addr g = base & ~7ull; g < end; g += 8) {
        std::uint8_t mask = lifeguard::granuleByteMask(g, base, end);
        std::uint8_t& entry = valid_.entry(g);
        entry = allocated ? (entry | mask)
                          : static_cast<std::uint8_t>(entry & ~mask);
    }
    // Cost: a real handler memsets the shadow with 8-byte stores (one
    // store covers 8 granule bytes = 64 application bytes), not with a
    // store per granule.
    for (Addr g = base & ~7ull; g < end; g += 64) {
        cost.instrs(1);
        cost.memAccess(valid_.shadowAddr(g), true);
    }
}

void
AddrCheck::checkAccess(const EventRecord& record, CostSink& cost)
{
    // Range test: two compares against the heap bounds.
    cost.instrs(2);
    Addr addr = record.addr;
    if (addr < config_.heap_base ||
        addr >= config_.heap_base + config_.heap_bytes) {
        cost.instrs(1); // fall-through branch
        return;
    }
    unsigned bytes = static_cast<unsigned>(record.aux ? record.aux : 1);
    // Shadow index computation + mask formation + test + branch.
    cost.instrs(6);
    cost.memAccess(valid_.shadowAddr(addr), false);

    // One probe per granule the access touches, testing all of its
    // bytes in that granule with one mask.
    bool ok = true;
    Addr end = addr + bytes;
    for (Addr g = addr & ~7ull; g < end; g += 8) {
        if (g > addr) {
            // Access crosses into the next granule: second shadow probe.
            cost.instrs(2);
            cost.memAccess(valid_.shadowAddr(g), false);
        }
        std::uint8_t mask = lifeguard::granuleByteMask(g, addr, end);
        const std::uint8_t* entry = valid_.find(g);
        if (!entry || (*entry & mask) != mask) {
            ok = false;
        }
    }
    if (ok) return;

    std::uint64_t granule = addr >> 3;
    if (config_.dedupe_reports && !reported_.insert(granule).second) {
        return;
    }
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "%u-byte %s of unallocated heap memory", bytes,
                  record.type == EventType::kStore ? "write" : "read");
    report({FindingKind::kUnallocatedAccess, record.pc, addr, record.tid,
            msg});
}

void
AddrCheck::onAlloc(const EventRecord& record, CostSink& cost)
{
    cost.instrs(10);
    if (record.addr == 0) return; // failed allocation
    live_[record.addr] = record.aux;
    live_bytes_ += record.aux;
    markRange(record.addr, record.aux, true, cost);
    // Re-allocation of a previously reported granule is legitimate
    // again; forget dedupe state lazily (host-side only).
}

void
AddrCheck::onFree(const EventRecord& record, CostSink& cost)
{
    cost.instrs(10);
    auto it = live_.find(record.addr);
    if (it == live_.end()) {
        report({FindingKind::kDoubleFree, record.pc, record.addr,
                record.tid,
                "free() of address that is not a live block"});
        return;
    }
    markRange(record.addr, it->second, false, cost);
    live_bytes_ -= it->second;
    live_.erase(it);
}

void
AddrCheck::finish(CostSink& cost)
{
    // Leak scan: walk the live-block table.
    cost.instrs(5);
    for (const auto& [base, size] : live_) {
        cost.instrs(20);
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "leaked block of %llu bytes",
                      static_cast<unsigned long long>(size));
        report({FindingKind::kMemoryLeak, 0, base, 0, msg});
    }
}

} // namespace lba::lifeguards
