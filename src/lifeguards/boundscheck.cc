/**
 * @file
 * BoundsCheck implementation.
 *
 * Handler cost model (charged via CostSink, per event):
 *   non-memory event      : no handler work (dispatch cost only)
 *   load/store, non-heap  : 3 instrs  (range check, fall through)
 *   load/store, heap      : 5 instrs + 1 shadow read (constant — the
 *                           MTE-style tag probe never straddles: one
 *                           granule decides the access)
 *   alloc/free            : ~8 instrs + 1 instr and 1 shadow write per
 *                           128 bytes of block (an 8-byte store colours
 *                           8 byte-wide granule entries at once)
 * Compare AddrCheck: 8 instrs + 1..2 shadow reads per heap access over
 * 8-byte granules, and a shadow write per 64 block bytes — BoundsCheck
 * is cheaper on every axis, which is the MTE claim the fig_mte bench
 * gates.
 */

#include "lifeguards/boundscheck.h"

#include <cstdio>

namespace lba::lifeguards {

using lifeguard::CostSink;
using lifeguard::Finding;
using lifeguard::FindingKind;
using log::EventRecord;
using log::EventType;

BoundsCheck::BoundsCheck(const BoundsCheckConfig& config)
    : config_(config), tags_(config.shadow_base)
{
    // The handler table: every event type BoundsCheck does not
    // register costs dispatch cycles only.
    onEvent<&BoundsCheck::checkAccess>(EventType::kLoad);
    onEvent<&BoundsCheck::checkAccess>(EventType::kStore);
    onEvent<&BoundsCheck::onAlloc>(EventType::kAlloc);
    onEvent<&BoundsCheck::onFree>(EventType::kFree);
}

void
BoundsCheck::colourRange(Addr base, std::uint64_t size, std::uint8_t tag,
                         CostSink& cost)
{
    if (size == 0) return;
    Addr end = base + size;
    constexpr Addr kGranule = 16;
    for (Addr g = base & ~(kGranule - 1); g < end; g += kGranule) {
        tags_.entry(g) = tag;
    }
    // Cost: a real handler colours the byte-wide shadow with 8-byte
    // stores — one store covers 8 granule entries = 128 application
    // bytes.
    for (Addr g = base & ~(kGranule - 1); g < end; g += 128) {
        cost.instrs(1);
        cost.memAccess(tags_.shadowAddr(g), true);
    }
}

void
BoundsCheck::checkAccess(const EventRecord& record, CostSink& cost)
{
    // Range test: two compares against the heap bounds.
    cost.instrs(2);
    Addr addr = record.addr;
    if (addr < config_.heap_base ||
        addr >= config_.heap_base + config_.heap_bytes) {
        cost.instrs(1); // fall-through branch
        return;
    }
    // Shadow index computation + tag extract + compare + branch: the
    // whole check is one probe of the granule the address lands in —
    // constant cost, no straddle handling (that imprecision at granule
    // edges is the MTE trade).
    cost.instrs(5);
    cost.memAccess(tags_.shadowAddr(addr), false);

    const std::uint8_t* tag = tags_.find(addr);
    if (tag && *tag != 0) return;

    std::uint64_t granule = addr >> 4;
    if (config_.dedupe_reports && !reported_.insert(granule).second) {
        return;
    }
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "%s of untagged granule (freed or never allocated)",
                  record.type == EventType::kStore ? "write" : "read");
    report({FindingKind::kTagMismatch, record.pc, addr, record.tid,
            msg});
}

void
BoundsCheck::onAlloc(const EventRecord& record, CostSink& cost)
{
    // Block bookkeeping + tag-cycling arithmetic.
    cost.instrs(8);
    if (record.addr == 0) return; // failed allocation
    next_tag_ = static_cast<std::uint8_t>(next_tag_ % 15 + 1);
    live_[record.addr] = record.aux;
    live_bytes_ += record.aux;
    colourRange(record.addr, record.aux, next_tag_, cost);
}

void
BoundsCheck::onFree(const EventRecord& record, CostSink& cost)
{
    cost.instrs(8);
    auto it = live_.find(record.addr);
    if (it == live_.end()) {
        // Free of an unknown block: nothing to retag. AddrCheck owns
        // double-free reporting; BoundsCheck stays a pure tag engine.
        return;
    }
    colourRange(record.addr, it->second, 0, cost);
    live_bytes_ -= it->second;
    live_.erase(it);
}

} // namespace lba::lifeguards
