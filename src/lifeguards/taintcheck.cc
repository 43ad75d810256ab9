/**
 * @file
 * TaintCheck implementation.
 *
 * Handler cost model (charged via CostSink, per event):
 *   li (constant)        : 1 instr   (clear destination bit)
 *   move                 : 2 instrs  (copy bit)
 *   ALU                  : 4 instrs  (or source bits into destination)
 *   load                 : 6 instrs + 1 shadow read
 *   store                : 6 instrs + 1 shadow write
 *   indirect jump/call,
 *   return               : 2 instrs  (test + conditional report)
 *   input annotation     : 6 instrs + 2 instrs and 1 shadow write/granule
 *   alloc annotation     : 4 instrs + 2 instrs and 1 shadow write/granule
 *                          (fresh memory is untainted)
 */

#include "lifeguards/taintcheck.h"

#include <algorithm>
#include <cstdio>

namespace lba::lifeguards {

using lifeguard::CostSink;
using lifeguard::FindingKind;
using log::EventRecord;
using log::EventType;

TaintCheck::TaintCheck(const TaintCheckConfig& config)
    : config_(config), taint_(config.shadow_base)
{
    // The handler table: TaintCheck watches *all* dataflow-relevant
    // instruction classes (the paper's distinction from
    // address-triggered schemes) plus the input/alloc annotations.
    onEvent<&TaintCheck::onLoadImm>(EventType::kLoadImm);
    onEvent<&TaintCheck::onMove>(EventType::kMove);
    onEvent<&TaintCheck::onAlu>(EventType::kIntAlu);
    onEvent<&TaintCheck::onLoad>(EventType::kLoad);
    onEvent<&TaintCheck::onStore>(EventType::kStore);
    onEvent<&TaintCheck::onIndirectTransfer>(EventType::kIndirectJump);
    onEvent<&TaintCheck::onIndirectTransfer>(EventType::kIndirectCall);
    onEvent<&TaintCheck::onReturn>(EventType::kReturn);
    onEvent<&TaintCheck::onInput>(EventType::kInput);
    onEvent<&TaintCheck::onAlloc>(EventType::kAlloc);
}

bool
TaintCheck::regBit(ThreadId tid, RegIndex reg) const
{
    return tid < reg_taint_.size() && ((reg_taint_[tid] >> reg) & 1u);
}

void
TaintCheck::setRegBit(ThreadId tid, RegIndex reg, bool tainted)
{
    if (reg == isa::kRegZero) return; // r0 is never tainted
    if (tid >= reg_taint_.size()) reg_taint_.resize(tid + std::size_t{1});
    std::uint32_t& mask = reg_taint_[tid];
    if (tainted) {
        mask |= 1u << reg;
    } else {
        mask &= ~(1u << reg);
    }
}

bool
TaintCheck::regTainted(ThreadId tid, RegIndex reg) const
{
    return regBit(tid, reg);
}

bool
TaintCheck::memTainted(Addr addr, unsigned bytes) const
{
    for (unsigned b = 0; b < bytes; ++b) {
        const std::uint8_t* entry = taint_.find(addr + b);
        if (entry && (*entry >> ((addr + b) & 7)) & 1u) return true;
    }
    return false;
}

bool
TaintCheck::readMemTaint(Addr addr, unsigned bytes, CostSink& cost)
{
    cost.memAccess(taint_.shadowAddr(addr), false);
    // One probe per granule the access touches, testing all of its
    // bytes in that granule at once; each granule after the first costs
    // another shadow read.
    bool tainted = false;
    for (unsigned done = 0; done < bytes;) {
        Addr byte = addr + done;
        unsigned lo = static_cast<unsigned>(byte & 7);
        unsigned n = std::min(8 - lo, bytes - done);
        if (done > 0) {
            cost.instrs(1);
            cost.memAccess(taint_.shadowAddr(byte), false);
        }
        const std::uint8_t* entry = taint_.find(byte);
        if (entry && (*entry >> lo) & ((1u << n) - 1)) tainted = true;
        done += n;
    }
    return tainted;
}

void
TaintCheck::writeMemTaint(Addr addr, unsigned bytes, bool tainted,
                          CostSink& cost)
{
    // An empty range marks nothing and costs nothing, at any alignment.
    if (bytes == 0) return;
    // Functional update: per-granule taint masks.
    Addr end = addr + bytes;
    for (Addr g = addr & ~7ull; g < end; g += 8) {
        std::uint8_t mask = lifeguard::granuleByteMask(g, addr, end);
        std::uint8_t& entry = taint_.entry(g);
        entry = tainted ? (entry | mask)
                        : static_cast<std::uint8_t>(entry & ~mask);
    }
    // Cost: bulk marking (input buffers, fresh allocations) uses 8-byte
    // shadow stores covering 64 application bytes each; a store-sized
    // update is a single read-modify-write of one shadow byte.
    for (Addr g = addr & ~7ull; g < end; g += 64) {
        cost.instrs(1);
        cost.memAccess(taint_.shadowAddr(g), true);
    }
}

void
TaintCheck::checkJump(const EventRecord& record, RegIndex source_reg,
                      CostSink& cost)
{
    cost.instrs(2);
    if (!regBit(record.tid, source_reg)) return;
    if (config_.dedupe_reports && !reported_.insert(record.pc).second) {
        return;
    }
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "control transfer through tainted register r%u",
                  static_cast<unsigned>(source_reg));
    report({FindingKind::kTaintedJump, record.pc, record.addr,
            record.tid, msg});
}

void
TaintCheck::onLoadImm(const EventRecord& record, CostSink& cost)
{
    cost.instrs(1);
    if (static_cast<isa::Opcode>(record.opcode) == isa::Opcode::kLi) {
        setRegBit(record.tid, record.rd, false);
    }
    // lih mixes an immediate into rd: taint of rd is unchanged.
}

void
TaintCheck::onMove(const EventRecord& record, CostSink& cost)
{
    cost.instrs(2);
    setRegBit(record.tid, record.rd, regBit(record.tid, record.rs1));
}

void
TaintCheck::onAlu(const EventRecord& record, CostSink& cost)
{
    cost.instrs(4);
    auto op = static_cast<isa::Opcode>(record.opcode);
    bool tainted = regBit(record.tid, record.rs1);
    if (isa::readsRs2(op)) {
        tainted = tainted || regBit(record.tid, record.rs2);
    }
    setRegBit(record.tid, record.rd, tainted);
}

void
TaintCheck::onLoad(const EventRecord& record, CostSink& cost)
{
    cost.instrs(6);
    unsigned bytes = static_cast<unsigned>(record.aux ? record.aux : 1);
    bool tainted = readMemTaint(record.addr, bytes, cost);
    setRegBit(record.tid, record.rd, tainted);
}

void
TaintCheck::onStore(const EventRecord& record, CostSink& cost)
{
    cost.instrs(6);
    unsigned bytes = static_cast<unsigned>(record.aux ? record.aux : 1);
    writeMemTaint(record.addr, bytes, regBit(record.tid, record.rs2),
                  cost);
}

void
TaintCheck::onIndirectTransfer(const EventRecord& record, CostSink& cost)
{
    checkJump(record, record.rs1, cost);
}

void
TaintCheck::onReturn(const EventRecord& record, CostSink& cost)
{
    checkJump(record, isa::kRegLr, cost);
}

void
TaintCheck::onInput(const EventRecord& record, CostSink& cost)
{
    cost.instrs(6);
    writeMemTaint(record.addr, static_cast<unsigned>(record.aux), true,
                  cost);
}

void
TaintCheck::onAlloc(const EventRecord& record, CostSink& cost)
{
    cost.instrs(4);
    if (record.addr != 0 && record.aux != 0) {
        writeMemTaint(record.addr, static_cast<unsigned>(record.aux),
                      false, cost);
    }
}

} // namespace lba::lifeguards
