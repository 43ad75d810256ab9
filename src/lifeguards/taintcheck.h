#pragma once
/**
 * @file
 * TaintCheck lifeguard (paper Section 3, after Newsome & Song): tracks the
 * propagation of untrusted inputs through *all* instructions — the data
 * flow the paper says distinguishes LBA from address-triggered schemes
 * like iWatcher — and reports when tainted data reaches a jump target.
 *
 * Metadata: one taint bit per application byte (a byte-mask per 8-byte
 * granule) plus a per-thread register-taint bitmask. kInput annotations
 * (SYS_READ) are the taint source; ALU/move/load/store handlers propagate;
 * indirect jumps/calls and returns check.
 */

#include <unordered_set>
#include <vector>

#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguards {

/** TaintCheck configuration. */
struct TaintCheckConfig
{
    /** Simulated base of the taint shadow table. */
    Addr shadow_base = lifeguard::kShadowBase + 0x800000000ull;
    /** Suppress duplicate tainted-jump reports per pc. */
    bool dedupe_reports = true;
};

/** See file comment. */
class TaintCheck : public lifeguard::Lifeguard
{
  public:
    explicit TaintCheck(const TaintCheckConfig& config = {});

    const char* name() const override { return "TaintCheck"; }

    /** True when register @p reg of thread @p tid is tainted (tests). */
    bool regTainted(ThreadId tid, RegIndex reg) const;

    /** True when any byte of [addr, addr+bytes) is tainted (tests). */
    bool memTainted(Addr addr, unsigned bytes) const;

  private:
    // Handlers (registered in the constructor).
    void onLoadImm(const log::EventRecord& record,
                   lifeguard::CostSink& cost);
    void onMove(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onAlu(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onLoad(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onStore(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onIndirectTransfer(const log::EventRecord& record,
                            lifeguard::CostSink& cost);
    void onReturn(const log::EventRecord& record,
                  lifeguard::CostSink& cost);
    void onInput(const log::EventRecord& record, lifeguard::CostSink& cost);
    void onAlloc(const log::EventRecord& record, lifeguard::CostSink& cost);

    /** Tainted-jump check shared by the control-transfer handlers. */
    void checkJump(const log::EventRecord& record, RegIndex source_reg,
                   lifeguard::CostSink& cost);

    /** Taint mask covering [addr, addr+bytes) (read path). */
    bool readMemTaint(Addr addr, unsigned bytes, lifeguard::CostSink& cost);

    /** Set/clear taint over [addr, addr+bytes) (write path). */
    void writeMemTaint(Addr addr, unsigned bytes, bool tainted,
                       lifeguard::CostSink& cost);

    /** Register-taint bit accessors (host-side state, no cost). */
    bool regBit(ThreadId tid, RegIndex reg) const;
    void setRegBit(ThreadId tid, RegIndex reg, bool tainted);

    TaintCheckConfig config_;
    /** Bit i of entry(g) set => byte g*8+i is tainted. */
    lifeguard::ShadowMemory<std::uint8_t, 8> taint_;
    /**
     * Register taint bitmask per thread (bit per register), indexed by
     * ThreadId: thread ids are dense from 0. A thread past the end has
     * no tainted register.
     */
    std::vector<std::uint32_t> reg_taint_;
    /** pcs already reported (dedupe). */
    std::unordered_set<Addr> reported_;
};

} // namespace lba::lifeguards
