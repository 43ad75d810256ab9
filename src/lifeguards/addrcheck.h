#pragma once
/**
 * @file
 * AddrCheck lifeguard (paper Section 3, after Nethercote's Valgrind
 * AddrCheck tool): detects accesses to unallocated heap memory, double
 * frees, and memory leaks.
 *
 * Metadata: one validity byte per 8-byte granule (bit per application
 * byte), set by kAlloc annotations and cleared by kFree, plus a live-block
 * table for double-free and leak detection. Only heap-range addresses are
 * checked; stack/global/code accesses are addressable by construction in
 * the simulated process.
 */

#include <unordered_map>
#include <unordered_set>

#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguards {

/** AddrCheck configuration. */
struct AddrCheckConfig
{
    /** Heap range to check. */
    Addr heap_base = 0x10000000;
    std::uint64_t heap_bytes = 64ull << 20;
    /** Simulated base of the validity shadow table. */
    Addr shadow_base = lifeguard::kShadowBase;
    /** Suppress duplicate unallocated-access reports per granule. */
    bool dedupe_reports = true;
};

/** See file comment. */
class AddrCheck : public lifeguard::Lifeguard
{
  public:
    explicit AddrCheck(const AddrCheckConfig& config = {});

    const char* name() const override { return "AddrCheck"; }

    void finish(lifeguard::CostSink& cost) override;

    /** Bytes currently marked allocated (for tests). */
    std::uint64_t liveBytes() const { return live_bytes_; }

  private:
    /** kLoad/kStore handler: heap-range test, then the validity probe. */
    void checkAccess(const log::EventRecord& record,
                     lifeguard::CostSink& cost);

    /** kAlloc handler: mark the block valid, track it as live. */
    void onAlloc(const log::EventRecord& record,
                 lifeguard::CostSink& cost);

    /** kFree handler: clear validity, catch double frees. */
    void onFree(const log::EventRecord& record,
                lifeguard::CostSink& cost);

    /** Mark or clear [base, base+size) validity bits. */
    void markRange(Addr base, std::uint64_t size, bool allocated,
                   lifeguard::CostSink& cost);

    AddrCheckConfig config_;
    /** Bit i of entry(g) set => byte g*8+i is allocated. */
    lifeguard::ShadowMemory<std::uint8_t, 8> valid_;
    /** Live heap blocks: base -> size. */
    std::unordered_map<Addr, std::uint64_t> live_;
    /** Granules already reported (dedupe). */
    std::unordered_set<std::uint64_t> reported_;
    std::uint64_t live_bytes_ = 0;
};

} // namespace lba::lifeguards
