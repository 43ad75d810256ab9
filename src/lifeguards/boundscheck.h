#pragma once
/**
 * @file
 * BoundsCheck lifeguard: MTE-style memory tagging (after ARM MTE; see
 * PAPERS.md "ARM MTE Performance in Practice"). Every live heap block
 * is coloured with a 4-bit tag in shadow memory; loads and stores do a
 * single constant-cost tag probe, so the per-access overhead curve sits
 * deliberately *below* AddrCheck's byte-granular validity bits — the
 * comparison bench/fig_mte.cc measures.
 *
 * Metadata: one 4-bit tag per 16-byte granule (a byte-wide shadow
 * entry; tag 0 = untagged/free, tags 1..15 cycle per allocation), plus
 * a live-block table so kFree can retag the whole block (the free
 * record carries no size). A load/store whose granule tag is 0 is a
 * mistag: the pointer refers to memory whose allocation tag was
 * retired (use-after-free / out-of-bounds into untagged space),
 * reported as FindingKind::kTagMismatch. Like real MTE the check is
 * probabilistic across reuse: a freed-then-recoloured granule passes
 * with a stale pointer — BoundsCheck trades that 1-in-16 alias window
 * for a constant-cost check, which is exactly the MTE cost profile the
 * platform wants to contrast with AddrCheck.
 */

#include <unordered_map>
#include <unordered_set>

#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguards {

/** BoundsCheck configuration. */
struct BoundsCheckConfig
{
    /** Heap range to check. */
    Addr heap_base = 0x10000000;
    std::uint64_t heap_bytes = 64ull << 20;
    /** Simulated base of the tag shadow table (distinct per guard). */
    Addr shadow_base = lifeguard::kShadowBase + 0x2000000000ull;
    /** Suppress duplicate mistag reports per granule. */
    bool dedupe_reports = true;
};

/** See file comment. */
class BoundsCheck : public lifeguard::Lifeguard
{
  public:
    explicit BoundsCheck(const BoundsCheckConfig& config = {});

    const char* name() const override { return "BoundsCheck"; }

    /** Tag most recently assigned (for tests; 0 = none yet). */
    std::uint8_t lastTag() const { return next_tag_; }

    /** Bytes currently tagged live (for tests). */
    std::uint64_t liveBytes() const { return live_bytes_; }

  private:
    /** kLoad/kStore handler: heap-range test, then one tag probe. */
    void checkAccess(const log::EventRecord& record,
                     lifeguard::CostSink& cost);

    /** kAlloc handler: colour the block with the next tag. */
    void onAlloc(const log::EventRecord& record,
                 lifeguard::CostSink& cost);

    /** kFree handler: retag the block to 0 (untagged). */
    void onFree(const log::EventRecord& record,
                lifeguard::CostSink& cost);

    /** Colour [base, base+size) granules with @p tag. */
    void colourRange(Addr base, std::uint64_t size, std::uint8_t tag,
                     lifeguard::CostSink& cost);

    BoundsCheckConfig config_;
    /** 4-bit tag per 16-byte granule (byte-wide entries; 0 = free). */
    lifeguard::ShadowMemory<std::uint8_t, 16> tags_;
    /** Live heap blocks: base -> size (free records carry no size). */
    std::unordered_map<Addr, std::uint64_t> live_;
    /** Granules already reported (dedupe). */
    std::unordered_set<std::uint64_t> reported_;
    /** Next allocation colour, cycling 1..15 (0 is reserved = free). */
    std::uint8_t next_tag_ = 0;
    std::uint64_t live_bytes_ = 0;
};

} // namespace lba::lifeguards
