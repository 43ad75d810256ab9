#pragma once
/**
 * @file
 * Paged shadow memory for lifeguard metadata.
 *
 * Lifeguards keep per-address metadata (allocation bits, taint bits,
 * Eraser granule state). Functionally the metadata lives in host pages;
 * for *timing*, every entry has a deterministic simulated address
 * (shadowAddr) that the platform routes through the consuming core's
 * caches, so metadata locality behaves like the real lifeguard's table
 * walks.
 *
 * @tparam Entry        Metadata type per granule (trivially copyable).
 * @tparam GranuleBytes Application bytes covered by one entry.
 */

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.h"

namespace lba::lifeguard {

/** Base of the simulated shadow region (outside application space). */
inline constexpr Addr kShadowBase = 0x4000000000ull;

/**
 * Mask of the bytes of [begin, end) in the 8-byte granule at @p granule
 * (bit i is byte granule + i), for shadows with one bit per application
 * byte. Requires begin <= end, granule < end and begin < granule + 8;
 * only a range's two end granules are partial.
 */
inline std::uint8_t
granuleByteMask(Addr granule, Addr begin, Addr end)
{
    unsigned lo = begin > granule ? static_cast<unsigned>(begin - granule)
                                  : 0;
    unsigned hi = end - granule < 8 ? static_cast<unsigned>(end - granule)
                                    : 8;
    return static_cast<std::uint8_t>((1u << hi) - (1u << lo));
}

template <typename Entry, unsigned GranuleBytes>
class ShadowMemory
{
    static_assert(GranuleBytes > 0 && (GranuleBytes & (GranuleBytes - 1)) == 0,
                  "granule must be a power of two");

  public:
    /** Entries per host page. */
    static constexpr std::size_t kPageEntries = 4096;

    /**
     * @param region_base Simulated base address of this shadow table
     *                    (distinct per lifeguard; see kShadowBase).
     */
    explicit ShadowMemory(Addr region_base = kShadowBase)
        : region_base_(region_base)
    {
    }

    /** Metadata entry covering application address @p app_addr. */
    Entry&
    entry(Addr app_addr)
    {
        std::uint64_t index = granuleIndex(app_addr);
        std::uint64_t page = index / kPageEntries;
        if (page == cached_page_) {
            return cached_data_[index % kPageEntries];
        }
        auto [it, inserted] = pages_.try_emplace(page);
        if (inserted) {
            // make_unique of an array value-initializes every element;
            // no extra clearing pass on the metadata hot path.
            it->second = std::make_unique<Entry[]>(kPageEntries);
        }
        cached_page_ = page;
        cached_data_ = it->second.get();
        return it->second[index % kPageEntries];
    }

    /** Read-only lookup; returns nullptr for untouched granules. */
    const Entry*
    find(Addr app_addr) const
    {
        std::uint64_t index = granuleIndex(app_addr);
        std::uint64_t page = index / kPageEntries;
        if (page == cached_page_) {
            return &cached_data_[index % kPageEntries];
        }
        auto it = pages_.find(page);
        if (it == pages_.end()) return nullptr;
        cached_page_ = page;
        cached_data_ = it->second.get();
        return &it->second[index % kPageEntries];
    }

    /**
     * Simulated address of the entry for @p app_addr, for cache timing.
     */
    Addr
    shadowAddr(Addr app_addr) const
    {
        return region_base_ + granuleIndex(app_addr) * sizeof(Entry);
    }

    /** Number of granules per entry, in application bytes. */
    static constexpr unsigned granuleBytes() { return GranuleBytes; }

    /** Number of host pages materialized. */
    std::size_t numPages() const { return pages_.size(); }

  private:
    static std::uint64_t
    granuleIndex(Addr app_addr)
    {
        return app_addr / GranuleBytes;
    }

    Addr region_base_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Entry[]>> pages_;
    /** Last-page memo: shadow accesses are highly local, so most
     *  lookups skip the hash table entirely. Page arrays never move
     *  once materialized (unique_ptr), so the memo cannot dangle. */
    mutable std::uint64_t cached_page_ = ~0ull;
    mutable Entry* cached_data_ = nullptr;
};

} // namespace lba::lifeguard
