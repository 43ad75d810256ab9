#pragma once
/**
 * @file
 * Sparse functional main memory for the simulated machine.
 *
 * Backing storage is allocated lazily in 4 KiB pages; untouched memory
 * reads as zero. This is the *functional* store — timing is modelled
 * separately by mem/hierarchy.h so the lifeguard platforms can share one
 * functional image while keeping distinct cache behaviour.
 */

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/types.h"

namespace lba::mem {

/** Byte-addressable sparse memory with 64-bit addressing. */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageBytes = 1ull << kPageShift;

    Memory() = default;
    /** A move hands the pages and the page memo over; the source
     *  forgets its memo, which pointed into the moved pages. */
    Memory(Memory&& other) noexcept { *this = std::move(other); }
    Memory&
    operator=(Memory&& other) noexcept
    {
        pages_ = std::move(other.pages_);
        memo_page_ = std::exchange(other.memo_page_, ~Addr{0});
        memo_data_ = std::exchange(other.memo_data_, nullptr);
        return *this;
    }

    /** Read one byte (0 for untouched memory). */
    std::uint8_t read8(Addr addr) const;

    /** Read a little-endian 32-bit word. */
    std::uint32_t read32(Addr addr) const;

    /** Read a little-endian 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /** Write one byte. */
    void write8(Addr addr, std::uint8_t value);

    /** Write a little-endian 32-bit word. */
    void write32(Addr addr, std::uint32_t value);

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /** Read @p size bytes with @p width-agnostic access (1, 4, or 8). */
    std::uint64_t readValue(Addr addr, unsigned bytes) const;

    /** Write the low @p bytes bytes of @p value at @p addr. */
    void writeValue(Addr addr, std::uint64_t value, unsigned bytes);

    /** Copy a byte buffer into memory. */
    void writeBytes(Addr addr, const std::uint8_t* data, std::size_t len);

    /** Number of pages currently materialized (for tests/stats). */
    std::size_t numPages() const { return pages_.size(); }

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;

    /** Find the page containing @p addr, or nullptr if untouched. */
    const std::uint8_t* findPage(Addr addr) const;

    /** Find or create the page containing @p addr. */
    std::uint8_t* touchPage(Addr addr);

    /** Little-endian word read/write of sizeof(Word) bytes. */
    template <typename Word> Word readWord(Addr addr) const;
    template <typename Word> void writeWord(Addr addr, Word value);

    std::unordered_map<Addr, Page> pages_;
    /**
     * Last-page memo: the page number and data of the most recently
     * found or touched page. It cannot go stale: pages are never freed,
     * their arrays never move, and an untouched page is never memoized.
     */
    mutable Addr memo_page_ = ~Addr{0};
    mutable std::uint8_t* memo_data_ = nullptr;
};

} // namespace lba::mem
