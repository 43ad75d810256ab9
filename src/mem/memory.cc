/**
 * @file
 * Sparse memory implementation.
 */

#include "mem/memory.h"

#include <bit>
#include <cstring>

#include "common/assert.h"

namespace lba::mem {

namespace {

constexpr Addr kOffsetMask = Memory::kPageBytes - 1;

} // namespace

const std::uint8_t*
Memory::findPage(Addr addr) const
{
    Addr page = addr >> kPageShift;
    if (page == memo_page_) return memo_data_;
    auto it = pages_.find(page);
    if (it == pages_.end()) return nullptr;
    memo_page_ = page;
    memo_data_ = it->second.get();
    return memo_data_;
}

std::uint8_t*
Memory::touchPage(Addr addr)
{
    Addr page = addr >> kPageShift;
    if (page == memo_page_) return memo_data_;
    Page& data = pages_[page];
    if (!data) {
        data = std::make_unique<std::uint8_t[]>(kPageBytes);
        std::memset(data.get(), 0, kPageBytes);
    }
    memo_page_ = page;
    memo_data_ = data.get();
    return memo_data_;
}

template <typename Word>
Word
Memory::readWord(Addr addr) const
{
    Word value = 0;
    Addr offset = addr & kOffsetMask;
    if (offset + sizeof(Word) <= kPageBytes) {
        const std::uint8_t* page = findPage(addr);
        if (page == nullptr) return 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&value, page + offset, sizeof(Word));
        } else {
            for (unsigned b = 0; b < sizeof(Word); ++b) {
                value |= static_cast<Word>(page[offset + b]) << (8 * b);
            }
        }
        return value;
    }
    // Page-straddling access: byte by byte.
    for (unsigned b = 0; b < sizeof(Word); ++b) {
        value |= static_cast<Word>(read8(addr + b)) << (8 * b);
    }
    return value;
}

template <typename Word>
void
Memory::writeWord(Addr addr, Word value)
{
    Addr offset = addr & kOffsetMask;
    if (offset + sizeof(Word) <= kPageBytes) {
        std::uint8_t* page = touchPage(addr);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(page + offset, &value, sizeof(Word));
        } else {
            for (unsigned b = 0; b < sizeof(Word); ++b) {
                page[offset + b] = static_cast<std::uint8_t>(value >> (8 * b));
            }
        }
        return;
    }
    for (unsigned b = 0; b < sizeof(Word); ++b) {
        write8(addr + b, static_cast<std::uint8_t>(value >> (8 * b)));
    }
}

std::uint8_t
Memory::read8(Addr addr) const
{
    const std::uint8_t* page = findPage(addr);
    return page ? page[addr & kOffsetMask] : 0;
}

void
Memory::write8(Addr addr, std::uint8_t value)
{
    touchPage(addr)[addr & kOffsetMask] = value;
}

std::uint32_t
Memory::read32(Addr addr) const
{
    return readWord<std::uint32_t>(addr);
}

std::uint64_t
Memory::read64(Addr addr) const
{
    return readWord<std::uint64_t>(addr);
}

void
Memory::write32(Addr addr, std::uint32_t value)
{
    writeWord(addr, value);
}

void
Memory::write64(Addr addr, std::uint64_t value)
{
    writeWord(addr, value);
}

std::uint64_t
Memory::readValue(Addr addr, unsigned bytes) const
{
    switch (bytes) {
      case 1: return read8(addr);
      case 4: return read32(addr);
      case 8: return read64(addr);
      default: LBA_ASSERT(false, "unsupported access width");
    }
}

void
Memory::writeValue(Addr addr, std::uint64_t value, unsigned bytes)
{
    switch (bytes) {
      case 1:
        write8(addr, static_cast<std::uint8_t>(value));
        break;
      case 4:
        write32(addr, static_cast<std::uint32_t>(value));
        break;
      case 8:
        write64(addr, value);
        break;
      default:
        LBA_ASSERT(false, "unsupported access width");
    }
}

void
Memory::writeBytes(Addr addr, const std::uint8_t* data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        write8(addr + i, data[i]);
    }
}

} // namespace lba::mem
