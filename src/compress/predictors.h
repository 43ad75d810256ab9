#pragma once
/**
 * @file
 * The value-predictor bank shared by the log encoders and decoder.
 *
 * Following Burtscher's VPC approach [1], each record field has its own
 * predictor; a field that predicts correctly costs one or two flag bits
 * instead of a literal. Encoder and decoder run the same bank, updated
 * in the same order, so no side information is needed.
 *
 * What the bank predicts:
 *  - the pc: per thread, sequential (last pc + 8), else the context
 *    successor (the pc that last followed the previous one
 *    non-sequentially);
 *  - per pc: the static fields (opcode, rd, rs1, rs2), which hit on
 *    every revisited pc; the last effective address and its stride;
 *    the last taken target;
 *  - per annotation type: the last address and size values;
 *  - the thread id: the last one.
 *
 * Everything keyed by pc lives in one PcEntry, so an instruction record
 * makes one table probe, two when its pc does not follow its
 * predecessor's. Each field of the entry has its own seen bit, so a
 * field never recorded answers as if it had a table of its own: a
 * decoder fed a hit the bank cannot back still fails. Each thread's
 * last pc sits in a table of its own, with a memo of the current
 * thread's.
 */

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "isa/isa.h"

namespace lba::compress {

/**
 * Open-addressing hash table with exact 64-bit keys: linear probing over
 * a power-of-two slot array that doubles before it becomes more than
 * half full, so it has no size cap. Entries are never erased. A pointer
 * or reference into the table is valid until the next insertion.
 */
template <typename Value>
class PredictorTable
{
  public:
    /** @return The value stored for @p key, or nullptr. */
    const Value*
    find(std::uint64_t key) const
    {
        if (slots_.empty()) return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            const Slot& slot = slots_[i];
            if (!slot.used) return nullptr;
            if (slot.key == key) return &slot.value;
        }
    }

    Value*
    find(std::uint64_t key)
    {
        return const_cast<Value*>(std::as_const(*this).find(key));
    }

    /** The value for @p key, value-initialized on first use. */
    Value&
    operator[](std::uint64_t key)
    {
        if (2 * (size_ + 1) > slots_.size()) grow();
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            Slot& slot = slots_[i];
            if (!slot.used) {
                slot.used = true;
                slot.key = key;
                ++size_;
                return slot.value;
            }
            if (slot.key == key) return slot.value;
        }
    }

    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        Value value{};
        bool used = false;
    };

    static constexpr std::size_t kInitialSlots = 64;

    std::size_t mask() const { return slots_.size() - 1; }

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
        size_ = 0;
        for (const Slot& slot : old) {
            if (slot.used) (*this)[slot.key] = slot.value;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

/** Static per-pc instruction fields. */
struct StaticInfo
{
    std::uint8_t opcode = 0;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;

    bool operator==(const StaticInfo&) const = default;
};

/** Where a pc prediction came from, in the order they are tried. */
enum class PcSource : std::uint8_t { kSequential, kContext, kMiss };

/** Where an effective-address prediction came from, in that order. */
enum class AddrSource : std::uint8_t { kStride, kLast, kMiss };

/**
 * Everything the bank predicts from one pc. Each record*() call
 * predicts a value and then records it, as the encoder needs; the
 * decoder resolves from a const entry and records once the whole
 * record has been read.
 */
struct PcEntry
{
    /** The pc that last followed this one non-sequentially. */
    Addr next = 0;
    /** Last effective address, and the stride from the one before. */
    Addr last_addr = 0;
    std::int64_t stride = 0;
    /** Last taken target. */
    Addr target = 0;
    StaticInfo stat;
    bool has_next = false;
    bool has_static = false;
    bool has_addr = false;
    bool has_target = false;

    /** @return True when @p info matches the stored static fields;
     *  they become @p info either way. */
    bool
    recordStatic(const StaticInfo& info)
    {
        bool hit = has_static && stat == info;
        stat = info;
        has_static = true;
        return hit;
    }

    /**
     * Predict the effective address @p addr, then record it.
     * @param miss_base Set to the delta base a miss is encoded against.
     */
    AddrSource
    recordAddr(Addr addr, Addr* miss_base)
    {
        AddrSource source = AddrSource::kMiss;
        if (has_addr) {
            if (static_cast<Addr>(last_addr + stride) == addr) {
                source = AddrSource::kStride;
            } else if (last_addr == addr) {
                source = AddrSource::kLast;
            }
            // Wrap-around subtraction: signed subtraction of arbitrary
            // 64-bit addresses overflows; the predictor only ever adds
            // the stride back mod 2^64, so wrapping is exact.
            stride = static_cast<std::int64_t>(addr - last_addr);
        }
        *miss_base = last_addr;
        last_addr = addr;
        has_addr = true;
        return source;
    }

    /**
     * The address a stride or last-address hit names; false when no
     * address was recorded (a well-formed stream never claims that hit,
     * so false means malformed input).
     */
    bool
    tryResolveAddr(AddrSource source, Addr* out) const
    {
        if (!has_addr) return false;
        *out = source == AddrSource::kStride
                   ? static_cast<Addr>(last_addr + stride)
                   : last_addr;
        return true;
    }

    /** @return True when @p taken_target matches the stored target; it
     *  becomes @p taken_target either way. */
    bool
    recordTarget(Addr taken_target)
    {
        bool hit = has_target && target == taken_target;
        target = taken_target;
        has_target = true;
        return hit;
    }
};

/** The predictor state one end of a log stream keeps. */
class PredictorBank
{
  public:
    PredictorBank() = default;
    // The thread memo points into last_pc_: a copy would point into
    // this bank's table. A move keeps the table's storage.
    PredictorBank(const PredictorBank&) = delete;
    PredictorBank& operator=(const PredictorBank&) = delete;
    PredictorBank(PredictorBank&&) = default;
    PredictorBank& operator=(PredictorBank&&) = default;

    /**
     * Predict @p pc as @p tid's next pc, then record it.
     * @param miss_base Set to the delta base a miss is encoded against
     *                  (0 for a thread's first pc).
     */
    PcSource
    recordPc(ThreadId tid, Addr pc, Addr* miss_base)
    {
        Addr* last = lastPc(tid);
        if (last == nullptr) {
            *miss_base = 0;
            last_pc_[tid] = pc;
            return PcSource::kMiss;
        }
        Addr prev = *last;
        *last = pc;
        if (prev + isa::kInstrBytes == pc) return PcSource::kSequential;
        PcEntry& entry = pcs_[prev];
        bool hit = entry.has_next && entry.next == pc;
        entry.next = pc;
        entry.has_next = true;
        *miss_base = prev + isa::kInstrBytes;
        return hit ? PcSource::kContext : PcSource::kMiss;
    }

    /**
     * The pc a sequential or context hit names for @p tid; false when
     * the bank cannot back that hit (no last pc for the thread, or no
     * context successor), which a well-formed stream never claims.
     */
    bool
    tryResolvePc(ThreadId tid, PcSource source, Addr* out)
    {
        const Addr* last = lastPc(tid);
        if (last == nullptr) return false;
        if (source == PcSource::kSequential) {
            *out = *last + isa::kInstrBytes;
            return true;
        }
        const PcEntry* entry = pcs_.find(*last);
        if (entry == nullptr || !entry->has_next) return false;
        *out = entry->next;
        return true;
    }

    /** The delta base of a pc miss for @p tid (see recordPc()). */
    Addr
    pcMissBase(ThreadId tid)
    {
        const Addr* last = lastPc(tid);
        return last == nullptr ? 0 : *last + isa::kInstrBytes;
    }

    /** @p pc's entry, or nullptr when nothing was recorded for it. */
    const PcEntry* find(Addr pc) const { return pcs_.find(pc); }

    /** @p pc's entry, created empty on first use. The reference is
     *  valid until the next recordPc() or entry() call. */
    PcEntry& entry(Addr pc) { return pcs_[pc]; }

    /** Per-annotation-type last payload values. */
    struct AnnotationLast
    {
        Addr addr = 0;
        std::uint64_t aux = 0;
    };
    AnnotationLast annotation[8];

    ThreadId last_tid = 0;
    bool tid_seen = false;

  private:
    /** @p tid's last pc, or nullptr before its first. */
    Addr*
    lastPc(ThreadId tid)
    {
        if (memo_last_ == nullptr || tid != memo_tid_) {
            memo_tid_ = tid;
            memo_last_ = last_pc_.find(tid);
        }
        return memo_last_;
    }

    PredictorTable<PcEntry> pcs_;
    /** tid -> last pc. */
    PredictorTable<Addr> last_pc_;
    /** The thread of the last lastPc() call and its entry in last_pc_.
     *  Only an insertion moves entries, and recordPc() inserts only a
     *  thread whose lastPc() just left the memo null. */
    ThreadId memo_tid_ = 0;
    Addr* memo_last_ = nullptr;
};

} // namespace lba::compress
