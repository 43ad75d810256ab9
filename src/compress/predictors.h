#pragma once
/**
 * @file
 * Value predictors shared by the log compressor and decompressor.
 *
 * Following Burtscher's VPC approach [1], each record field has its own
 * small predictor bank; a field that predicts correctly costs one or two
 * flag bits instead of a literal. Compressor and decompressor run
 * identical predictor state machines so no side information is needed.
 *
 * Predictor inventory:
 *  - PcPredictor:      per-thread sequential (pc+8) and finite-context
 *                      (last pc -> next pc) predictors.
 *  - StaticPredictor:  pc -> (opcode, rd, rs1, rs2); instruction words are
 *                      static, so this hits on every revisited pc.
 *  - StridePredictor:  pc-indexed last-address + stride for load/store
 *                      effective addresses.
 *  - TargetPredictor:  pc-indexed last taken-target for control transfers.
 *  - LastValue:        per-annotation-type last address/size values.
 *
 * The pc- and tid-keyed banks share one flat hash table (PredictorTable).
 */

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
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

/** Sequential + finite-context-method program-counter predictor. */
class PcPredictor
{
  public:
    /** Prediction sources, in the order they are tried. */
    enum class Source : std::uint8_t { kSequential, kContext, kMiss };

    /** Predict the pc of the next record for @p tid. */
    Source
    predict(ThreadId tid, Addr actual) const
    {
        const Addr* last = last_pc_.find(tid);
        if (last == nullptr) {
            return Source::kMiss;
        }
        if (*last + isa::kInstrBytes == actual) {
            return Source::kSequential;
        }
        const Addr* next = context_.find(*last);
        if (next != nullptr && *next == actual) {
            return Source::kContext;
        }
        return Source::kMiss;
    }

    /** Resolve a prediction on the decompressor side. */
    Addr
    resolve(ThreadId tid, Source source) const
    {
        Addr out = 0;
        LBA_ASSERT(tryResolve(tid, source, &out),
                   "pc hit without predictor state");
        return out;
    }

    /**
     * Checked resolve for untrusted streams: false when the stream
     * claims a hit the predictor bank cannot back (no last pc for the
     * thread, or a context hit with no stored successor) — which a
     * well-formed stream never does, so false means malformed input.
     */
    bool
    tryResolve(ThreadId tid, Source source, Addr* out) const
    {
        const Addr* last = last_pc_.find(tid);
        if (last == nullptr) return false;
        if (source == Source::kSequential) {
            *out = *last + isa::kInstrBytes;
            return true;
        }
        // kContext
        const Addr* next = context_.find(*last);
        if (next == nullptr) return false;
        *out = *next;
        return true;
    }

    /** Delta base for encoding a miss (0 when @p tid is unseen). */
    Addr
    missBase(ThreadId tid) const
    {
        const Addr* last = last_pc_.find(tid);
        return last == nullptr ? 0 : *last + isa::kInstrBytes;
    }

    /** Record the actual pc (both sides call this after every record). */
    void
    update(ThreadId tid, Addr actual)
    {
        Addr* last = last_pc_.find(tid);
        if (last == nullptr) {
            last_pc_[tid] = actual;
            return;
        }
        if (*last + isa::kInstrBytes != actual) context_[*last] = actual;
        *last = actual;
    }

  private:
    /** tid -> last pc. */
    PredictorTable<Addr> last_pc_;
    /** pc -> the pc that last followed it non-sequentially. */
    PredictorTable<Addr> context_;
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

/** pc -> static instruction fields (hits after the first visit). */
class StaticPredictor
{
  public:
    /** @return Pointer to the prediction for @p pc, or nullptr. */
    const StaticInfo* predict(Addr pc) const { return table_.find(pc); }

    void update(Addr pc, const StaticInfo& info) { table_[pc] = info; }

  private:
    PredictorTable<StaticInfo> table_;
};

/** pc-indexed last-address + stride predictor for effective addresses. */
class StridePredictor
{
  public:
    enum class Source : std::uint8_t { kStride, kLast, kMiss };

    Source
    predict(Addr pc, Addr actual) const
    {
        const Entry* e = table_.find(pc);
        if (e == nullptr) return Source::kMiss;
        if (static_cast<Addr>(e->last + e->stride) == actual) {
            return Source::kStride;
        }
        if (e->last == actual) return Source::kLast;
        return Source::kMiss;
    }

    /** Prediction value for hit kinds; also the delta base for misses. */
    Addr
    resolve(Addr pc, Source source) const
    {
        Addr out = 0;
        LBA_ASSERT(tryResolve(pc, source, &out),
                   "stride hit without predictor state");
        return out;
    }

    /** Checked resolve: false when @p pc has no entry (see
     *  PcPredictor::tryResolve — false means malformed input). */
    bool
    tryResolve(Addr pc, Source source, Addr* out) const
    {
        const Entry* e = table_.find(pc);
        if (e == nullptr) return false;
        *out = source == Source::kStride
                   ? static_cast<Addr>(e->last + e->stride)
                   : e->last;
        return true;
    }

    /** Base for delta-encoding a miss (0 when pc is unseen). */
    Addr
    missBase(Addr pc) const
    {
        const Entry* e = table_.find(pc);
        return e == nullptr ? 0 : e->last;
    }

    void
    update(Addr pc, Addr actual)
    {
        Entry& e = table_[pc];
        if (e.seen) {
            // Wrap-around subtraction: signed subtraction of arbitrary
            // 64-bit addresses overflows; the predictor only ever adds
            // the stride back mod 2^64, so wrapping is exact.
            e.stride = static_cast<std::int64_t>(actual - e.last);
        }
        e.last = actual;
        e.seen = true;
    }

  private:
    struct Entry
    {
        Addr last = 0;
        std::int64_t stride = 0;
        bool seen = false;
    };

    PredictorTable<Entry> table_;
};

/** pc-indexed last taken-target predictor for control transfers. */
class TargetPredictor
{
  public:
    /** @return True when the stored target for @p pc equals @p actual. */
    bool
    predict(Addr pc, Addr actual) const
    {
        const Addr* target = table_.find(pc);
        return target != nullptr && *target == actual;
    }

    /** Stored target for @p pc (0 when unseen). */
    Addr
    resolve(Addr pc) const
    {
        const Addr* target = table_.find(pc);
        return target == nullptr ? 0 : *target;
    }

    void update(Addr pc, Addr actual) { table_[pc] = actual; }

  private:
    PredictorTable<Addr> table_;
};

} // namespace lba::compress
