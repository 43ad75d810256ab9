/**
 * @file
 * Log encoder / decoder implementation.
 *
 * Invariant: the decoder records each field into its bank with the
 * same PredictorBank / PcEntry calls, in the same order, as the
 * encoder's grammar, keeping the two banks bit-for-bit in sync.
 */

#include "compress/compressor.h"

#include <type_traits>

#include "common/assert.h"
#include "compress/codec.h"

namespace lba::compress {

using log::EventRecord;
using log::EventType;

namespace {

/** True when the class carries a load/store effective address. */
bool
hasMemPayload(isa::InstrClass cls)
{
    return cls == isa::InstrClass::kLoad || cls == isa::InstrClass::kStore;
}

/** True when the class carries a control-transfer payload. */
bool
hasCtrlPayload(isa::InstrClass cls)
{
    switch (cls) {
      case isa::InstrClass::kBranch:
      case isa::InstrClass::kJump:
      case isa::InstrClass::kIndirectJump:
      case isa::InstrClass::kCall:
      case isa::InstrClass::kIndirectCall:
      case isa::InstrClass::kReturn:
        return true;
      default:
        return false;
    }
}

/** Name the field the next writes belong to; only FieldTally counts
 *  bits by field. */
template <typename Sink>
void
markField(Sink& sink, std::uint64_t FieldBits::*field)
{
    if constexpr (std::is_same_v<Sink, FieldTally>) sink.field(field);
}

} // namespace

template <typename Sink>
std::uint64_t
LogEncoder<Sink>::append(const EventRecord& record)
{
    ++records_;
    const std::uint64_t start = sink_.bitCount();

    markField(sink_, &FieldBits::kind);
    bool annotation = log::isAnnotation(record.type);
    sink_.writeBit(annotation);

    // Thread id.
    markField(sink_, &FieldBits::tid);
    if (bank_.tid_seen && record.tid == bank_.last_tid) {
        sink_.writeBit(true);
    } else {
        sink_.writeBit(false);
        sink_.writeBits(record.tid, 16);
    }
    bank_.last_tid = record.tid;
    bank_.tid_seen = true;

    if (annotation) {
        markField(sink_, &FieldBits::annotation);
        unsigned type_index =
            static_cast<unsigned>(record.type) -
            static_cast<unsigned>(EventType::kAlloc);
        LBA_ASSERT(type_index < 8, "bad annotation type");
        sink_.writeBits(type_index, 3);
        auto& last = bank_.annotation[type_index];
        sink_.writeVarint(zigzagDelta(record.addr, last.addr));
        sink_.writeVarint(zigzagDelta(record.aux, last.aux));
        last.addr = record.addr;
        last.aux = record.aux;
        return sink_.bitCount() - start;
    }

    // Program counter.
    markField(sink_, &FieldBits::pc);
    Addr base = 0;
    switch (bank_.recordPc(record.tid, record.pc, &base)) {
      case PcSource::kSequential:
        sink_.writeBit(false);
        break;
      case PcSource::kContext:
        sink_.writeBit(true);
        sink_.writeBit(false);
        break;
      case PcSource::kMiss:
        sink_.writeBit(true);
        sink_.writeBit(true);
        sink_.writeVarint(zigzagDelta(record.pc, base));
        break;
    }

    // Static instruction fields.
    markField(sink_, &FieldBits::stat);
    PcEntry& entry = bank_.entry(record.pc);
    if (entry.recordStatic(
            {record.opcode, record.rd, record.rs1, record.rs2})) {
        sink_.writeBit(true);
    } else {
        sink_.writeBit(false);
        sink_.writeBits(record.opcode, 6);
        sink_.writeBits(record.rd, 5);
        sink_.writeBits(record.rs1, 5);
        sink_.writeBits(record.rs2, 5);
    }

    auto cls = isa::classOf(static_cast<isa::Opcode>(record.opcode));
    if (hasMemPayload(cls)) {
        markField(sink_, &FieldBits::addr);
        switch (entry.recordAddr(record.addr, &base)) {
          case AddrSource::kStride:
            sink_.writeBit(false);
            break;
          case AddrSource::kLast:
            sink_.writeBit(true);
            sink_.writeBit(false);
            break;
          case AddrSource::kMiss:
            sink_.writeBit(true);
            sink_.writeBit(true);
            sink_.writeVarint(zigzagDelta(record.addr, base));
            break;
        }
    } else if (hasCtrlPayload(cls)) {
        markField(sink_, &FieldBits::ctrl);
        bool taken = record.aux != 0;
        sink_.writeBit(taken);
        if (taken) {
            if (entry.recordTarget(record.addr)) {
                sink_.writeBit(true);
            } else {
                sink_.writeBit(false);
                sink_.writeVarint(zigzagDelta(record.addr, record.pc));
            }
        }
    }
    return sink_.bitCount() - start;
}

template std::uint64_t LogEncoder<BitWriter>::append(const EventRecord&);
template std::uint64_t LogEncoder<BitCounter>::append(const EventRecord&);
template std::uint64_t LogEncoder<FieldTally>::append(const EventRecord&);

EventRecord
LogDecompressor::next()
{
    EventRecord record;
    DecodeError error;
    DecodeStatus status = tryNext(&record, &error);
    LBA_ASSERT(status == DecodeStatus::kOk,
               "corrupt record in trusted log stream");
    return record;
}

/**
 * Map one checked read's result onto the record decode: break on
 * success, roll back and ask for more input on underrun, fail typed
 * on a malformed encoding. Local to tryNext (undefined right after).
 */
#define LBA_TRY_READ(expr, what)                                            \
    switch (expr) {                                                         \
      case BitsResult::kOk:                                                 \
        break;                                                              \
      case BitsResult::kUnderrun:                                           \
        return needMore();                                                  \
      case BitsResult::kMalformed:                                          \
        return fail(what);                                                  \
    }

DecodeStatus
LogDecompressor::tryNext(EventRecord* out, DecodeError* error)
{
    const std::uint64_t start = reader_.bitPos();
    auto needMore = [&] {
        reader_.seekBit(start);
        return DecodeStatus::kNeedMore;
    };
    auto fail = [&](const char* message) {
        if (error) {
            *error = DecodeError::make(DecodeErrorKind::kMalformed,
                                       reader_.bitPos() / 8, message);
        }
        reader_.seekBit(start);
        return DecodeStatus::kError;
    };

    // Phase 1: read and validate every field against the *current*
    // predictor bank. No bank mutation happens here, so any exit —
    // kNeedMore or kError — leaves the decoder exactly as it was.
    EventRecord record;
    bool annotation = false;
    LBA_TRY_READ(reader_.tryReadBit(&annotation), "kind bit");

    bool tid_hit = false;
    LBA_TRY_READ(reader_.tryReadBit(&tid_hit), "tid flag");
    if (tid_hit) {
        if (!bank_.tid_seen) {
            return fail("tid hit before any tid literal");
        }
        record.tid = bank_.last_tid;
    } else {
        std::uint64_t tid = 0;
        LBA_TRY_READ(reader_.tryReadBits(16, &tid), "tid literal");
        record.tid = static_cast<ThreadId>(tid);
    }

    if (annotation) {
        std::uint64_t type_index = 0;
        LBA_TRY_READ(reader_.tryReadBits(3, &type_index),
                     "annotation type");
        record.type = static_cast<EventType>(
            static_cast<unsigned>(EventType::kAlloc) +
            static_cast<unsigned>(type_index));
        std::uint64_t addr_delta = 0;
        std::uint64_t aux_delta = 0;
        LBA_TRY_READ(reader_.tryReadVarint(&addr_delta),
                     "annotation addr varint");
        LBA_TRY_READ(reader_.tryReadVarint(&aux_delta),
                     "annotation aux varint");
        auto& last = bank_.annotation[type_index];
        record.addr = zigzagApply(last.addr, addr_delta);
        record.aux = zigzagApply(last.aux, aux_delta);

        // Phase 2 (annotation): commit.
        last.addr = record.addr;
        last.aux = record.aux;
        bank_.last_tid = record.tid;
        bank_.tid_seen = true;
        *out = record;
        return DecodeStatus::kOk;
    }

    // Program counter.
    bool pc_nonseq = false;
    LBA_TRY_READ(reader_.tryReadBit(&pc_nonseq), "pc flag");
    if (!pc_nonseq) {
        if (!bank_.tryResolvePc(record.tid, PcSource::kSequential,
                                &record.pc)) {
            return fail("sequential pc hit without predictor state");
        }
    } else {
        bool pc_miss = false;
        LBA_TRY_READ(reader_.tryReadBit(&pc_miss), "pc flag");
        if (!pc_miss) {
            if (!bank_.tryResolvePc(record.tid, PcSource::kContext,
                                    &record.pc)) {
                return fail("context pc hit without predictor state");
            }
        } else {
            std::uint64_t delta = 0;
            LBA_TRY_READ(reader_.tryReadVarint(&delta),
                         "pc delta varint");
            record.pc = zigzagApply(bank_.pcMissBase(record.tid), delta);
        }
    }

    // Static instruction fields. Phase 1 records nothing, so the
    // entry stays valid until the commit.
    const PcEntry* entry = bank_.find(record.pc);
    bool stat_hit = false;
    LBA_TRY_READ(reader_.tryReadBit(&stat_hit), "static flag");
    if (stat_hit) {
        if (entry == nullptr || !entry->has_static) {
            return fail("static hit for unseen pc");
        }
        record.opcode = entry->stat.opcode;
        record.rd = entry->stat.rd;
        record.rs1 = entry->stat.rs1;
        record.rs2 = entry->stat.rs2;
    } else {
        std::uint64_t opcode = 0, rd = 0, rs1 = 0, rs2 = 0;
        LBA_TRY_READ(reader_.tryReadBits(6, &opcode), "opcode literal");
        LBA_TRY_READ(reader_.tryReadBits(5, &rd), "rd literal");
        LBA_TRY_READ(reader_.tryReadBits(5, &rs1), "rs1 literal");
        LBA_TRY_READ(reader_.tryReadBits(5, &rs2), "rs2 literal");
        // The 6-bit field can carry values past the opcode table;
        // classOf() on one of those is library-abort territory, so an
        // untrusted stream must be stopped here.
        if (opcode >=
            static_cast<std::uint64_t>(isa::Opcode::kNumOpcodes)) {
            return fail("opcode literal out of range");
        }
        record.opcode = static_cast<std::uint8_t>(opcode);
        record.rd = static_cast<std::uint8_t>(rd);
        record.rs1 = static_cast<std::uint8_t>(rs1);
        record.rs2 = static_cast<std::uint8_t>(rs2);
    }

    auto op = static_cast<isa::Opcode>(record.opcode);
    auto cls = isa::classOf(op);
    record.type = log::eventTypeOf(cls);

    bool mem_update = false;
    bool ctrl_update = false;
    if (hasMemPayload(cls)) {
        bool addr_nonstride = false;
        LBA_TRY_READ(reader_.tryReadBit(&addr_nonstride), "addr flag");
        if (!addr_nonstride) {
            if (entry == nullptr ||
                !entry->tryResolveAddr(AddrSource::kStride,
                                       &record.addr)) {
                return fail("stride hit without predictor state");
            }
        } else {
            bool addr_miss = false;
            LBA_TRY_READ(reader_.tryReadBit(&addr_miss), "addr flag");
            if (!addr_miss) {
                if (entry == nullptr ||
                    !entry->tryResolveAddr(AddrSource::kLast,
                                           &record.addr)) {
                    return fail("last-addr hit without predictor state");
                }
            } else {
                std::uint64_t delta = 0;
                LBA_TRY_READ(reader_.tryReadVarint(&delta),
                             "addr delta varint");
                record.addr = zigzagApply(
                    entry == nullptr ? 0 : entry->last_addr, delta);
            }
        }
        mem_update = true;
        record.aux = isa::memAccessBytes(op);
    } else if (hasCtrlPayload(cls)) {
        bool taken = false;
        LBA_TRY_READ(reader_.tryReadBit(&taken), "taken flag");
        if (taken) {
            record.aux = 1;
            bool target_hit = false;
            LBA_TRY_READ(reader_.tryReadBit(&target_hit),
                         "target flag");
            if (target_hit) {
                // Total: a target never recorded reads 0, which is
                // what a conforming encoder would have compared with.
                record.addr = entry == nullptr ? 0 : entry->target;
            } else {
                std::uint64_t delta = 0;
                LBA_TRY_READ(reader_.tryReadVarint(&delta),
                             "target delta varint");
                record.addr = zigzagApply(record.pc, delta);
            }
            ctrl_update = true;
        }
    }

    // Phase 2: every read succeeded — commit the bank updates in one
    // block, with the calls LogEncoder::append() makes, in its order
    // (the predictor sync invariant).
    bank_.last_tid = record.tid;
    bank_.tid_seen = true;
    Addr unused = 0;
    bank_.recordPc(record.tid, record.pc, &unused);
    PcEntry& committed = bank_.entry(record.pc);
    committed.recordStatic(
        {record.opcode, record.rd, record.rs1, record.rs2});
    if (mem_update) committed.recordAddr(record.addr, &unused);
    if (ctrl_update) committed.recordTarget(record.addr);
    *out = record;
    return DecodeStatus::kOk;
}

#undef LBA_TRY_READ

} // namespace lba::compress
