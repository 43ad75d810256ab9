#pragma once
/**
 * @file
 * Value-prediction-based log compression (the paper's "compress" /
 * "decompress" engines, adapted from Burtscher's VPC [1]).
 *
 * The compressor and decompressor run identical predictor banks; a record
 * whose fields all predict correctly costs only a few flag bits, which is
 * how the paper reaches < 1 byte per instruction. The encoding is exactly
 * invertible: tests assert decompress(compress(trace)) == trace.
 *
 * Stream grammar per record (bit-granular, LSB-first):
 *   kind      : 1 bit   (0 = instruction event, 1 = annotation event)
 *   tid       : 1 bit hit, or 0-bit + 16-bit literal
 *  instruction events:
 *   pc        : '0' sequential hit | '10' context hit
 *               | '11' + varint(zigzag(pc - base))
 *   static    : '1' hit | '0' + opcode(6) rd(5) rs1(5) rs2(5)
 *   payload (derived from opcode class):
 *     load/store   : '0' stride hit | '10' last hit
 *                    | '11' + varint(zigzag(addr - base))
 *     control      : taken(1); if taken:
 *                    '1' target hit | '0' + varint(zigzag(target - pc))
 *     other        : (nothing)
 *  annotation events:
 *   type      : 3 bits
 *   addr, aux : varint(zigzag(delta vs per-type last value))
 */

#include <cstdint>
#include <vector>

#include "compress/bitstream.h"
#include "compress/predictors.h"
#include "log/event.h"

namespace lba::compress {

// The typed decode results of LogDecompressor::tryNext
// (compress/codec.h).
enum class DecodeStatus : std::uint8_t;
struct DecodeError;

/** Predictor state shared (by construction) between the two ends. */
struct PredictorBank
{
    PcPredictor pc;
    StaticPredictor stat;
    StridePredictor mem_addr;
    TargetPredictor ctrl_target;

    /** Per-annotation-type last payload values. */
    struct AnnotationLast
    {
        Addr addr = 0;
        std::uint64_t aux = 0;
    };
    AnnotationLast annotation[8];

    ThreadId last_tid = 0;
    bool tid_seen = false;
};

/** Per-field bit accounting for the compression-breakdown benchmark. */
struct FieldBits
{
    std::uint64_t kind = 0;
    std::uint64_t tid = 0;
    std::uint64_t pc = 0;
    std::uint64_t stat = 0;
    std::uint64_t addr = 0;
    std::uint64_t ctrl = 0;
    std::uint64_t annotation = 0;
};

/** Streaming compressor: append records, read back the packed bytes. */
class LogCompressor
{
  public:
    /** Compress one record onto the output stream. */
    void append(const log::EventRecord& record);

    /** Number of records compressed. */
    std::uint64_t records() const { return records_; }

    /** Total output bits so far. */
    std::uint64_t bits() const { return writer_.bitCount(); }

    /** Average compressed size, in bytes per record. */
    double
    bytesPerRecord() const
    {
        return records_ ? static_cast<double>(bits()) / 8.0 /
                              static_cast<double>(records_)
                        : 0.0;
    }

    /** Packed output bytes (final byte may be partial). */
    const std::vector<std::uint8_t>& bytes() const
    {
        return writer_.bytes();
    }

    /** Per-field bit breakdown. */
    const FieldBits& fieldBits() const { return field_bits_; }

  private:
    PredictorBank bank_;
    BitWriter writer_;
    std::uint64_t records_ = 0;
    FieldBits field_bits_;
};

/** Streaming decompressor over a packed byte buffer. */
class LogDecompressor
{
  public:
    /**
     * @param bytes Buffer produced by LogCompressor. The caller must know
     *              the record count (the stream has no terminator). The
     *              vector may grow between next()/tryNext() calls
     *              (streaming push); it must not shrink.
     */
    explicit LogDecompressor(const std::vector<std::uint8_t>& bytes)
        : reader_(bytes)
    {
    }

    /**
     * Decode the next record from a *trusted* stream (panics on a
     * stream this compressor cannot have produced). Only tests and
     * micro-benchmarks decode streams they encoded themselves this
     * way; anything that touches bytes from outside the process goes
     * through tryNext(). (The transport accounting decodes nothing:
     * it charges LogCompressor::bits() per record.)
     */
    log::EventRecord next();

    /**
     * Hardened decode for untrusted streams. Never aborts and never
     * half-applies: predictor-bank updates commit only after every
     * field of the record has been read and validated.
     *
     * @return kOk with *out filled; kNeedMore when the buffered bytes
     *         end mid-record (the read position rolls back to the
     *         record boundary, so the caller can push more bytes and
     *         retry); kError with *error filled when the stream is
     *         structurally invalid — an impossible predictor hit, an
     *         out-of-range opcode literal, or an overlong varint.
     */
    DecodeStatus tryNext(log::EventRecord* out, DecodeError* error);

    /** Bits consumed so far (clean-end detection in the Decoder). */
    std::uint64_t bitPos() const { return reader_.bitPos(); }

    /** Bits currently buffered beyond the read position. */
    std::uint64_t bitsAvailable() const
    {
        return reader_.bitsAvailable();
    }

  private:
    PredictorBank bank_;
    BitReader reader_;
};

} // namespace lba::compress
