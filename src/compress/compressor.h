#pragma once
/**
 * @file
 * Value-prediction-based log compression (the paper's "compress" /
 * "decompress" engines, adapted from Burtscher's VPC [1]).
 *
 * The encoder and decoder run identical predictor banks; a record
 * whose fields all predict correctly costs only a few flag bits, which is
 * how the paper reaches < 1 byte per instruction. The encoding is exactly
 * invertible: tests assert decompress(compress(trace)) == trace.
 *
 * One grammar, three sinks. LogEncoder<Sink>::append is the record
 * grammar below, written once over a bit sink:
 *  - BitWriter packs the stream (LogCompressor): trace files,
 *    compress::Encoder, the fuzzers and the benches;
 *  - BitCounter only adds up bit counts (LogSizer): the timing model
 *    needs each record's size on the transport, not its bits, so the
 *    pipeline's producer step sizes records with it;
 *  - FieldTally adds them up per field, for compression_ratio's
 *    breakdown.
 * Each append() returns the record's bits, the same for every sink.
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

/** A bit sink that keeps only the number of bits written to it. */
class BitCounter
{
  public:
    void writeBits(std::uint64_t, unsigned count) { bits_ += count; }
    void writeBit(bool) { ++bits_; }
    void writeVarint(std::uint64_t value) { bits_ += varintBits(value); }
    std::uint64_t bitCount() const { return bits_; }

  private:
    std::uint64_t bits_ = 0;
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

/** A bit sink that counts each bit against the record field being
 *  written (the grammar names the field before writing it). */
class FieldTally
{
  public:
    /** Count the following writes against @p field. */
    void field(std::uint64_t FieldBits::*field) { current_ = field; }

    void
    writeBits(std::uint64_t, unsigned count)
    {
        fields_.*current_ += count;
    }
    void writeBit(bool) { ++(fields_.*current_); }
    void
    writeVarint(std::uint64_t value)
    {
        fields_.*current_ += varintBits(value);
    }

    std::uint64_t
    bitCount() const
    {
        return fields_.kind + fields_.tid + fields_.pc + fields_.stat +
               fields_.addr + fields_.ctrl + fields_.annotation;
    }

    const FieldBits& fields() const { return fields_; }

  private:
    FieldBits fields_;
    std::uint64_t FieldBits::*current_ = &FieldBits::kind;
};

/** Streaming encoder: append records to @p Sink through the grammar. */
template <typename Sink>
class LogEncoder
{
  public:
    /**
     * Encode one record onto the sink (instantiated in compressor.cc
     * for BitWriter, BitCounter and FieldTally).
     * @return The record's size in bits.
     */
    std::uint64_t append(const log::EventRecord& record);

    /** Number of records encoded. */
    std::uint64_t records() const { return records_; }

    /** Total output bits so far. */
    std::uint64_t bits() const { return sink_.bitCount(); }

    /** Average encoded size, in bytes per record. */
    double
    bytesPerRecord() const
    {
        return records_ ? static_cast<double>(bits()) / 8.0 /
                              static_cast<double>(records_)
                        : 0.0;
    }

    const Sink& sink() const { return sink_; }

    /** Packed output bytes (final byte may be partial); a
     *  LogCompressor's only. */
    const std::vector<std::uint8_t>& bytes() const { return sink_.bytes(); }

  private:
    PredictorBank bank_;
    Sink sink_;
    std::uint64_t records_ = 0;
};

/** The packing encoder: records in, stream bytes out. */
using LogCompressor = LogEncoder<BitWriter>;

/** The sizing encoder: each record's bits, and no stream. */
using LogSizer = LogEncoder<BitCounter>;

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
     * it charges each record the bits LogSizer::append() counts.)
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
