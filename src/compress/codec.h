#pragma once
/**
 * @file
 * The log codec: the value-prediction compressor (LogCompressor /
 * LogDecompressor, compress/compressor.h) behind a streaming
 * Encoder/Decoder pair, plus the typed error model for decoding
 * untrusted input. It is the codec the paper's < 1 byte/instruction
 * claim is about; the only alternative on the transport is no codec
 * at all (LbaConfig::compress = false, raw_record_bytes per record).
 *
 * Streaming contract. The encoder is push-record / pull-bytes:
 *
 *   encoder.append(record);                  // any number of times
 *   n = encoder.pull(buf, max);              // drain finalized bytes
 *   encoder.finishStream();                  // seal (flush partial byte)
 *
 * pull() may be called at any point, so a transport can ship
 * partially-encoded streams without waiting for the end of the run;
 * bytes become pullable as soon as they can no longer change
 * (everything but the trailing partial byte).
 *
 * The decoder is push-bytes / pull-records, built for *untrusted*
 * input:
 *
 *   decoder.push(chunk, n);                  // any chunking, any time
 *   switch (decoder.next(&record)) { ... }   // kOk | kNeedMore | ...
 *   decoder.finishInput();                   // no more bytes will come
 *
 * next() never aborts, never reads out of bounds, and never returns a
 * half-applied record: a record that cannot be completed from the
 * buffered bytes rolls the stream position back and returns kNeedMore
 * (kError{kTruncated} once finishInput() was called), leaving the
 * decoder state exactly as before the attempt. Malformed input —
 * impossible predictor hits, out-of-range literals, overlong varints —
 * yields a sticky kError with a typed DecodeError, not UB and not a
 * panic. fuzz/ drives both ends through these paths.
 *
 * The encoder round-trips *capture-shaped* streams: records as the
 * capture hardware emits them, whose derived fields are canonical
 * (compress/record_gen.h). That is every stream the pipeline feeds it.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "log/event.h"

namespace lba::compress {

/** The codec's name: the trace-file header field and lba_run's
 *  report. */
inline constexpr const char* kCodecName = "predictor";

/** Why a decode failed (the typed, recoverable error model). */
enum class DecodeErrorKind : std::uint8_t
{
    kNone = 0,
    /** Input ended in the middle of a record. */
    kTruncated,
    /** Structurally invalid input (bad literal, impossible flag). */
    kMalformed,
    /** Well-formed input demanding absurd resources (length bombs). */
    kLimitExceeded,
    /** Unknown codec / version / container field. */
    kUnsupported,
    /** Underlying file or stream I/O failure. */
    kIo,
};

/** Printable name of a DecodeErrorKind. */
const char* decodeErrorKindName(DecodeErrorKind kind);

/** A typed decode error: what went wrong, where, and a human message. */
struct DecodeError
{
    DecodeErrorKind kind = DecodeErrorKind::kNone;
    /** Byte offset into the encoded stream (best effort). */
    std::uint64_t offset = 0;
    std::string message;

    bool ok() const { return kind == DecodeErrorKind::kNone; }

    /** "kind @offset: message" for logs and CLI output. */
    std::string toString() const;

    static DecodeError
    make(DecodeErrorKind kind, std::uint64_t offset, std::string message)
    {
        return DecodeError{kind, offset, std::move(message)};
    }
};

/** Result of one Decoder::next() pull. */
enum class DecodeStatus : std::uint8_t
{
    /** A record was decoded into *out. */
    kOk = 0,
    /** Clean end of stream (only sub-record padding bits remain). */
    kEnd,
    /** The buffered input does not contain a complete record yet. */
    kNeedMore,
    /** Decoding failed; see Decoder::error(). Sticky. */
    kError,
};

/**
 * Streaming encoder over LogCompressor: push records, pull finalized
 * bytes. Deterministic — identical record streams yield identical
 * bytes.
 */
class Encoder
{
  public:
    /** Compress one record onto the stream. */
    void append(const log::EventRecord& record) { inner_.append(record); }

    /**
     * Seal the stream: flush any partial trailing byte so every encoded
     * byte becomes pullable. No append() after this.
     */
    void finishStream() { finished_ = true; }

    /** Records compressed so far. */
    std::uint64_t records() const { return inner_.records(); }

    /** Total encoded size so far, in bits. */
    std::uint64_t bitsWritten() const { return inner_.bits(); }

    /**
     * Copy up to @p max finalized encoded bytes into @p out and
     * advance the pull cursor past them.
     * @return Bytes copied (0 when nothing is finalized yet).
     */
    std::size_t pull(std::uint8_t* out, std::size_t max);

    /** Finalized bytes currently available to pull(). */
    std::size_t pullableBytes() const;

  private:
    LogCompressor inner_;
    /** Bytes already handed out through pull(). */
    std::size_t pulled_ = 0;
    bool finished_ = false;
};

/**
 * Streaming decoder over untrusted bytes, on the hardened
 * LogDecompressor::tryNext: push chunks, pull records. See the file
 * comment for the full contract; in short, next() either succeeds,
 * asks for more input, reports a clean end, or returns a typed error —
 * it never aborts and never leaves a half-applied record or predictor
 * state.
 */
class Decoder
{
  public:
    Decoder() : inner_(buffer_) {}
    // inner_ reads buffer_ by reference.
    Decoder(const Decoder&) = delete;
    Decoder& operator=(const Decoder&) = delete;

    /** Feed @p n more encoded bytes (any chunking, including n = 0). */
    void push(const std::uint8_t* data, std::size_t n);

    /**
     * Declare the input complete: a subsequent mid-record kNeedMore
     * becomes kError{kTruncated}; a record-boundary end becomes kEnd.
     */
    void finishInput() { input_done_ = true; }

    /** Decode the next record. */
    DecodeStatus next(log::EventRecord* out);

    /** The sticky error after a kError result. */
    const DecodeError& error() const { return error_; }

    /** Records decoded so far. */
    std::uint64_t records() const { return records_; }

  private:
    std::vector<std::uint8_t> buffer_;
    LogDecompressor inner_;
    DecodeError error_;
    std::uint64_t records_ = 0;
    bool input_done_ = false;
};

} // namespace lba::compress
