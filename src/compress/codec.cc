/**
 * @file
 * The streaming encoder/decoder over the predictor compressor, and
 * error-kind rendering.
 */

#include "compress/codec.h"

#include <cstring>

#include "common/assert.h"

namespace lba::compress {

const char*
decodeErrorKindName(DecodeErrorKind kind)
{
    switch (kind) {
      case DecodeErrorKind::kNone:
        return "ok";
      case DecodeErrorKind::kTruncated:
        return "truncated";
      case DecodeErrorKind::kMalformed:
        return "malformed";
      case DecodeErrorKind::kLimitExceeded:
        return "limit-exceeded";
      case DecodeErrorKind::kUnsupported:
        return "unsupported";
      case DecodeErrorKind::kIo:
        return "io";
    }
    return "unknown";
}

std::string
DecodeError::toString() const
{
    if (ok()) return "ok";
    return std::string(decodeErrorKindName(kind)) + " @" +
           std::to_string(offset) + ": " + message;
}

std::size_t
Encoder::pullableBytes() const
{
    // Bit-packed stream: the trailing partial byte can still change
    // until the stream is sealed, so only complete bytes are final.
    std::size_t final_bytes =
        finished_ ? inner_.bytes().size()
                  : static_cast<std::size_t>(inner_.bits() / 8);
    return final_bytes - pulled_;
}

std::size_t
Encoder::pull(std::uint8_t* out, std::size_t max)
{
    std::size_t n = pullableBytes();
    if (n > max) n = max;
    if (n == 0) return 0;
    std::memcpy(out, inner_.bytes().data() + pulled_, n);
    pulled_ += n;
    return n;
}

void
Decoder::push(const std::uint8_t* data, std::size_t n)
{
    LBA_ASSERT(!input_done_, "push after finishInput");
    buffer_.insert(buffer_.end(), data, data + n);
}

DecodeStatus
Decoder::next(log::EventRecord* out)
{
    if (!error_.ok()) return DecodeStatus::kError;
    DecodeStatus status = inner_.tryNext(out, &error_);
    if (status == DecodeStatus::kOk) {
        ++records_;
        return status;
    }
    if (status == DecodeStatus::kError) return status;
    // kNeedMore, rolled back to the record boundary.
    if (!input_done_) return DecodeStatus::kNeedMore;
    if (inner_.bitsAvailable() < 8) {
        // Only sub-byte padding remains: a clean end. (The bit-packed
        // grammar has no terminator, so up to 7 trailing bits are
        // indistinguishable from padding; callers that know the
        // record count stop before ever looking at them.)
        return DecodeStatus::kEnd;
    }
    error_ = DecodeError::make(DecodeErrorKind::kTruncated,
                               inner_.bitPos() / 8,
                               "input ends mid-record");
    return DecodeStatus::kError;
}

} // namespace lba::compress
