#pragma once
/**
 * @file
 * On-disk event-trace files.
 *
 * The paper's own methodology (Section 3) used exactly this split: "we
 * developed a trace generation tool to produce log record traces from
 * applications, and a Simics extension module to read the log traces
 * and perform event-driven lifeguard executions". These helpers store a
 * captured event stream in its compressed form so traces can be
 * generated once and replayed into lifeguards many times (tools/
 * lba_trace and tools/lba_run).
 *
 * Format v2 (little-endian):
 *   bytes 0..7    magic "LBATRACE"
 *   bytes 8..11   format version (2)
 *   bytes 12..19  record count
 *   bytes 20..27  payload byte count
 *   byte  28      codec name length L (1..64)
 *   bytes 29..    codec name (L bytes, printable ASCII, no NUL)
 *   then          encoder output (payload byte count bytes, exactly)
 * The writer always names kCodecName ("predictor"); a reader meeting
 * any other name fails with kUnsupported. Version-1 files (no codec
 * field, payload at byte 28) still read; they are always predictor
 * streams.
 *
 * Trace files are *untrusted input*: every length is validated against
 * the actual file size before any allocation, the record count is
 * sanity-checked against the payload size, and the payload is decoded
 * through the hardened streaming Decoder, which must end exactly at
 * the declared record count — a malformed or adversarial file yields
 * a typed DecodeError, never UB or an abort.
 */

#include <optional>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "log/event.h"

namespace lba::compress {

/** Trace-file header information. */
struct TraceInfo
{
    std::uint64_t records = 0;
    std::uint64_t payload_bytes = 0;
    /** Format version the file was written with (1 or 2). */
    std::uint32_t version = 0;
    /** The header's codec name ("predictor" for v1 files). */
    std::string codec;

    /** Average compressed record size. */
    double
    bytesPerRecord() const
    {
        return records ? static_cast<double>(payload_bytes) /
                             static_cast<double>(records)
                       : 0.0;
    }
};

/**
 * Write @p records to @p path as a v2 predictor stream.
 * @return False on I/O failure (typed in @p error).
 */
bool writeTrace(const std::string& path,
                const std::vector<log::EventRecord>& records,
                DecodeError* error = nullptr);

/**
 * Read and validate the header of a trace file without decoding the
 * payload. The header's payload length is checked against the actual
 * file size, so a successful TraceInfo never over-promises.
 */
std::optional<TraceInfo> readTraceInfo(const std::string& path,
                                       DecodeError* error = nullptr);

/**
 * Load and decode an entire trace file. The payload must hold exactly
 * the header's record count; bytes past the last record other than
 * its sub-byte padding are malformed.
 * @return std::nullopt on I/O, format, or payload error (typed in
 * @p error).
 */
std::optional<std::vector<log::EventRecord>> readTrace(
    const std::string& path, DecodeError* error = nullptr);

} // namespace lba::compress
