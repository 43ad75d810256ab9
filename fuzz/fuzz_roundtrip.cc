/**
 * @file
 * Roundtrip fuzz harness: encode fuzzer-shaped records, stream-decode
 * the bytes back in adversarial chunks, and assert byte-exact record
 * recovery — the invertibility property the codec owes the transport
 * (docs/ARCHITECTURE.md, "Compression").
 *
 * Input format: byte 0 selects the decode chunk size (1..256), the
 * rest packs EventRecords (compress/record_gen.h), each canonicalized
 * into capture shape. Any mismatch, early kEnd, or decode error on a
 * well-formed stream aborts the process for the fuzzer to report.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "compress/codec.h"
#include "compress/record_gen.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    using namespace lba::compress;
    if (size < 1) return 0;
    const std::size_t chunk = static_cast<std::size_t>(data[0]) + 1;
    data += 1;
    size -= 1;

    std::vector<lba::log::EventRecord> records;
    for (std::size_t pos = 0; pos < size; pos += kRecordStrideBytes) {
        records.push_back(
            canonicalize(recordFromBytes(data + pos, size - pos)));
    }

    Encoder encoder;
    for (const auto& record : records) encoder.append(record);
    encoder.finishStream();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    std::size_t got = encoder.pull(payload.data(), payload.size());
    LBA_ASSERT(got == payload.size(), "encoder under-drained");

    Decoder decoder;
    lba::log::EventRecord record;
    std::size_t pos = 0;
    std::size_t decoded = 0;
    while (true) {
        DecodeStatus status = decoder.next(&record);
        if (status == DecodeStatus::kOk) {
            LBA_ASSERT(decoded < records.size(),
                       "decoder produced extra records");
            LBA_ASSERT(record == records[decoded],
                       "roundtrip record mismatch");
            ++decoded;
            continue;
        }
        if (status == DecodeStatus::kNeedMore) {
            if (pos < payload.size()) {
                std::size_t n =
                    std::min(chunk, payload.size() - pos);
                decoder.push(payload.data() + pos, n);
                pos += n;
            } else {
                decoder.finishInput();
            }
            continue;
        }
        LBA_ASSERT(status == DecodeStatus::kEnd,
                   "decode error on a well-formed stream");
        break;
    }
    LBA_ASSERT(decoded == records.size(),
               "decoder dropped trailing records");
    return 0;
}
