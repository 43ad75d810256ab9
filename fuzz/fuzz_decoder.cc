/**
 * @file
 * Decoder fuzz harness: arbitrary attacker-controlled bytes into the
 * streaming decoder, with adversarial chunking.
 *
 * Input format: byte 0 selects the push-chunk size (1..256), the rest
 * is the encoded stream. The decoder contract under test
 * (compress/codec.h): next() never aborts, never reads out of bounds,
 * returns kNeedMore only while input remains, and lands on exactly one
 * of kEnd / kError once the input is done — with a typed error set iff
 * it failed.
 *
 * Built two ways (fuzz/CMakeLists.txt): against clang's libFuzzer
 * (+ASan, the CI fuzz-smoke job), or against the standalone driver in
 * standalone_main.cc when the toolchain has no libFuzzer (corpus
 * replay + deterministic mutations; the default gcc container).
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/assert.h"
#include "compress/codec.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    using namespace lba::compress;
    if (size < 1) return 0;
    const std::size_t chunk = static_cast<std::size_t>(data[0]) + 1;
    data += 1;
    size -= 1;

    Decoder decoder;
    lba::log::EventRecord record;
    std::size_t pos = 0;
    std::uint64_t decoded = 0;
    bool done = false;
    while (true) {
        DecodeStatus status = decoder.next(&record);
        if (status == DecodeStatus::kOk) {
            ++decoded;
            LBA_ASSERT(decoder.records() == decoded,
                       "decoder record count out of sync");
            continue;
        }
        if (status == DecodeStatus::kNeedMore) {
            LBA_ASSERT(!done,
                       "kNeedMore after finishInput must not happen");
            if (pos < size) {
                std::size_t n = std::min(chunk, size - pos);
                decoder.push(data + pos, n);
                pos += n;
            } else {
                decoder.finishInput();
                done = true;
            }
            continue;
        }
        if (status == DecodeStatus::kError) {
            LBA_ASSERT(!decoder.error().ok(),
                       "kError without a typed error");
            // Sticky: a second pull must report the same failure.
            LBA_ASSERT(decoder.next(&record) == DecodeStatus::kError,
                       "decode error must be sticky");
        }
        break; // kEnd or kError
    }
    return 0;
}
