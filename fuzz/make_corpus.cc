/**
 * @file
 * Seed-corpus generator. Writes the checked-in corpora under
 * fuzz/corpus/{decoder,encoder,roundtrip,trace}/ — fully
 * deterministic, so rerunning it reproduces the committed files byte
 * for byte:
 *
 *   make_corpus <repo>/fuzz/corpus
 *
 * Seeds are small and structure-bearing (libFuzzer guidance): for the
 * decoder, a genuinely valid encoded stream plus truncated/corrupted/
 * garbage variants so the fuzzer starts on both sides of every
 * validity check; for the encoder and roundtrip harnesses, packed
 * record bytes in the recordFromBytes() layout; for the trace-file
 * harness, whole `.lbat` files, valid and broken around their header.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/record_gen.h"

namespace {

using namespace lba::compress;

void
writeFile(const std::filesystem::path& path,
          const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

/** Encode @p count workload records. */
std::vector<std::uint8_t>
encodedStream(std::size_t count)
{
    RecordGen gen(0xc0dec);
    Encoder encoder;
    for (std::size_t i = 0; i < count; ++i) encoder.append(gen.next());
    encoder.finishStream();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    encoder.pull(payload.data(), payload.size());
    return payload;
}

/**
 * The bytes of a trace file (compress/trace_file.h): a header of
 * @p version declaring @p records records and @p payload_bytes payload
 * bytes (a v2 header also names @p codec), then @p payload.
 */
std::vector<std::uint8_t>
traceFile(std::uint32_t version, std::uint64_t records,
          std::uint64_t payload_bytes, const std::string& codec,
          const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> bytes = {'L', 'B', 'A', 'T',
                                       'R', 'A', 'C', 'E'};
    auto put = [&](std::uint64_t v, unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put(version, 4);
    put(records, 8);
    put(payload_bytes, 8);
    if (version == 2) {
        bytes.push_back(static_cast<std::uint8_t>(codec.size()));
        bytes.insert(bytes.end(), codec.begin(), codec.end());
    }
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    return bytes;
}

/** Pack records in the recordFromBytes() byte layout. */
std::vector<std::uint8_t>
packedRecords(std::uint64_t seed, std::size_t count, bool arbitrary)
{
    RecordGen gen(seed);
    std::vector<std::uint8_t> bytes;
    auto put64 = [&](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    for (std::size_t i = 0; i < count; ++i) {
        auto r = arbitrary ? gen.nextArbitrary() : gen.next();
        put64(r.pc);
        bytes.push_back(static_cast<std::uint8_t>(r.tid));
        bytes.push_back(static_cast<std::uint8_t>(r.tid >> 8));
        bytes.push_back(static_cast<std::uint8_t>(r.type));
        bytes.push_back(r.opcode);
        bytes.push_back(r.rd);
        bytes.push_back(r.rs1);
        bytes.push_back(r.rs2);
        put64(r.addr);
        put64(r.aux);
    }
    return bytes;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <corpus output dir>\n",
                     argv[0]);
        return 2;
    }
    std::filesystem::path root(argv[1]);
    for (const char* sub : {"decoder", "encoder", "roundtrip", "trace"})
        std::filesystem::create_directories(root / sub);

    // Decoder seeds: [chunk, stream].
    std::vector<std::uint8_t> payload = encodedStream(60);
    std::vector<std::uint8_t> valid = {7};
    valid.insert(valid.end(), payload.begin(), payload.end());
    writeFile(root / "decoder" / "valid", valid);

    std::vector<std::uint8_t> trunc(
        valid.begin(),
        valid.begin() + static_cast<std::ptrdiff_t>(valid.size() / 2));
    writeFile(root / "decoder" / "trunc", trunc);

    std::vector<std::uint8_t> flipped = valid;
    flipped[flipped.size() / 3] ^= 0x55;
    writeFile(root / "decoder" / "flip", flipped);

    // Encoder seeds: [packed records].
    std::vector<std::uint8_t> recs =
        packedRecords(0xfeed, 12, /*arbitrary=*/true);
    writeFile(root / "encoder" / "records", recs);

    // Roundtrip seeds: [chunk, packed records].
    std::vector<std::uint8_t> rt = {3};
    rt.insert(rt.end(), recs.begin(), recs.end());
    writeFile(root / "roundtrip" / "records", rt);

    // Structure-free seeds: pure noise and minimal inputs.
    RecordGen noise(0xbadbee5);
    std::vector<std::uint8_t> garbage = {0};
    for (int i = 0; i < 64; ++i)
        garbage.push_back(static_cast<std::uint8_t>(noise.nextU64()));
    writeFile(root / "decoder" / "garbage", garbage);
    writeFile(root / "decoder" / "tiny", {0x00});
    writeFile(root / "encoder" / "tiny", {0x02});
    writeFile(root / "roundtrip" / "tiny", {0x00, 0x41});

    // Trace-file seeds: [whole file]. A valid v2 and v1 file, then one
    // broken check each: a header cut short, a payload holding one
    // record more than declared, a codec no reader knows, and declared
    // counts no file could back.
    std::vector<std::uint8_t> v2 =
        traceFile(2, 60, payload.size(), kCodecName, payload);
    writeFile(root / "trace" / "valid_v2", v2);
    writeFile(root / "trace" / "valid_v1",
              traceFile(1, 60, payload.size(), "", payload));
    writeFile(root / "trace" / "trunc_header",
              std::vector<std::uint8_t>(v2.begin(), v2.begin() + 20));
    std::vector<std::uint8_t> longer = encodedStream(61);
    writeFile(root / "trace" / "extra_record",
              traceFile(2, 60, longer.size(), kCodecName, longer));
    writeFile(root / "trace" / "unknown_codec",
              traceFile(2, 60, payload.size(), "zstd", payload));
    writeFile(root / "trace" / "huge_records",
              traceFile(2, std::uint64_t{1} << 62, payload.size(),
                        kCodecName, payload));
    writeFile(root / "trace" / "huge_payload",
              traceFile(2, 60, std::uint64_t{1} << 62, kCodecName,
                        payload));

    std::printf("corpora written under %s\n", root.c_str());
    return 0;
}
