/**
 * @file
 * Trace file I/O tests: round trips through disk, header inspection,
 * and a hand-written corpus of truncated/corrupt/adversarial files
 * that must all decode to typed errors — never UB, never an abort,
 * never an unbounded allocation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "compress/trace_file.h"
#include "log/capture.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::compress {
namespace {

/** Temp file path that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const char* name)
        : path_(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::vector<log::EventRecord>
sampleTrace(std::size_t n)
{
    std::vector<log::EventRecord> trace;
    for (std::size_t i = 0; i < n; ++i) {
        log::EventRecord r;
        r.pc = 0x10000 + (i % 16) * 8;
        r.type = log::EventType::kLoad;
        r.opcode = static_cast<std::uint8_t>(isa::Opcode::kLd);
        r.rd = 1;
        r.rs1 = 2;
        r.addr = 0x20000 + i * 8;
        r.aux = 8;
        trace.push_back(r);
    }
    return trace;
}

std::string
readFileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A syntactically valid v2 header with the given fields. */
std::string
v2Header(std::uint64_t records, std::uint64_t payload_bytes,
         const std::string& codec)
{
    std::string h = "LBATRACE";
    h.push_back(2);
    h.append(3, '\0');
    for (int i = 0; i < 8; ++i) {
        h.push_back(static_cast<char>(records >> (8 * i)));
    }
    for (int i = 0; i < 8; ++i) {
        h.push_back(static_cast<char>(payload_bytes >> (8 * i)));
    }
    h.push_back(static_cast<char>(codec.size()));
    h += codec;
    return h;
}

TEST(TraceFile, RoundTripThroughDisk)
{
    TempFile file("roundtrip.lbat");
    auto trace = sampleTrace(500);
    DecodeError error;
    ASSERT_TRUE(writeTrace(file.path(), trace, &error))
        << error.toString();

    auto loaded = readTrace(file.path(), &error);
    ASSERT_TRUE(loaded.has_value()) << error.toString();
    ASSERT_EQ(loaded->size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ((*loaded)[i], trace[i]) << i;
    }
}

TEST(TraceFile, InfoReportsSizes)
{
    TempFile file("info.lbat");
    auto trace = sampleTrace(1000);
    ASSERT_TRUE(writeTrace(file.path(), trace));
    auto info = readTraceInfo(file.path());
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->records, 1000u);
    EXPECT_GT(info->payload_bytes, 0u);
    EXPECT_LT(info->bytesPerRecord(), 2.0);
    EXPECT_EQ(info->version, 2u);
    EXPECT_EQ(info->codec, "predictor");
    EXPECT_EQ(readFileBytes(file.path()).substr(28, 10),
              std::string("\x09predictor"));
}

TEST(TraceFile, EmptyTraceIsValid)
{
    TempFile file("empty.lbat");
    ASSERT_TRUE(writeTrace(file.path(), {}));
    auto loaded = readTrace(file.path());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->empty());
}

TEST(TraceFile, ReadsVersion1Files)
{
    // v1 layout: fixed 28-byte header, predictor payload at byte 28.
    TempFile file("v1.lbat");
    auto trace = sampleTrace(50);
    ASSERT_TRUE(writeTrace(file.path(), trace));
    std::string bytes = readFileBytes(file.path());
    std::string v1 = bytes.substr(0, 8);
    v1.push_back(1);
    v1.append(3, '\0');
    v1 += bytes.substr(12, 16);           // counts, unchanged
    v1 += bytes.substr(28 + 1 + 9);       // skip len byte + "predictor"
    writeFileBytes(file.path(), v1);

    auto info = readTraceInfo(file.path());
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, 1u);
    EXPECT_EQ(info->codec, "predictor");
    auto loaded = readTrace(file.path());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, trace);
}

TEST(TraceFile, MissingFileFails)
{
    DecodeError error;
    EXPECT_FALSE(readTrace("/nonexistent/nowhere.lbat", &error)
                     .has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kIo);
}

// --- Corrupt corpus ------------------------------------------------
// Every entry is a hand-built malformed file; the contract under test
// is "typed error out, nothing worse".

TEST(TraceFile, RejectsBadMagic)
{
    TempFile file("bad.lbat");
    writeFileBytes(file.path(), "NOTATRACEFILE___________________");
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kMalformed);
    EXPECT_NE(error.message.find("not an LBA trace"),
              std::string::npos);
}

TEST(TraceFile, RejectsTruncatedHeader)
{
    TempFile file("short.lbat");
    writeFileBytes(file.path(), "LBAT");
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kTruncated);
}

TEST(TraceFile, RejectsUnsupportedVersion)
{
    TempFile file("badver.lbat");
    std::string h = v2Header(0, 0, "predictor");
    h[8] = 9;
    writeFileBytes(file.path(), h);
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kUnsupported);
}

TEST(TraceFile, RejectsTruncatedPayload)
{
    TempFile file("trunc.lbat");
    auto trace = sampleTrace(200);
    ASSERT_TRUE(writeTrace(file.path(), trace));
    // Chop the payload in half.
    std::string bytes = readFileBytes(file.path());
    writeFileBytes(file.path(),
                   bytes.substr(0, 38 + (bytes.size() - 38) / 2));
    DecodeError error;
    EXPECT_FALSE(readTrace(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kTruncated);
    EXPECT_NE(error.message.find("truncated"), std::string::npos);
}

TEST(TraceFile, RejectsZeroLengthCodecName)
{
    TempFile file("zerocodec.lbat");
    std::string h = v2Header(0, 0, "");
    writeFileBytes(file.path(), h);
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kMalformed);
}

TEST(TraceFile, RejectsOversizedCodecNameLength)
{
    TempFile file("longcodec.lbat");
    std::string h = v2Header(0, 0, "x");
    h[28] = static_cast<char>(200); // length byte > kMaxCodecNameBytes
    writeFileBytes(file.path(), h);
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kMalformed);
}

TEST(TraceFile, RejectsTruncatedCodecName)
{
    TempFile file("cutcodec.lbat");
    std::string h = v2Header(0, 0, "predictor");
    writeFileBytes(file.path(), h.substr(0, 31)); // mid-name cut
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kTruncated);
}

TEST(TraceFile, RejectsNonPrintableCodecName)
{
    TempFile file("bincodec.lbat");
    std::string h = v2Header(0, 0, std::string("pre\x01ictor", 9));
    writeFileBytes(file.path(), h);
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kMalformed);
}

TEST(TraceFile, RejectsUnknownCodecName)
{
    // Any name but "predictor", including the two byte-aligned codecs
    // earlier versions could write.
    for (const char* name : {"mystery", "varint", "dict"}) {
        TempFile file("unkcodec.lbat");
        writeFileBytes(file.path(), v2Header(0, 0, name));
        auto info = readTraceInfo(file.path());
        ASSERT_TRUE(info.has_value()) << name;
        EXPECT_EQ(info->codec, name);
        DecodeError error;
        EXPECT_FALSE(readTrace(file.path(), &error).has_value()) << name;
        EXPECT_EQ(error.kind, DecodeErrorKind::kUnsupported) << name;
    }
}

TEST(TraceFile, RejectsPayloadLengthPastEndOfFile)
{
    // Header promises 2^40 payload bytes; the file holds four. The
    // reader must refuse before allocating anything of that order.
    TempFile file("bigpayload.lbat");
    std::string h = v2Header(1, 1ull << 40, "predictor");
    h += "ABCD";
    writeFileBytes(file.path(), h);
    DecodeError error;
    EXPECT_FALSE(readTraceInfo(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kTruncated);
}

TEST(TraceFile, RejectsTrailingBytesAfterPayload)
{
    TempFile file("trailing.lbat");
    auto trace = sampleTrace(10);
    ASSERT_TRUE(writeTrace(file.path(), trace));
    writeFileBytes(file.path(), readFileBytes(file.path()) + "junk");
    DecodeError error;
    EXPECT_FALSE(readTrace(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kMalformed);
}

TEST(TraceFile, RejectsAllocationBombRecordCount)
{
    // A tiny payload claiming ~2^60 records: the count guard must
    // trip; reserve() must never see the huge number.
    TempFile file("bomb.lbat");
    std::string h = v2Header(1ull << 60, 4, "predictor");
    h += std::string(4, '\0');
    writeFileBytes(file.path(), h);
    DecodeError error;
    EXPECT_FALSE(readTrace(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kLimitExceeded);
}

TEST(TraceFile, RejectsRecordCountPastPayloadContents)
{
    // Valid payload of 10 records, header claims 11: typed truncation.
    TempFile file("overcount.lbat");
    auto trace = sampleTrace(10);
    ASSERT_TRUE(writeTrace(file.path(), trace));
    std::string bytes = readFileBytes(file.path());
    bytes[12] = 11;
    writeFileBytes(file.path(), bytes);
    DecodeError error;
    EXPECT_FALSE(readTrace(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kTruncated);
}

TEST(TraceFile, RejectsPayloadPastDeclaredRecords)
{
    // A valid 100-record payload under a header that declares one
    // record: the records after the first are not padding.
    TempFile file("undercount.lbat");
    auto trace = sampleTrace(100);
    ASSERT_TRUE(writeTrace(file.path(), trace));
    std::string bytes = readFileBytes(file.path());
    bytes[12] = 1;
    writeFileBytes(file.path(), bytes);
    DecodeError error;
    EXPECT_FALSE(readTrace(file.path(), &error).has_value());
    EXPECT_EQ(error.kind, DecodeErrorKind::kMalformed)
        << error.toString();
}

TEST(TraceFile, GarbagePayloadYieldsTypedError)
{
    // 64 bytes of adversarial non-record payload.
    TempFile file("garbage.lbat");
    std::string payload;
    for (int i = 0; i < 64; ++i) {
        payload.push_back(static_cast<char>(0xff - i * 7));
    }
    std::string h = v2Header(40, payload.size(), "predictor");
    writeFileBytes(file.path(), h + payload);
    DecodeError error;
    EXPECT_FALSE(readTrace(file.path(), &error).has_value());
    EXPECT_NE(error.kind, DecodeErrorKind::kNone);
}

TEST(TraceFile, BenchmarkTraceRoundTrips)
{
    TempFile file("bench.lbat");
    auto generated =
        workload::generate(*workload::findProfile("bc"), {}, 30000);
    std::vector<log::EventRecord> trace;
    log::CaptureUnit capture(
        [&](const log::EventRecord& r) { trace.push_back(r); });
    sim::Process process;
    process.load(generated.program);
    process.run(&capture);

    ASSERT_TRUE(writeTrace(file.path(), trace));
    auto info = readTraceInfo(file.path());
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->records, trace.size());

    auto loaded = readTrace(file.path());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, trace);
}

} // namespace
} // namespace lba::compress
