/**
 * @file
 * Tests for the value-prediction log compressor: bitstream primitives,
 * predictor behaviour, exact round-trips on synthetic and benchmark
 * traces, and the paper's < 1 byte/instruction target. The CodecProperty
 * cases drive the streaming Encoder/Decoder (compress/codec.h): a
 * byte-exact decode of whatever was encoded, under adversarial
 * chunking, and a typed (never crashing) failure on truncated or
 * garbage input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/bitstream.h"
#include "compress/codec.h"
#include "compress/compressor.h"
#include "compress/record_gen.h"
#include "log/capture.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::compress {
namespace {

using log::EventRecord;
using log::EventType;

TEST(BitStream, SingleBitsRoundTrip)
{
    BitWriter w;
    w.writeBit(true);
    w.writeBit(false);
    w.writeBit(true);
    BitReader r(w.bytes());
    EXPECT_TRUE(r.readBit());
    EXPECT_FALSE(r.readBit());
    EXPECT_TRUE(r.readBit());
}

TEST(BitStream, MultiBitFieldsRoundTrip)
{
    BitWriter w;
    w.writeBits(0x2b, 6);
    w.writeBits(0x12345, 20);
    w.writeBits(~0ull, 64);
    BitReader r(w.bytes());
    EXPECT_EQ(r.readBits(6), 0x2bu);
    EXPECT_EQ(r.readBits(20), 0x12345u);
    EXPECT_EQ(r.readBits(64), ~0ull);
}

TEST(BitStream, VarintRoundTrip)
{
    BitWriter w;
    std::vector<std::uint64_t> values = {0, 1, 127, 128, 300, 1u << 20,
                                         ~0ull, 0x123456789abcdefull};
    for (auto v : values) w.writeVarint(v);
    BitReader r(w.bytes());
    for (auto v : values) EXPECT_EQ(r.readVarint(), v);
}

TEST(BitStream, BitCountIsExact)
{
    BitWriter w;
    EXPECT_EQ(w.bitCount(), 0u);
    w.writeBits(0, 3);
    EXPECT_EQ(w.bitCount(), 3u);
    w.writeBits(0, 8);
    EXPECT_EQ(w.bitCount(), 11u);
}

TEST(ZigZag, RoundTripsSignedValues)
{
    for (std::int64_t v :
         {0ll, 1ll, -1ll, 63ll, -64ll, 1ll << 40, -(1ll << 40)}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes.
    EXPECT_LT(zigzagEncode(-1), 3u);
    EXPECT_LT(zigzagEncode(1), 3u);
}

TEST(PredictorBank, SequentialAndContextHits)
{
    PredictorBank bank;
    Addr base = 1;
    EXPECT_EQ(bank.recordPc(0, 0x1000, &base), PcSource::kMiss);
    EXPECT_EQ(base, 0u);
    EXPECT_EQ(bank.recordPc(0, 0x1008, &base), PcSource::kSequential);
    // Taken branch 0x1008 -> 0x2000: first time a miss against the
    // sequential pc...
    EXPECT_EQ(bank.recordPc(0, 0x2000, &base), PcSource::kMiss);
    EXPECT_EQ(base, 0x1010u);
    bank.recordPc(0, 0x1008, &base); // revisit the branch
    // ...then a context hit, which the decoder resolves to the same pc.
    Addr pc = 0;
    ASSERT_TRUE(bank.tryResolvePc(0, PcSource::kContext, &pc));
    EXPECT_EQ(pc, 0x2000u);
    ASSERT_TRUE(bank.tryResolvePc(0, PcSource::kSequential, &pc));
    EXPECT_EQ(pc, 0x1010u);
    EXPECT_EQ(bank.recordPc(0, 0x2000, &base), PcSource::kContext);
}

TEST(PredictorBank, PerThreadContexts)
{
    PredictorBank bank;
    Addr base = 0;
    bank.recordPc(0, 0x1000, &base);
    bank.recordPc(1, 0x5000, &base);
    EXPECT_EQ(bank.recordPc(0, 0x1008, &base), PcSource::kSequential);
    EXPECT_EQ(bank.recordPc(1, 0x5008, &base), PcSource::kSequential);
    Addr pc = 0;
    EXPECT_FALSE(bank.tryResolvePc(2, PcSource::kSequential, &pc));
    EXPECT_EQ(bank.pcMissBase(2), 0u);
    // Enough new threads to grow the thread table under the current
    // thread's memo, then a move of the whole bank.
    for (ThreadId t = 2; t < 300; ++t) {
        EXPECT_EQ(bank.recordPc(t, 0x100000 * t, &base), PcSource::kMiss);
        EXPECT_EQ(bank.recordPc(t, 0x100000 * t + 8, &base),
                  PcSource::kSequential);
    }
    PredictorBank moved = std::move(bank);
    EXPECT_EQ(moved.recordPc(299, 0x100000 * 299 + 16, &base),
              PcSource::kSequential);
    EXPECT_EQ(moved.recordPc(0, 0x1010, &base), PcSource::kSequential);
    EXPECT_EQ(moved.recordPc(1, 0x5010, &base), PcSource::kSequential);
    EXPECT_EQ(moved.pcMissBase(7), 0x700000u + 16);
}

TEST(PcEntry, DetectsStride)
{
    PcEntry entry;
    Addr base = 1;
    Addr addr = 0;
    EXPECT_FALSE(entry.tryResolveAddr(AddrSource::kLast, &addr));
    EXPECT_EQ(entry.recordAddr(0x2000, &base), AddrSource::kMiss);
    EXPECT_EQ(base, 0u);
    EXPECT_EQ(entry.recordAddr(0x2008, &base), AddrSource::kMiss);
    EXPECT_EQ(base, 0x2000u);
    ASSERT_TRUE(entry.tryResolveAddr(AddrSource::kStride, &addr));
    EXPECT_EQ(addr, 0x2010u);
    ASSERT_TRUE(entry.tryResolveAddr(AddrSource::kLast, &addr));
    EXPECT_EQ(addr, 0x2008u);
    EXPECT_EQ(entry.recordAddr(0x2010, &base), AddrSource::kStride);
    EXPECT_EQ(entry.recordAddr(0x2010, &base), AddrSource::kLast);
}

TEST(PcEntry, StaticFieldsHitAfterFirstVisit)
{
    PredictorBank bank;
    EXPECT_EQ(bank.find(0x1000), nullptr);
    EXPECT_FALSE(bank.entry(0x1000).recordStatic({5, 1, 2, 3}));
    const PcEntry* entry = bank.find(0x1000);
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->has_static);
    EXPECT_EQ(entry->stat.opcode, 5u);
    EXPECT_TRUE(bank.entry(0x1000).recordStatic({5, 1, 2, 3}));
    EXPECT_FALSE(bank.entry(0x1000).recordStatic({6, 1, 2, 3}));
}

TEST(PcEntry, SeenBitsKeepFieldsApart)
{
    // 0x1000 -> 0x3000 gives 0x1000's entry a context successor and
    // nothing else: its other fields still read as never recorded.
    PredictorBank bank;
    Addr base = 0;
    bank.recordPc(0, 0x1000, &base);
    bank.recordPc(0, 0x3000, &base);
    const PcEntry* entry = bank.find(0x1000);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->has_next);
    EXPECT_FALSE(entry->has_static);
    EXPECT_FALSE(entry->has_target);
    Addr addr = 0;
    EXPECT_FALSE(entry->tryResolveAddr(AddrSource::kStride, &addr));
    EXPECT_FALSE(bank.entry(0x1000).recordTarget(0));
}

/** Build a record for a load instruction. */
EventRecord
loadRecord(Addr pc, Addr addr, ThreadId tid = 0)
{
    EventRecord r;
    r.pc = pc;
    r.tid = tid;
    r.type = EventType::kLoad;
    r.opcode = static_cast<std::uint8_t>(isa::Opcode::kLd);
    r.rd = 1;
    r.rs1 = 2;
    r.addr = addr;
    r.aux = 8;
    return r;
}

TEST(Compressor, RoundTripHandMadeTrace)
{
    std::vector<EventRecord> trace;
    for (int i = 0; i < 100; ++i) {
        trace.push_back(loadRecord(0x1000 + (i % 10) * 8,
                                   0x20000 + i * 16));
    }
    EventRecord alloc;
    alloc.type = EventType::kAlloc;
    alloc.addr = 0x10000000;
    alloc.aux = 64;
    trace.push_back(alloc);

    LogCompressor c;
    for (const auto& r : trace) c.append(r);
    LogDecompressor d(c.bytes());
    for (const auto& r : trace) {
        EXPECT_EQ(d.next(), r);
    }
}

TEST(Compressor, SteadyStateLoopIsSubByte)
{
    // A tight loop with strided accesses: the ideal case. After warmup,
    // records should cost only a few bits each.
    LogCompressor c;
    for (int iter = 0; iter < 1000; ++iter) {
        for (int k = 0; k < 4; ++k) {
            c.append(loadRecord(0x1000 + k * 8,
                                0x20000 + iter * 32 + k * 8));
        }
    }
    EXPECT_LT(c.bytesPerRecord(), 0.7);
}

TEST(Compressor, RandomRecordsStillRoundTrip)
{
    // Adversarial: nothing predicts. Round-trip must still be exact.
    std::uint64_t state = 0xfeed;
    auto rnd = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::vector<EventRecord> trace;
    for (int i = 0; i < 500; ++i) {
        EventRecord r;
        if (rnd() % 4 == 0) {
            r.type = static_cast<EventType>(
                static_cast<unsigned>(EventType::kAlloc) + rnd() % 8);
            r.addr = rnd();
            r.aux = rnd();
            r.tid = static_cast<ThreadId>(rnd() % 4);
        } else {
            r = loadRecord((rnd() % 4096) * 8, rnd(),
                           static_cast<ThreadId>(rnd() % 4));
            if (rnd() % 2) {
                r.type = EventType::kStore;
                r.opcode =
                    static_cast<std::uint8_t>(isa::Opcode::kSd);
            }
        }
        trace.push_back(r);
    }
    LogCompressor c;
    for (const auto& r : trace) c.append(r);
    LogDecompressor d(c.bytes());
    for (const auto& r : trace) {
        EXPECT_EQ(d.next(), r);
    }
}

TEST(PredictorTable, GrowsWithoutLosingExactKeys)
{
    PredictorTable<Addr> table;
    EXPECT_EQ(table.find(0), nullptr);
    // Keys that share low bits, plus 0 and the all-ones key.
    std::vector<std::uint64_t> keys = {0, ~0ull};
    for (std::uint64_t i = 1; i <= 20000; ++i) keys.push_back(i << 12);
    for (std::uint64_t key : keys) table[key] = key ^ 0x5a5a;
    EXPECT_EQ(table.size(), keys.size());
    for (std::uint64_t key : keys) {
        const Addr* value = table.find(key);
        ASSERT_NE(value, nullptr) << key;
        EXPECT_EQ(*value, key ^ 0x5a5a);
    }
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(table.find(20001ull << 12), nullptr);
    table[0] = 7;
    EXPECT_EQ(*table.find(0), 7u);
    EXPECT_EQ(table.size(), keys.size());
}

TEST(Compressor, RoundTripOverManyDistinctPcs)
{
    // 12k distinct pcs (pc 0 among them) force every pc-keyed predictor
    // table to grow several times; the second pass revisits them all,
    // so hits come from grown tables. tid 0xffff is the largest tid.
    constexpr std::uint64_t kPcs = 12000;
    std::vector<EventRecord> trace;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < kPcs; ++i) {
            Addr pc = ((i * 7919) % kPcs) * isa::kInstrBytes;
            ThreadId tid = i % 3 == 0 ? 0xffff : 0;
            if (i % 4 == 3) {
                EventRecord br;
                br.pc = pc;
                br.tid = tid;
                br.type = EventType::kBranch;
                br.opcode = static_cast<std::uint8_t>(isa::Opcode::kBne);
                br.rs1 = 1;
                br.addr = pc + 0x40 * (i % 5);
                br.aux = 1;
                trace.push_back(br);
            } else {
                trace.push_back(
                    loadRecord(pc, 0x200000 + i * 24 + pass * 8, tid));
            }
        }
    }
    LogCompressor c;
    for (const auto& r : trace) c.append(r);
    LogDecompressor d(c.bytes());
    for (const auto& r : trace) {
        ASSERT_EQ(d.next(), r);
    }
}

TEST(Compressor, ControlTransferRecordsRoundTrip)
{
    std::vector<EventRecord> trace;
    for (int i = 0; i < 50; ++i) {
        EventRecord br;
        br.pc = 0x1100;
        br.type = EventType::kBranch;
        br.opcode = static_cast<std::uint8_t>(isa::Opcode::kBne);
        br.rs1 = 1;
        br.rs2 = 2;
        if (i % 3 != 0) { // taken 2/3 of the time
            br.addr = 0x1000;
            br.aux = 1;
        }
        trace.push_back(br);
        EventRecord ret;
        ret.pc = 0x1200;
        ret.type = EventType::kReturn;
        ret.opcode = static_cast<std::uint8_t>(isa::Opcode::kRet);
        ret.addr = 0x3000 + (i % 4) * 0x100; // varying return sites
        ret.aux = 1;
        trace.push_back(ret);
    }
    LogCompressor c;
    for (const auto& r : trace) c.append(r);
    LogDecompressor d(c.bytes());
    for (const auto& r : trace) {
        EXPECT_EQ(d.next(), r);
    }
}

/**
 * The headline compression claim (paper Section 2): less than one byte
 * per instruction on every benchmark trace.
 */
class BenchmarkCompression
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchmarkCompression, UnderOneBytePerRecordAndExact)
{
    const workload::Profile* profile =
        workload::findProfile(GetParam());
    ASSERT_NE(profile, nullptr);
    // Compression is steady-state behaviour: predictor warmup must be
    // amortized, so this test uses the default benchmark scale (the
    // paper's claim is for full ~209M-instruction runs).
    auto generated = workload::generate(*profile, {}, 250000);

    std::vector<EventRecord> trace;
    log::CaptureUnit capture(
        [&](const EventRecord& r) { trace.push_back(r); });
    sim::Process p;
    p.load(generated.program);
    p.run(&capture);
    ASSERT_GT(trace.size(), 100000u);

    LogCompressor c;
    for (const auto& r : trace) c.append(r);
    EXPECT_LT(c.bytesPerRecord(), 1.0)
        << GetParam() << ": " << c.bytesPerRecord() << " B/record";

    LogDecompressor d(c.bytes());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(d.next(), trace[i]) << "record " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkCompression,
    ::testing::Values("bc", "gnuplot", "gs", "gzip", "mcf", "tidy",
                      "w3m", "water", "zchaff"));

TEST(Compressor, FieldTallySumsToTheWritersBits)
{
    LogCompressor writer;
    LogEncoder<FieldTally> tally;
    for (int i = 0; i < 200; ++i) {
        EventRecord record = loadRecord(0x1000 + (i % 7) * 8, 0x40000 + i * 8);
        EXPECT_EQ(tally.append(record), writer.append(record));
    }
    const FieldBits& f = tally.sink().fields();
    EXPECT_EQ(f.kind + f.tid + f.pc + f.stat + f.addr + f.ctrl +
                  f.annotation,
              writer.bits());
    EXPECT_EQ(f.kind, 200u);
    EXPECT_EQ(f.ctrl, 0u);
}

TEST(Compressor, StrideHitOnAnAddresslessPcIsMalformed)
{
    // pc 0x1000 first retires an add, then a load that claims a stride
    // hit. The pc's entry exists, but no address was ever recorded for
    // it, so the decoder must reject the hit as it would for an unseen
    // pc.
    auto instr = [](BitWriter& w, bool first, Addr pc_delta,
                    isa::Opcode opcode) {
        w.writeBit(false); // instruction event
        w.writeBit(!first);
        if (first) w.writeBits(0, 16);
        w.writeBits(3, 2); // pc miss
        w.writeVarint(zigzagEncode(static_cast<std::int64_t>(pc_delta)));
        w.writeBit(false); // static literal
        w.writeBits(static_cast<unsigned>(opcode), 6);
        w.writeBits(1, 5);
        w.writeBits(2, 5);
        w.writeBits(3, 5);
    };
    BitWriter w;
    instr(w, true, 0x1000, isa::Opcode::kAdd);
    instr(w, false, static_cast<Addr>(-8), isa::Opcode::kLd);
    w.writeBit(false); // stride hit
    Decoder decoder;
    decoder.push(w.bytes().data(), w.bytes().size());
    decoder.finishInput();
    EventRecord record;
    ASSERT_EQ(decoder.next(&record), DecodeStatus::kOk);
    EXPECT_EQ(record.pc, 0x1000u);
    ASSERT_EQ(decoder.next(&record), DecodeStatus::kError);
    EXPECT_EQ(decoder.error().kind, DecodeErrorKind::kMalformed);
}

/**
 * The producer step's oracle: on every profile's capture stream,
 * LogSizer counts exactly the bits LogCompressor writes, record by
 * record.
 */
TEST(LogSizer, CountsTheWritersBitsOnEveryProfile)
{
    std::vector<const workload::Profile*> profiles;
    for (const workload::Profile& profile : workload::fullSuite()) {
        profiles.push_back(&profile);
    }
    profiles.push_back(workload::findProfile("req_serve"));
    for (const workload::Profile* profile : profiles) {
        ASSERT_NE(profile, nullptr);
        auto generated = workload::generate(*profile, {}, 60000);
        LogCompressor writer;
        LogSizer sizer;
        std::uint64_t records = 0;
        std::uint64_t mismatches = 0;
        log::CaptureUnit capture([&](const EventRecord& r) {
            ++records;
            if (sizer.append(r) != writer.append(r)) ++mismatches;
        });
        sim::Process process;
        process.load(generated.program);
        process.run(&capture);
        EXPECT_GT(records, 50000u) << profile->name;
        EXPECT_EQ(mismatches, 0u) << profile->name;
        EXPECT_EQ(sizer.bits(), writer.bits()) << profile->name;
        EXPECT_EQ(sizer.records(), writer.records()) << profile->name;
    }
}

TEST(LogSizer, CountsTheWritersBitsOnArbitraryRecords)
{
    RecordGen gen(0x5eed);
    LogCompressor writer;
    LogSizer sizer;
    for (int i = 0; i < 20000; ++i) {
        EventRecord record = canonicalize(gen.nextArbitrary());
        ASSERT_EQ(sizer.append(record), writer.append(record)) << i;
    }
}

/** @p count capture-shaped records: wild field values canonicalized
 *  (@p arbitrary), or RecordGen's workload-shaped stream. */
std::vector<EventRecord>
canonicalRecords(std::size_t count, std::uint64_t seed,
                 bool arbitrary = true)
{
    RecordGen gen(seed);
    std::vector<EventRecord> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        records.push_back(arbitrary ? canonicalize(gen.nextArbitrary())
                                    : gen.next());
    }
    return records;
}

/** Encode with interleaved small pulls; return the full payload. */
std::vector<std::uint8_t>
encodeChunked(const std::vector<EventRecord>& records,
              std::size_t pull_bytes)
{
    Encoder encoder;
    std::vector<std::uint8_t> payload;
    std::uint8_t sink[256];
    std::uint64_t bits_before = 0;
    for (const auto& record : records) {
        encoder.append(record);
        EXPECT_GT(encoder.bitsWritten(), bits_before);
        bits_before = encoder.bitsWritten();
        while (std::size_t n = encoder.pull(
                   sink, std::min(pull_bytes, sizeof sink)))
            payload.insert(payload.end(), sink, sink + n);
    }
    encoder.finishStream();
    while (std::size_t n =
               encoder.pull(sink, std::min(pull_bytes, sizeof sink)))
        payload.insert(payload.end(), sink, sink + n);
    EXPECT_EQ(encoder.records(), records.size());
    EXPECT_EQ(encoder.pullableBytes(), 0u);
    EXPECT_EQ(payload.size(), (encoder.bitsWritten() + 7) / 8);
    return payload;
}

/** Decode with @p chunk-byte pushes; expects a clean kEnd. */
std::vector<EventRecord>
decodeChunked(const std::vector<std::uint8_t>& payload, std::size_t chunk)
{
    Decoder decoder;
    std::vector<EventRecord> records;
    EventRecord record;
    std::size_t pos = 0;
    while (true) {
        DecodeStatus status = decoder.next(&record);
        if (status == DecodeStatus::kOk) {
            records.push_back(record);
            continue;
        }
        if (status == DecodeStatus::kNeedMore) {
            if (pos < payload.size()) {
                std::size_t n = std::min(chunk, payload.size() - pos);
                decoder.push(payload.data() + pos, n);
                pos += n;
            } else {
                decoder.finishInput();
            }
            continue;
        }
        EXPECT_EQ(status, DecodeStatus::kEnd)
            << decoder.error().toString();
        break;
    }
    EXPECT_EQ(decoder.records(), records.size());
    return records;
}

TEST(CodecProperty, EmptyStreamRoundTrips)
{
    auto payload = encodeChunked({}, 256);
    EXPECT_TRUE(payload.empty());
    EXPECT_TRUE(decodeChunked(payload, 1).empty());
}

TEST(CodecProperty, SingleRecordRoundTrips)
{
    auto records = canonicalRecords(1, 0x5eed);
    auto payload = encodeChunked(records, 256);
    EXPECT_EQ(decodeChunked(payload, 1), records);
}

TEST(CodecProperty, RandomizedCanonicalStreamsRoundTripByteExact)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        auto records = canonicalRecords(500, seed);
        auto payload = encodeChunked(records, 7);
        EXPECT_EQ(decodeChunked(payload, 3), records) << "seed " << seed;
    }
}

TEST(CodecProperty, WorkloadShapedStreamsRoundTrip)
{
    auto records = canonicalRecords(2000, 0xcafe, /*arbitrary=*/false);
    auto payload = encodeChunked(records, 64);
    EXPECT_EQ(decodeChunked(payload, 16), records);
}

TEST(CodecProperty, OneBytePushesMatchBulkPush)
{
    auto records = canonicalRecords(64, 0xab);
    auto payload = encodeChunked(records, 1);
    EXPECT_EQ(decodeChunked(payload, 1), records);
    EXPECT_EQ(decodeChunked(payload, payload.size() + 1), records);
}

TEST(CodecProperty, TruncatedStreamsFailAsTruncated)
{
    auto records = canonicalRecords(100, 0x720);
    auto payload = encodeChunked(records, 256);
    // Cut at several depths: the records before the cut decode
    // exactly, then the stream ends cleanly (the cut fell within a
    // byte of a record boundary) or fails as kTruncated, and the error
    // sticks. A cut of a valid stream is never malformed.
    std::size_t truncated = 0;
    for (std::size_t cut :
         {payload.size() / 4, payload.size() / 2, payload.size() - 1}) {
        Decoder decoder;
        decoder.push(payload.data(), cut);
        decoder.finishInput();
        EventRecord record;
        std::size_t decoded = 0;
        DecodeStatus status;
        while ((status = decoder.next(&record)) == DecodeStatus::kOk) {
            ASSERT_LT(decoded, records.size()) << "cut " << cut;
            EXPECT_EQ(record, records[decoded]) << "cut " << cut;
            ++decoded;
        }
        EXPECT_LT(decoded, records.size()) << "cut " << cut;
        if (status == DecodeStatus::kEnd) continue;
        ASSERT_EQ(status, DecodeStatus::kError) << "cut " << cut;
        EXPECT_EQ(decoder.error().kind, DecodeErrorKind::kTruncated)
            << "cut " << cut << ": " << decoder.error().toString();
        EXPECT_EQ(decoder.next(&record), DecodeStatus::kError);
        ++truncated;
    }
    EXPECT_GT(truncated, 0u);
}

TEST(CodecProperty, GarbageInputFailsTypedNotFatally)
{
    RecordGen noise(0xbad);
    std::size_t errors = 0;
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::uint8_t> garbage(64 + (noise.nextU64() % 256));
        for (auto& b : garbage)
            b = static_cast<std::uint8_t>(noise.nextU64());
        Decoder decoder;
        decoder.push(garbage.data(), garbage.size());
        decoder.finishInput();
        EventRecord record;
        DecodeStatus status;
        std::size_t guard = 0;
        while ((status = decoder.next(&record)) == DecodeStatus::kOk &&
               ++guard < garbage.size() * 8) {
        }
        ASSERT_TRUE(status == DecodeStatus::kEnd ||
                    status == DecodeStatus::kError)
            << "trial " << trial;
        if (status == DecodeStatus::kError) {
            EXPECT_NE(decoder.error().kind, DecodeErrorKind::kNone);
            // And the error sticks.
            EXPECT_EQ(decoder.next(&record), DecodeStatus::kError);
            ++errors;
        }
    }
    EXPECT_GT(errors, 0u);
}

} // namespace
} // namespace lba::compress
