/**
 * @file
 * Reproduces the Section 2 compression claim — the value-prediction
 * compressor achieves "less than one byte per instruction" on every
 * benchmark's event log, with a per-field bit breakdown (from the
 * FieldTally sink) — and sets the codec against the raw log on the
 * suite's whole capture stream: bytes/record, ratio against raw, and
 * the codec's host-side cost per record to encode (LogCompressor,
 * which writes the stream), to size (LogSizer, which only counts its
 * bits, as the pipeline's producer step does) and to decode. Raw is
 * what the transport carries with compression off
 * (LbaConfig::raw_record_bytes per record), the baseline
 * ablation_bandwidth compares against.
 *
 * JSON rows land in BENCH_results.json via --json (see
 * docs/BENCHMARKS.md for the schema).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/assert.h"
#include "compress/codec.h"
#include "compress/compressor.h"
#include "log/capture.h"
#include "sim/process.h"

namespace {

using namespace lba;

double
nsPerRecord(std::chrono::steady_clock::duration d, std::size_t records)
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                   .count()) /
           static_cast<double>(records);
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t instrs = bench::benchInstructions();
    bench::JsonReport report("compression_ratio",
                             bench::jsonOutPath(argc, argv));

    std::printf("Compression (paper Section 2: < 1 byte/instruction)\n\n");
    stats::Table table({"benchmark", "records", "bytes/record",
                        "bits: pc", "static", "addr", "ctrl", "other"});

    // Full capture stream across the suite, reused for the comparison
    // against raw below.
    std::vector<log::EventRecord> all_records;

    double worst = 0.0;
    for (const workload::Profile& profile : workload::fullSuite()) {
        auto generated = workload::generate(profile, {}, instrs);
        compress::LogEncoder<compress::FieldTally> tally;
        log::CaptureUnit capture([&](const log::EventRecord& r) {
            tally.append(r);
            all_records.push_back(r);
        });
        sim::Process process;
        process.load(generated.program);
        process.run(&capture);

        double bpr = tally.bytesPerRecord();
        worst = std::max(worst, bpr);
        const compress::FieldBits& f = tally.sink().fields();
        auto per = [&](std::uint64_t bits) {
            return stats::formatDouble(
                static_cast<double>(bits) /
                    static_cast<double>(tally.records()),
                3);
        };
        table.addRow({profile.name, std::to_string(tally.records()),
                      stats::formatDouble(bpr, 3), per(f.pc),
                      per(f.stat), per(f.addr), per(f.ctrl),
                      per(f.kind + f.tid + f.annotation)});
    }
    std::printf("%s\n", table.toString().c_str());
    report.addTable("per-benchmark predictor bits", table);

    // The codec against raw on the same stream, with a decode-side
    // roundtrip check (a codec that cannot reproduce the stream has no
    // business reporting a ratio).
    stats::Table codecs({"codec", "records", "payload B",
                         "bytes/record", "ratio", "encode ns/rec",
                         "size ns/rec", "decode ns/rec"});
    const double raw_record_bytes = core::LbaConfig{}.raw_record_bytes;
    const double raw_bytes =
        static_cast<double>(all_records.size()) * raw_record_bytes;

    compress::Encoder encoder;
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& record : all_records) encoder.append(record);
    encoder.finishStream();
    auto t1 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    LBA_ASSERT(encoder.pull(payload.data(), payload.size()) ==
                   payload.size(),
               "encoder under-drained");

    compress::LogSizer sizer;
    auto s0 = std::chrono::steady_clock::now();
    for (const auto& record : all_records) sizer.append(record);
    auto s1 = std::chrono::steady_clock::now();
    LBA_ASSERT(sizer.bits() == encoder.bitsWritten(),
               "sizer and encoder disagree on the stream's bits");

    compress::Decoder decoder;
    decoder.push(payload.data(), payload.size());
    decoder.finishInput();
    log::EventRecord record;
    std::size_t decoded = 0;
    auto t2 = std::chrono::steady_clock::now();
    while (decoder.next(&record) == compress::DecodeStatus::kOk)
        ++decoded;
    auto t3 = std::chrono::steady_clock::now();
    LBA_ASSERT(decoder.error().ok(),
               "codec failed to decode its own stream");
    LBA_ASSERT(decoded == all_records.size(),
               "codec dropped records in roundtrip");

    codecs.addRow(
        {compress::kCodecName, std::to_string(all_records.size()),
         std::to_string(payload.size()),
         stats::formatDouble(static_cast<double>(payload.size()) /
                                 static_cast<double>(all_records.size()),
                             3),
         stats::formatDouble(
             raw_bytes / static_cast<double>(payload.size()), 2),
         stats::formatDouble(nsPerRecord(t1 - t0, decoded), 1),
         stats::formatDouble(nsPerRecord(s1 - s0, decoded), 1),
         stats::formatDouble(nsPerRecord(t3 - t2, decoded), 1)});
    codecs.addRow({"raw", std::to_string(all_records.size()),
                   std::to_string(static_cast<std::uint64_t>(raw_bytes)),
                   stats::formatDouble(raw_record_bytes, 3), "1.00", "-",
                   "-", "-"});
    std::printf("The codec against the raw log (same capture stream, "
                "%zu records)\n\n",
                all_records.size());
    std::printf("%s\n", codecs.toString().c_str());
    report.addTable("predictor against raw", codecs);

    std::printf("worst case: %.3f bytes/record -> target (< 1 B) %s\n",
                worst, worst < 1.0 ? "MET" : "MISSED");
    return worst < 1.0 ? 0 : 1;
}
