/**
 * @file
 * MICRO-COMP: google-benchmark microbenchmarks of the log compressor —
 * compression/decompression throughput and predictor-hit behaviour on
 * characteristic record streams, and the sizing encoder (LogSizer) the
 * pipeline's producer step runs beside the writer (LogCompressor).
 * Supports the Section 2 bandwidth argument: the compress engine must
 * keep up with instruction retirement.
 */

#include <benchmark/benchmark.h>

#include "compress/codec.h"
#include "compress/compressor.h"
#include "log/capture.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace lba;

/** A strided load trace (best case for the predictors). */
std::vector<log::EventRecord>
stridedTrace(std::size_t n)
{
    std::vector<log::EventRecord> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        log::EventRecord r;
        r.pc = 0x1000 + (i % 8) * 8;
        r.type = log::EventType::kLoad;
        r.opcode = static_cast<std::uint8_t>(isa::Opcode::kLd);
        r.rd = 1;
        r.rs1 = 2;
        r.addr = 0x100000 + i * 16;
        r.aux = 8;
        trace.push_back(r);
    }
    return trace;
}

/** A benchmark-derived trace (realistic predictor behaviour). */
const std::vector<log::EventRecord>&
benchmarkTrace()
{
    static const std::vector<log::EventRecord> trace = [] {
        auto generated = workload::generate(
            *workload::findProfile("gzip"), {}, 100000);
        std::vector<log::EventRecord> t;
        log::CaptureUnit capture(
            [&](const log::EventRecord& r) { t.push_back(r); });
        sim::Process p;
        p.load(generated.program);
        p.run(&capture);
        return t;
    }();
    return trace;
}

void
BM_CompressStrided(benchmark::State& state)
{
    auto trace = stridedTrace(4096);
    for (auto _ : state) {
        compress::LogCompressor c;
        for (const auto& r : trace) c.append(r);
        benchmark::DoNotOptimize(c.bits());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CompressStrided);

void
BM_CompressBenchmarkTrace(benchmark::State& state)
{
    const auto& trace = benchmarkTrace();
    for (auto _ : state) {
        compress::LogCompressor c;
        for (const auto& r : trace) c.append(r);
        benchmark::DoNotOptimize(c.bits());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
    // Report the headline metric alongside throughput.
    compress::LogCompressor c;
    for (const auto& r : trace) c.append(r);
    state.counters["bytes_per_record"] = c.bytesPerRecord();
}
BENCHMARK(BM_CompressBenchmarkTrace);

// The same grammar and predictor bank counting each record's bits
// instead of writing them: what PipelineTimer::encode() runs.
void
BM_SizeBenchmarkTrace(benchmark::State& state)
{
    const auto& trace = benchmarkTrace();
    for (auto _ : state) {
        compress::LogSizer sizer;
        for (const auto& r : trace) sizer.append(r);
        benchmark::DoNotOptimize(sizer.bits());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_SizeBenchmarkTrace);

void
BM_DecompressBenchmarkTrace(benchmark::State& state)
{
    const auto& trace = benchmarkTrace();
    compress::LogCompressor c;
    for (const auto& r : trace) c.append(r);
    for (auto _ : state) {
        compress::LogDecompressor d(c.bytes());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            benchmark::DoNotOptimize(d.next());
        }
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_DecompressBenchmarkTrace);

// The hardened streaming decoder (what trace files are read with) on
// the benchmark-derived trace.
void
BM_CodecDecode(benchmark::State& state)
{
    const auto& trace = benchmarkTrace();
    compress::Encoder encoder;
    for (const auto& r : trace) encoder.append(r);
    encoder.finishStream();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    encoder.pull(payload.data(), payload.size());
    for (auto _ : state) {
        compress::Decoder decoder;
        decoder.push(payload.data(), payload.size());
        decoder.finishInput();
        log::EventRecord record;
        while (decoder.next(&record) == compress::DecodeStatus::kOk)
            benchmark::DoNotOptimize(record);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CodecDecode);

void
BM_CaptureRecordFormation(benchmark::State& state)
{
    sim::Retired r;
    r.pc = 0x1000;
    r.instr = {isa::Opcode::kLd, 1, 2, 0, 8};
    r.mem_addr = 0x20000;
    r.mem_bytes = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(log::CaptureUnit::makeRecord(r));
    }
}
BENCHMARK(BM_CaptureRecordFormation);

} // namespace

BENCHMARK_MAIN();
