/**
 * @file
 * lba_trace — the "trace generation tool" of the paper's methodology:
 * run a benchmark program under the capture hardware and store its
 * compressed event trace, or inspect/dump an existing trace file.
 *
 * Usage:
 *   lba_trace gen <benchmark> <out.lbat> [instructions]
 *   lba_trace info <trace.lbat>
 *   lba_trace dump <trace.lbat> [count]
 *   lba_trace list
 *
 * [instructions] (at least 1, default 250000) and [count] (default 20)
 * must be plain decimals with nothing else in the token; anything else,
 * and any extra argument, is a usage error (exit 2) before any output.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "compress/trace_file.h"
#include "log/capture.h"
#include "parse_count.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace lba;
using cli::parseCount;

constexpr std::uint64_t kUnbounded =
    std::numeric_limits<std::uint64_t>::max();

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  lba_trace gen <benchmark> <out.lbat> [instructions]\n"
                 "  lba_trace info <trace.lbat>\n"
                 "  lba_trace dump <trace.lbat> [count]\n"
                 "  lba_trace list\n");
    return 2;
}

int
cmdList()
{
    std::printf("benchmarks (paper Section 3 suite):\n");
    for (const workload::Profile& p : workload::fullSuite()) {
        std::printf("  %-9s %u thread(s), %4.0f%% memory refs, "
                    "%u KiB working set\n",
                    p.name.c_str(), p.threads, p.mem_fraction * 100,
                    p.working_set_kb);
    }
    std::printf("benchmarks (request-serving suite):\n");
    for (const workload::Profile& p : workload::serverSuite()) {
        std::printf("  %-9s %u thread(s), %4.0f%% memory refs, "
                    "%u KiB working set, %u phases%s\n",
                    p.name.c_str(), p.threads, p.mem_fraction * 100,
                    p.working_set_kb, p.phases,
                    p.worker_churn ? ", worker churn" : "");
    }
    return 0;
}

int
cmdGen(const std::string& benchmark, const std::string& path,
       std::uint64_t instructions)
{
    const workload::Profile* profile = workload::findProfile(benchmark);
    if (!profile) {
        std::fprintf(stderr, "unknown benchmark '%s' (try: list)\n",
                     benchmark.c_str());
        return 1;
    }
    auto generated = workload::generate(*profile, {}, instructions);
    std::vector<log::EventRecord> records;
    log::CaptureUnit capture(
        [&](const log::EventRecord& r) { records.push_back(r); });
    sim::Process process;
    process.load(generated.program);
    sim::RunResult result = process.run(&capture);
    if (!result.all_exited) {
        std::fprintf(stderr, "warning: benchmark did not run to "
                             "completion\n");
    }

    compress::DecodeError error;
    if (!compress::writeTrace(path, records, &error)) {
        std::fprintf(stderr, "write failed: %s\n",
                     error.toString().c_str());
        return 1;
    }
    auto info = compress::readTraceInfo(path, &error);
    std::printf("%s: %llu records, codec %s, %.3f bytes/record "
                "compressed\n",
                path.c_str(),
                static_cast<unsigned long long>(records.size()),
                compress::kCodecName,
                info ? info->bytesPerRecord() : 0.0);
    return 0;
}

int
cmdInfo(const std::string& path)
{
    compress::DecodeError error;
    auto info = compress::readTraceInfo(path, &error);
    if (!info) {
        std::fprintf(stderr, "%s\n", error.toString().c_str());
        return 1;
    }
    std::printf("version        : %u\n", info->version);
    std::printf("codec          : %s\n", info->codec.c_str());
    std::printf("records        : %llu\n",
                static_cast<unsigned long long>(info->records));
    std::printf("payload bytes  : %llu\n",
                static_cast<unsigned long long>(info->payload_bytes));
    std::printf("bytes/record   : %.3f  (paper target: < 1)\n",
                info->bytesPerRecord());
    return 0;
}

int
cmdDump(const std::string& path, std::uint64_t count)
{
    compress::DecodeError error;
    auto records = compress::readTrace(path, &error);
    if (!records) {
        std::fprintf(stderr, "%s\n", error.toString().c_str());
        return 1;
    }
    std::uint64_t n = std::min<std::uint64_t>(count, records->size());
    for (std::uint64_t i = 0; i < n; ++i) {
        std::printf("%8llu %s\n", static_cast<unsigned long long>(i),
                    log::toString((*records)[i]).c_str());
    }
    if (n < records->size()) {
        std::printf("... (%llu more)\n",
                    static_cast<unsigned long long>(records->size() -
                                                    n));
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "list" && args.size() == 1) return cmdList();
    if (cmd == "gen" && (args.size() == 3 || args.size() == 4)) {
        std::uint64_t instrs = 250000;
        if (args.size() == 4 &&
            !parseCount(args[3].c_str(), 1, kUnbounded, &instrs)) {
            return usage();
        }
        return cmdGen(args[1], args[2], instrs);
    }
    if (cmd == "info" && args.size() == 2) return cmdInfo(args[1]);
    if (cmd == "dump" && (args.size() == 2 || args.size() == 3)) {
        std::uint64_t count = 20;
        if (args.size() == 3 &&
            !parseCount(args[2].c_str(), 0, kUnbounded, &count)) {
            return usage();
        }
        return cmdDump(args[1], count);
    }
    return usage();
}
