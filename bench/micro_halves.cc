/**
 * @file
 * Host time of each half of the LBA drive, by replay (one workload a
 * row). The pool's drive runs a record's producer step
 * (core::LbaSystem::produce: the application core's L1 lookups, the
 * filter and the record's size) on the calling thread and its consumer
 * step (LbaSystem::consume: the L2 half of the retire cost, routing,
 * back-pressure, transport and the lifeguard's handler) on a worker;
 * the longer of the two bounds the run (docs/ARCHITECTURE.md, "Two
 * host threads"). This bench measures each step alone, without the
 * simulator or the ring:
 *
 *  - it records a run's capture stream and every record's produce()
 *    answer once;
 *  - producer: produce() over the stream on a fresh owning LbaSystem,
 *    each answer stored with its record into a buffer the size of the
 *    two-thread ring;
 *  - consumer: consume() of the recorded stream and answers on a fresh
 *    owning LbaSystem, whose total_cycles must equal
 *    core::Experiment::runLba's on the same program.
 *
 * Each half prints the fastest of kReps repetitions, in ns per record.
 * Compare two builds by running them alternately on one pinned CPU
 * (taskset -c N), since one repetition's time moves with the host.
 * Exits 1 when a replay's total_cycles differs from runLba's, or a
 * producer repetition's answers differ from the recorded ones. Scale
 * with LBA_BENCH_INSTRS.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "core/two_thread_run.h"
#include "log/capture.h"

namespace {

using namespace lba;
using Clock = std::chrono::steady_clock;

/** Repetitions per half; each prints its fastest. */
constexpr int kReps = 15;

/** One recorded record with its producer step's answer. */
struct Entry
{
    log::EventRecord record;
    core::PipelineTimer::Encoded encoded;
};

/** An owning one-shard LBA system on a hierarchy of its own, as
 *  runLba's one-lane pool builds it. */
struct Platform
{
    explicit Platform(const core::LifeguardFactory& factory)
        : guard(factory()), hierarchy(mem::HierarchyConfig{}),
          system(*guard, hierarchy)
    {
    }

    std::unique_ptr<lifeguard::Lifeguard> guard;
    mem::CacheHierarchy hierarchy;
    core::LbaSystem system;
};

double
nsPerRecord(Clock::time_point start, Clock::time_point end,
            std::size_t records)
{
    return std::chrono::duration<double, std::nano>(end - start).count() /
           static_cast<double>(records);
}

/**
 * Fastest producer step over the stream, ns per record; sets @p ok to
 * false when the answers left in the ring differ from the recorded
 * ones (the step depends only on the stream, so they must not).
 */
double
timeProducer(const core::LifeguardFactory& factory,
             const std::vector<Entry>& stream, bool& ok)
{
    std::vector<Entry> ring(core::kWindows * core::kWindowRecords);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
        Platform platform(factory);
        std::size_t slot = 0;
        Clock::time_point start = Clock::now();
        for (const Entry& entry : stream) {
            Entry& out = ring[slot];
            out.record = entry.record;
            out.encoded = platform.system.produce(entry.record);
            slot = slot + 1 == ring.size() ? 0 : slot + 1;
        }
        Clock::time_point end = Clock::now();
        for (std::size_t i = 0; i < std::min(ring.size(), stream.size());
             ++i) {
            const Entry& want = stream[stream.size() - 1 - i];
            slot = slot == 0 ? ring.size() - 1 : slot - 1;
            if (ring[slot].encoded.bytes != want.encoded.bytes ||
                ring[slot].encoded.l1_misses != want.encoded.l1_misses) {
                std::fprintf(stderr, "producer rep %d: answer %zu differs\n",
                             rep, stream.size() - 1 - i);
                ok = false;
                break;
            }
        }
        best = std::min(best, nsPerRecord(start, end, stream.size()));
    }
    return best;
}

/**
 * Fastest consumer step over the stream, ns per record; sets @p ok to
 * false when a replay's total_cycles is not @p expected_cycles.
 */
double
timeConsumer(const core::LifeguardFactory& factory,
             const std::vector<Entry>& stream, Cycles expected_cycles,
             bool& ok)
{
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
        Platform platform(factory);
        Clock::time_point start = Clock::now();
        for (const Entry& entry : stream) {
            platform.system.consume(entry.record, entry.encoded);
        }
        Clock::time_point end = Clock::now();
        platform.system.finish();
        Cycles cycles = platform.system.stats().total_cycles;
        if (cycles != expected_cycles) {
            std::fprintf(stderr,
                         "replay %d: total_cycles %llu, runLba %llu\n", rep,
                         static_cast<unsigned long long>(cycles),
                         static_cast<unsigned long long>(expected_cycles));
            ok = false;
        }
        best = std::min(best, nsPerRecord(start, end, stream.size()));
    }
    return best;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t instrs = bench::benchInstructions();
    bench::JsonReport report("micro_halves", bench::jsonOutPath(argc, argv));

    std::printf("Host time of each half of the LBA drive, by replay "
                "(%llu instructions; fastest of %d, ns per record)\n\n",
                static_cast<unsigned long long>(instrs), kReps);
    struct Case
    {
        const char* benchmark;
        const char* lifeguard;
        core::LifeguardFactory factory;
    };
    std::vector<Case> cases = {
        {"mcf", "AddrCheck", bench::makeAddrCheck()},
        {"req_serve", "BoundsCheck", bench::makeBoundsCheck()},
        {"gzip", "TaintCheck", bench::makeTaintCheck()},
    };

    stats::Table table({"benchmark", "lifeguard", "records",
                        "producer ns/rec", "consumer ns/rec",
                        "total_cycles"});
    bool ok = true;
    for (const Case& c : cases) {
        std::vector<isa::Instruction> program =
            workload::generate(*workload::findProfile(c.benchmark), {},
                               instrs)
                .program;
        core::Experiment experiment(program);
        Cycles expected = experiment.runLba(c.factory).lba.total_cycles;

        log::RecordingObserver recorder;
        sim::Process process(experiment.config().process);
        process.load(program);
        process.run(&recorder);
        std::vector<Entry> stream;
        stream.reserve(recorder.stream.size());
        Platform producer(c.factory);
        for (const log::EventRecord& record : recorder.stream) {
            stream.push_back({record, producer.system.produce(record)});
        }

        double produce_ns = timeProducer(c.factory, stream, ok);
        double consume_ns = timeConsumer(c.factory, stream, expected, ok);
        table.addRow({c.benchmark, c.lifeguard,
                      std::to_string(stream.size()),
                      stats::formatDouble(produce_ns, 1),
                      stats::formatDouble(consume_ns, 1),
                      std::to_string(expected)});
    }
    std::printf("%s", table.toString().c_str());
    report.addTable("halves", table);
    if (!ok) {
        std::printf("\nMISMATCH: a replay differs from the recorded run "
                    "(see stderr)\n");
        return 1;
    }
    return 0;
}
