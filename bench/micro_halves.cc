/**
 * @file
 * Host time of each stage of the LBA drive, by replay (one workload a
 * row). The pool's drive runs the simulator and capture on the calling
 * thread, each record's producer step (core::LbaSystem::produce: the
 * application core's L1 lookups, the filter and the record's size) on
 * an encoder thread, and its consumer step (LbaSystem::consume: the L2
 * half of the retire cost, routing, back-pressure, transport and the
 * lifeguard's handler) on a worker; the longest of the three bounds
 * the run (docs/ARCHITECTURE.md, "Three host threads"). This bench
 * measures each stage alone, on one shard for three streams and on four
 * for req_churn under TaintCheck, the consumer shape of a pool whose
 * tenants are sharded across its lanes:
 *
 *  - it records a run's capture stream and every record's produce()
 *    answer once;
 *  - simulator: sim::Process::run, each captured record stored into a
 *    buffer the size of the three-stage ring;
 *  - encoder: produce() over the stream on a fresh owning LbaSystem,
 *    each answer stored with its record into such a buffer;
 *  - worker: consume() of the recorded stream and answers on a fresh
 *    owning LbaSystem, whose total_cycles must equal
 *    core::Experiment::runLba's on the same program and shard count.
 *
 * Each stage prints the fastest of kReps repetitions, in ns per record.
 * Compare two builds by running them alternately on one pinned CPU
 * (taskset -c N), since one repetition's time moves with the host.
 * Exits 1 when a replay's total_cycles differs from runLba's, or a
 * simulator or encoder repetition's output differs from the recorded
 * stream. Scale with LBA_BENCH_INSTRS.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "core/three_stage_run.h"
#include "log/capture.h"

namespace {

using namespace lba;
using Clock = std::chrono::steady_clock;

/** Repetitions per stage; each prints its fastest. */
constexpr int kReps = 15;

/** One recorded record with its producer step's answer. */
struct Entry
{
    log::EventRecord record;
    core::PipelineTimer::Encoded encoded;
};

/** One bench row: a workload, its lifeguard and the shard count. */
struct Case
{
    const char* benchmark;
    const char* lifeguard;
    core::LifeguardFactory factory;
    unsigned shards;
};

/** An owning LBA system with one lane per shard on a hierarchy of its
 *  own, as the one-tenant pool of runLba(factory, shards) builds it:
 *  the application on core 0, shard s on core 1 + s. */
struct Platform
{
    explicit Platform(const Case& c) : hierarchy(coresFor(c.shards))
    {
        std::vector<lifeguard::Lifeguard*> shards;
        for (unsigned s = 0; s < c.shards; ++s) {
            guards.push_back(c.factory());
            shards.push_back(guards.back().get());
        }
        system.emplace(shards, hierarchy);
    }

    static mem::HierarchyConfig
    coresFor(unsigned shards)
    {
        mem::HierarchyConfig hc;
        hc.num_cores = std::max(hc.num_cores, 1 + shards);
        return hc;
    }

    std::vector<std::unique_ptr<lifeguard::Lifeguard>> guards;
    mem::CacheHierarchy hierarchy;
    std::optional<core::LbaSystem> system;
};

/** A buffer the size of the three-stage ring. */
std::vector<Entry>
ringBuffer()
{
    return std::vector<Entry>(core::kWindows * core::kWindowRecords);
}

/** The driver's part of each record: capture it into the next slot of
 *  a ring-sized buffer, as the pool's onRetire and onOsEvent do. */
class RingCapture : public sim::RetireObserver
{
  public:
    explicit RingCapture(std::vector<Entry>& ring) : ring_(ring) {}

    void
    onRetire(const sim::Retired& retired) override
    {
        put(log::CaptureUnit::makeRecord(retired));
    }

    void
    onOsEvent(const sim::OsEvent& event) override
    {
        put(log::CaptureUnit::makeRecord(event));
    }

    /** Records captured. */
    std::size_t records = 0;
    /** The slot the next record goes to. */
    std::size_t slot = 0;

  private:
    void
    put(const log::EventRecord& record)
    {
        ring_[slot].record = record;
        slot = slot + 1 == ring_.size() ? 0 : slot + 1;
        ++records;
    }

    std::vector<Entry>& ring_;
};

double
nsPerRecord(Clock::time_point start, Clock::time_point end,
            std::size_t records)
{
    return std::chrono::duration<double, std::nano>(end - start).count() /
           static_cast<double>(records);
}

/**
 * Fastest simulator run with capture, ns per record; sets @p ok to
 * false when a run captures a different number of records, or the
 * records left in the ring differ from the recorded ones.
 */
double
timeSimulator(const std::vector<isa::Instruction>& program,
              const sim::ProcessConfig& config,
              const std::vector<Entry>& stream, bool& ok)
{
    std::vector<Entry> ring = ringBuffer();
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
        sim::Process process(config);
        process.load(program);
        RingCapture capture(ring);
        Clock::time_point start = Clock::now();
        process.run(&capture);
        Clock::time_point end = Clock::now();
        if (capture.records != stream.size()) {
            std::fprintf(stderr, "simulator rep %d: %zu records, not %zu\n",
                         rep, capture.records, stream.size());
            ok = false;
        }
        std::size_t slot = capture.slot;
        for (std::size_t i = 0;
             i < std::min({ring.size(), stream.size(), capture.records});
             ++i) {
            const Entry& want = stream[stream.size() - 1 - i];
            slot = slot == 0 ? ring.size() - 1 : slot - 1;
            if (ring[slot].record != want.record) {
                std::fprintf(stderr, "simulator rep %d: record %zu differs\n",
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
 * Fastest encoder step over the stream, ns per record; sets @p ok to
 * false when the answers left in the ring differ from the recorded
 * ones (the step depends only on the stream, so they must not).
 */
double
timeEncoder(const Case& c, const std::vector<Entry>& stream, bool& ok)
{
    std::vector<Entry> ring = ringBuffer();
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
        Platform platform(c);
        std::size_t slot = 0;
        Clock::time_point start = Clock::now();
        for (const Entry& entry : stream) {
            Entry& out = ring[slot];
            out.record = entry.record;
            out.encoded = platform.system->produce(entry.record);
            slot = slot + 1 == ring.size() ? 0 : slot + 1;
        }
        Clock::time_point end = Clock::now();
        for (std::size_t i = 0; i < std::min(ring.size(), stream.size());
             ++i) {
            const Entry& want = stream[stream.size() - 1 - i];
            slot = slot == 0 ? ring.size() - 1 : slot - 1;
            if (ring[slot].encoded.bytes != want.encoded.bytes ||
                ring[slot].encoded.l1_misses != want.encoded.l1_misses) {
                std::fprintf(stderr, "encoder rep %d: answer %zu differs\n",
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
 * Fastest worker step over the stream, ns per record; sets @p ok to
 * false when a replay's total_cycles is not @p expected_cycles.
 */
double
timeWorker(const Case& c, const std::vector<Entry>& stream,
             Cycles expected_cycles, bool& ok)
{
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
        Platform platform(c);
        Clock::time_point start = Clock::now();
        for (const Entry& entry : stream) {
            platform.system->consume(entry.record, entry.encoded);
        }
        Clock::time_point end = Clock::now();
        platform.system->finish();
        Cycles cycles = platform.system->stats().total_cycles;
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

    std::printf("Host time of each stage of the LBA drive, by replay "
                "(%llu instructions; fastest of %d, ns per record)\n\n",
                static_cast<unsigned long long>(instrs), kReps);
    std::vector<Case> cases = {
        {"mcf", "AddrCheck", bench::makeAddrCheck(), 1},
        {"req_serve", "BoundsCheck", bench::makeBoundsCheck(), 1},
        {"gzip", "TaintCheck", bench::makeTaintCheck(), 1},
        {"req_churn", "TaintCheck", bench::makeTaintCheck(), 4},
    };

    stats::Table table({"benchmark", "lifeguard", "shards", "records",
                        "simulator ns/rec", "encoder ns/rec",
                        "worker ns/rec", "total_cycles"});
    bool ok = true;
    for (const Case& c : cases) {
        std::vector<isa::Instruction> program =
            workload::generate(*workload::findProfile(c.benchmark), {},
                               instrs)
                .program;
        core::Experiment experiment(program);
        Cycles expected =
            experiment.runLba(c.factory, c.shards).lba.total_cycles;

        log::RecordingObserver recorder;
        sim::Process process(experiment.config().process);
        process.load(program);
        process.run(&recorder);
        std::vector<Entry> stream;
        stream.reserve(recorder.stream.size());
        Platform encoder(c);
        for (const log::EventRecord& record : recorder.stream) {
            stream.push_back({record, encoder.system->produce(record)});
        }

        double simulate_ns = timeSimulator(
            program, experiment.config().process, stream, ok);
        double encode_ns = timeEncoder(c, stream, ok);
        double work_ns = timeWorker(c, stream, expected, ok);
        table.addRow({c.benchmark, c.lifeguard, std::to_string(c.shards),
                      std::to_string(stream.size()),
                      stats::formatDouble(simulate_ns, 1),
                      stats::formatDouble(encode_ns, 1),
                      stats::formatDouble(work_ns, 1),
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
