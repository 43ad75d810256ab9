/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.h"

#include <algorithm>

#include "common/assert.h"
#include "log/capture.h"

namespace lba::core {

namespace {

/** runLba's entry: one record and its transport bytes (40 bytes). */
struct RecordEntry
{
    log::EventRecord record;
    double bytes = 0.0;
};

/** runLba's consumer half: LbaSystem::consume over each entry. */
struct ConsumeRecord
{
    LbaSystem& system;

    void
    operator()(const RecordEntry& entry) const
    {
        system.consume(entry.record, entry.bytes);
    }
};

/**
 * The two-thread schedule of runLba without containment. The calling
 * thread runs the producer half of every record: Process::run, capture
 * and LbaSystem::produce (the address filter and the codec). The
 * worker runs LbaSystem::consume over whole windows of (record, bytes)
 * pairs, in capture order: the application core's retire timing,
 * routing, slot reservation, transport, lifeguard dispatch and the
 * syscall drain.
 *
 * The results are those of LbaSystem driven inline: every simulated
 * number depends only on record order and each record's bytes, and
 * without containment the simulator reads no timing state.
 */
class ProduceRecords final : public sim::RetireObserver
{
  public:
    /** Start the worker, which consumes into @p system. */
    explicit ProduceRecords(LbaSystem& system)
        : system_(system), run_(ConsumeRecord{system})
    {
    }

    void
    onRetire(const sim::Retired& retired) override
    {
        push(log::CaptureUnit::makeRecord(retired));
    }

    void
    onOsEvent(const sim::OsEvent& event) override
    {
        push(log::CaptureUnit::makeRecord(event));
    }

    /** Join the worker (TwoThreadRun::finish). */
    void finish() { run_.finish(); }

  private:
    void
    push(const log::EventRecord& record)
    {
        run_.push({record, system_.produce(record)});
    }

    LbaSystem& system_;
    TwoThreadRun<RecordEntry, ConsumeRecord> run_;
};

/** Observer charging only the application's own cost (no monitoring). */
class AppTimingObserver : public sim::RetireObserver
{
  public:
    AppTimingObserver(mem::CacheHierarchy& hierarchy, unsigned core)
        : hierarchy_(hierarchy), core_(core)
    {
    }

    void
    onRetire(const sim::Retired& retired) override
    {
        cycles_ += hierarchy_.retire(core_, retired.pc,
                                     retired.mem_bytes > 0,
                                     retired.mem_addr,
                                     retired.mem_is_write);
    }

    void onOsEvent(const sim::OsEvent&) override {}

    Cycles cycles() const { return cycles_; }

  private:
    mem::CacheHierarchy& hierarchy_;
    unsigned core_;
    Cycles cycles_ = 0;
};

} // namespace

Experiment::Experiment(std::vector<isa::Instruction> program,
                       ExperimentConfig config)
    : program_(std::move(program)), config_(std::move(config))
{
    LBA_ASSERT(!program_.empty(), "experiment needs a program");
}

sim::Process
Experiment::makeProcess() const
{
    sim::Process process(config_.process);
    process.load(program_);
    return process;
}

const PlatformResult&
Experiment::unmonitored()
{
    if (unmonitored_) return *unmonitored_;

    sim::Process process = makeProcess();
    mem::HierarchyConfig hc = config_.hierarchy;
    mem::CacheHierarchy hierarchy(hc);
    AppTimingObserver observer(hierarchy, config_.lba.app_core);
    sim::RunResult run = process.run(&observer);

    PlatformResult result;
    result.platform = "unmonitored";
    result.instructions = run.instructions;
    result.cycles = observer.cycles();
    result.slowdown = 1.0;
    result.run = run;
    unmonitored_ = std::move(result);
    return *unmonitored_;
}

PlatformResult
Experiment::runLba(const LifeguardFactory& factory, unsigned shards)
{
    return runLba(factory, config_.lba, config_.containment, shards);
}

PlatformResult
Experiment::runLba(const LifeguardFactory& factory,
                   const LbaConfig& lba_config)
{
    return runLba(factory, lba_config, config_.containment);
}

PlatformResult
Experiment::runLba(const LifeguardFactory& factory,
                   const LbaConfig& lba_config,
                   const replay::ContainmentConfig& containment,
                   unsigned shards)
{
    LBA_ASSERT(shards >= 1, "LBA needs at least one shard");
    const PlatformResult& base = unmonitored();

    sim::Process process = makeProcess();
    mem::HierarchyConfig hc = config_.hierarchy;
    hc.num_cores = std::max({hc.num_cores, lba_config.dispatch.core + shards,
                             lba_config.app_core + 1});
    mem::CacheHierarchy hierarchy(hc);
    std::vector<std::unique_ptr<lifeguard::Lifeguard>> guards;
    std::vector<lifeguard::Lifeguard*> shard_guards;
    for (unsigned s = 0; s < shards; ++s) {
        guards.push_back(factory());
        LBA_ASSERT(guards.back() != nullptr,
                   "lifeguard factory returned null");
        shard_guards.push_back(guards.back().get());
    }

    LbaSystem system(shard_guards, hierarchy, lba_config);
    PlatformResult result;
    sim::RunResult run;
    if (containment.enabled) {
        // A finding on any shard triggers the same coordinated
        // drain-rewind-repair (the producer drain clock spans all
        // lanes, so the rewind point is consistent).
        replay::ContainmentManager manager(process, system, system,
                                           containment);
        replay::ContainedRun contained =
            replay::runContained(process, manager);
        run = contained.result;
        result.containment_enabled = true;
        result.aborted = contained.aborted;
        result.containment = manager.stats();
    } else {
        // Declared after system, so its worker is joined before the
        // system, hierarchy and lifeguards it uses are destroyed, on
        // every exit path.
        ProduceRecords schedule(system);
        run = process.run(&schedule);
        schedule.finish();
    }
    system.finish();

    result.platform = "lba";
    result.instructions = run.instructions;
    result.cycles = system.stats().total_cycles;
    result.slowdown = base.cycles
                          ? static_cast<double>(result.cycles) /
                                static_cast<double>(base.cycles)
                          : 0.0;
    result.findings = mergeShardFindings(guards);
    result.lba = system.stats();
    for (unsigned s = 0; s < shards; ++s) {
        result.shards.push_back(system.timer().laneStats(s));
    }
    result.run = run;
    return result;
}

PlatformResult
Experiment::runDbi(const LifeguardFactory& factory)
{
    const PlatformResult& base = unmonitored();

    sim::Process process = makeProcess();
    mem::HierarchyConfig hc = config_.hierarchy;
    mem::CacheHierarchy hierarchy(hc);
    std::unique_ptr<lifeguard::Lifeguard> guard = factory();
    LBA_ASSERT(guard != nullptr, "lifeguard factory returned null");

    dbi::DbiSystem system(*guard, hierarchy, config_.dbi);
    sim::RunResult run = process.run(&system);
    system.finish();

    PlatformResult result;
    result.platform = "dbi";
    result.instructions = run.instructions;
    result.cycles = system.stats().total_cycles;
    result.slowdown = base.cycles
                          ? static_cast<double>(result.cycles) /
                                static_cast<double>(base.cycles)
                          : 0.0;
    result.findings = guard->findings();
    result.dbi = system.stats();
    result.run = run;
    return result;
}

} // namespace lba::core
