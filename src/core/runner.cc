/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.h"

#include "common/assert.h"

namespace lba::core {

namespace {

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
        cycles_ += 1 + hierarchy_.instrFetch(core_, retired.pc);
        if (retired.mem_bytes > 0) {
            cycles_ += hierarchy_.dataAccess(core_, retired.mem_addr,
                                             retired.mem_is_write);
        }
    }

    void onOsEvent(const sim::OsEvent&) override {}

    Cycles cycles() const { return cycles_; }

  private:
    mem::CacheHierarchy& hierarchy_;
    unsigned core_;
    Cycles cycles_ = 0;
};

/**
 * Shared contained-run protocol of the LBA platforms: wire a manager
 * around @p platform, drive the process under it, and record the
 * containment outcome in @p result.
 * @return The run result (the process may have aborted mid-program).
 */
sim::RunResult
runWithContainment(sim::Process& process, core::PipelineTimer& timer,
                   sim::RetireObserver& platform,
                   std::vector<const lifeguard::Lifeguard*> watched,
                   const replay::ContainmentConfig& containment,
                   PlatformResult* result)
{
    replay::ContainmentManager manager(process, timer, 0, platform,
                                       std::move(watched), containment);
    process.setStoreInterceptor(&manager);
    replay::ContainedRun contained = replay::runContained(process, manager);
    process.setStoreInterceptor(nullptr);
    result->containment_enabled = true;
    result->aborted = contained.aborted;
    result->containment = manager.stats();
    return contained.result;
}

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
Experiment::runLba(const LifeguardFactory& factory)
{
    return runLba(factory, config_.lba);
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
                   const replay::ContainmentConfig& containment)
{
    const PlatformResult& base = unmonitored();

    sim::Process process = makeProcess();
    mem::HierarchyConfig hc = config_.hierarchy;
    if (hc.num_cores < 2) hc.num_cores = 2;
    mem::CacheHierarchy hierarchy(hc);
    std::unique_ptr<lifeguard::Lifeguard> guard = factory();
    LBA_ASSERT(guard != nullptr, "lifeguard factory returned null");

    LbaSystem system(*guard, hierarchy, lba_config);
    PlatformResult result;
    sim::RunResult run;
    if (containment.enabled) {
        run = runWithContainment(process, system.timer(), system,
                                 {guard.get()}, containment, &result);
    } else {
        run = process.run(&system);
    }
    system.finish();

    result.platform = "lba";
    result.instructions = run.instructions;
    result.cycles = system.stats().total_cycles;
    result.slowdown = base.cycles
                          ? static_cast<double>(result.cycles) /
                                static_cast<double>(base.cycles)
                          : 0.0;
    result.findings = guard->findings();
    result.lba = system.stats();
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

PlatformResult
Experiment::runParallelLba(const LifeguardFactory& factory,
                           unsigned shards)
{
    return runParallelLba(factory,
                          ParallelLbaConfig(config_.lba, shards));
}

PlatformResult
Experiment::runParallelLba(const LifeguardFactory& factory,
                           const ParallelLbaConfig& config)
{
    return runParallelLba(factory, config, config_.containment);
}

PlatformResult
Experiment::runParallelLba(const LifeguardFactory& factory,
                           const ParallelLbaConfig& config,
                           const replay::ContainmentConfig& containment)
{
    const PlatformResult& base = unmonitored();

    sim::Process process = makeProcess();
    mem::HierarchyConfig hc = config_.hierarchy;
    unsigned needed = config.dispatch.core + config.shards;
    if (needed < config.app_core + 1) needed = config.app_core + 1;
    if (hc.num_cores < needed) hc.num_cores = needed;
    mem::CacheHierarchy hierarchy(hc);

    ParallelLbaSystem system(factory, hierarchy, config);
    PlatformResult result;
    sim::RunResult run;
    if (containment.enabled) {
        // Watch every shard: a finding on any lane triggers the same
        // coordinated drain-rewind-repair (the producer drain clock
        // spans all lanes, so the rewind point is consistent).
        run = runWithContainment(process, system.timer(), system,
                                 system.shardLifeguards(), containment,
                                 &result);
    } else {
        run = process.run(&system);
    }
    system.finish();

    result.platform = "lba-parallel";
    result.instructions = run.instructions;
    result.cycles = system.stats().total_cycles;
    result.slowdown = base.cycles
                          ? static_cast<double>(result.cycles) /
                                static_cast<double>(base.cycles)
                          : 0.0;
    result.findings = system.allFindings();
    result.parallel = system.stats();
    result.run = run;
    return result;
}

} // namespace lba::core
