/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.h"

#include <algorithm>

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
        // Watch every shard: a finding on any lane triggers the same
        // coordinated drain-rewind-repair (the producer drain clock
        // spans all lanes, so the rewind point is consistent).
        std::vector<const lifeguard::Lifeguard*> watched(
            shard_guards.begin(), shard_guards.end());
        run = runWithContainment(process, system.timer(), system,
                                 std::move(watched), containment, &result);
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
    result.findings = shards == 1 ? guards.front()->findings()
                                  : mergeShardFindings(guards);
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
