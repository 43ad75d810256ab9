/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.h"

#include "common/assert.h"
#include "sched/pool.h"

namespace lba::core {

namespace {

/** Observer charging only the application's own cost (no monitoring),
 *  on core 0, the application core of every platform. */
class AppTimingObserver : public sim::RetireObserver
{
  public:
    explicit AppTimingObserver(mem::CacheHierarchy& hierarchy)
        : hierarchy_(hierarchy)
    {
    }

    void
    onRetire(const sim::Retired& retired) override
    {
        cycles_ += hierarchy_.retire(0, retired.pc, retired.mem_bytes > 0,
                                     retired.mem_addr,
                                     retired.mem_is_write);
    }

    void onOsEvent(const sim::OsEvent&) override {}

    Cycles cycles() const { return cycles_; }

  private:
    mem::CacheHierarchy& hierarchy_;
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
    mem::CacheHierarchy hierarchy(config_.hierarchy);
    AppTimingObserver observer(hierarchy);
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
    const PlatformResult& base = unmonitored();

    sched::PoolConfig pool_config;
    pool_config.lba = lba_config;
    pool_config.hierarchy = config_.hierarchy;
    pool_config.lanes = shards;
    pool_config.containment = containment;
    sched::LifeguardPool pool(pool_config, factory);
    pool.addTenant({"lba", program_, config_.process});
    sched::TenantStats tenant = std::move(pool.drive().tenants.front());

    PlatformResult result;
    result.platform = "lba";
    result.instructions = tenant.run.instructions;
    result.cycles = tenant.total_cycles;
    result.slowdown = base.cycles
                          ? static_cast<double>(result.cycles) /
                                static_cast<double>(base.cycles)
                          : 0.0;
    result.findings = std::move(tenant.findings);
    result.lba = tenant.lba;
    for (unsigned s = 0; s < shards; ++s) {
        result.shards.push_back(pool.timer_->laneStats(s));
    }
    result.run = tenant.run;
    result.containment_enabled = tenant.containment_enabled;
    result.aborted = tenant.aborted;
    result.containment = std::move(tenant.containment);
    return result;
}

PlatformResult
Experiment::runDbi(const LifeguardFactory& factory)
{
    const PlatformResult& base = unmonitored();

    sim::Process process = makeProcess();
    mem::CacheHierarchy hierarchy(config_.hierarchy);
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
