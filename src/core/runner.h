#pragma once
/**
 * @file
 * Experiment runner: executes the same program unmonitored, under LBA,
 * and under the DBI baseline, and reports comparable cycle counts.
 *
 * This is the top-level public API most users want:
 * @code
 *   core::Experiment exp(program, {});
 *   auto lba = exp.runLba([] { return std::make_unique<AddrCheck>(); });
 *   std::cout << lba.slowdown << "x, findings: "
 *             << lba.findings.size() << '\n';
 * @endcode
 *
 * examples/quickstart.cpp is a complete worked example; the platforms
 * being compared are described in docs/ARCHITECTURE.md.
 */

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lba_system.h"
#include "dbi/dbi_system.h"
#include "isa/isa.h"
#include "lifeguard/lifeguard.h"
#include "mem/hierarchy.h"
#include "replay/containment.h"
#include "sim/process.h"

namespace lba::core {

/** Creates a fresh lifeguard instance (one per platform run / shard). */
using LifeguardFactory =
    std::function<std::unique_ptr<lifeguard::Lifeguard>()>;

/** Everything needed to run one program on every platform. */
struct ExperimentConfig
{
    sim::ProcessConfig process;
    mem::HierarchyConfig hierarchy;
    LbaConfig lba;
    dbi::DbiConfig dbi;
    /** Rewind-and-repair containment (LBA platforms only). */
    replay::ContainmentConfig containment;
};

/** Result of running one platform. */
struct PlatformResult
{
    std::string platform;
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    /** Execution time normalized to the unmonitored run. */
    double slowdown = 1.0;
    std::vector<lifeguard::Finding> findings;
    /** Valid when platform == "lba"; aggregated over shards. */
    LbaRunStats lba;
    /** Valid when platform == "lba": one entry per shard. */
    std::vector<LaneStats> shards;
    /** Valid when platform == "dbi". */
    dbi::DbiStats dbi;
    sim::RunResult run;

    /** True when the run executed under rewind-and-repair containment. */
    bool containment_enabled = false;
    /** True when the abort repair policy terminated the program. */
    bool aborted = false;
    /** Valid when containment_enabled. */
    replay::ContainmentStats containment;
};

/**
 * Runs one program on the three platforms with identical inputs.
 * Functional execution is deterministic, so every platform observes the
 * exact same retirement stream; only timing differs.
 */
class Experiment
{
  public:
    Experiment(std::vector<isa::Instruction> program,
               ExperimentConfig config = {});

    /** Unmonitored baseline (computed once, cached). */
    const PlatformResult& unmonitored();

    /**
     * Run under LBA with the experiment's configuration, on @p shards
     * lifeguard cores (a fresh lifeguard from @p factory per shard).
     * Without containment the records are encoded on one more thread
     * and the lifeguards' handlers run on a worker thread (the pool's
     * core::ThreeStageRun); read their state after the call returns,
     * and expect what a handler throws to be rethrown here.
     */
    PlatformResult runLba(const LifeguardFactory& factory,
                          unsigned shards = 1);

    /** Run under LBA, one shard, with explicit configuration overrides. */
    PlatformResult runLba(const LifeguardFactory& factory,
                          const LbaConfig& lba_config);

    /**
     * Run under LBA with explicit configuration and containment on
     * @p shards lifeguard cores: one tenant on a @p shards-lane
     * sched::LifeguardPool, with no baseline of its own. The application
     * runs on core 0, and shard s consumes on core
     * `max(lba_config.dispatch.core, 1) + s`; the hierarchy grows to
     * hold those cores. The findings are mergeShardFindings() of the
     * shards' lists, so one shard reports its lifeguard's own list.
     */
    PlatformResult runLba(const LifeguardFactory& factory,
                          const LbaConfig& lba_config,
                          const replay::ContainmentConfig& containment,
                          unsigned shards = 1);

    /** Run under the Valgrind-style DBI baseline. */
    PlatformResult runDbi(const LifeguardFactory& factory);

    const ExperimentConfig& config() const { return config_; }

  private:
    /** Fresh process with the program loaded. */
    sim::Process makeProcess() const;

    std::vector<isa::Instruction> program_;
    ExperimentConfig config_;
    std::optional<PlatformResult> unmonitored_;
};

} // namespace lba::core
