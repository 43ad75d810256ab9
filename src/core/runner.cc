/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <thread>

#include "common/assert.h"
#include "log/capture.h"

namespace lba::core {

namespace {

/** Host cache line size. */
constexpr std::size_t kLine = 64;

/**
 * The two-thread schedule of runLba without containment. The calling
 * thread runs the producer half of every record: Process::run, capture
 * and LbaSystem::produce (the address filter and the codec). One worker
 * thread runs LbaSystem::consume over whole windows of (record, bytes)
 * pairs, in capture order: the application core's retire timing,
 * routing, slot reservation, transport, lifeguard dispatch and the
 * syscall drain.
 *
 * The results are those of LbaSystem driven inline: every simulated
 * number depends only on record order and each record's bytes, and
 * without containment the simulator reads no timing state. So the
 * threads need only one release/acquire handoff per window each way:
 * the producer publishes a filled window, and the worker hands back
 * the one it consumed. State one thread writes and the other reads
 * sits on cache lines of its own.
 */
class TwoThreadRun final : public sim::RetireObserver
{
  public:
    /** Start the worker, which consumes into @p system. */
    explicit TwoThreadRun(LbaSystem& system)
        : system_(system), windows_(std::make_unique<Window[]>(kWindows)),
          worker_([this] { work(); })
    {
    }

    /** Close the ring and join the worker, if finish() did not. */
    ~TwoThreadRun() override { close(); }

    TwoThreadRun(const TwoThreadRun&) = delete;
    TwoThreadRun& operator=(const TwoThreadRun&) = delete;

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

    /**
     * Hand over the last partial window, close the ring and join the
     * worker. Rethrows what the worker threw.
     */
    void
    finish()
    {
        close();
        if (error_) std::rethrow_exception(error_);
    }

  private:
    struct Entry
    {
        log::EventRecord record;
        double bytes = 0.0;
    };

    struct alignas(kLine) Window
    {
        /** Entries the producer filled, set before it publishes. */
        std::size_t count = 0;
        alignas(kLine) std::array<Entry, kWindowRecords> entries;
    };

    void
    push(const log::EventRecord& record)
    {
        Window& window = windows_[published_windows_ % kWindows];
        window.entries[fill_] = {record, system_.produce(record)};
        if (++fill_ == kWindowRecords) publish(false);
    }

    /**
     * Publish the window being filled, if it holds any entries; with
     * @p closing, mark the ring closed in the same store, so the worker
     * cannot see the mark without the final window. Otherwise wait
     * until the next window's slot is free: the worker consumed the
     * window that used it kWindows ago, or failed.
     */
    void
    publish(bool closing)
    {
        if (fill_ > 0) {
            windows_[published_windows_ % kWindows].count = fill_;
            ++published_windows_;
            fill_ = 0;
        }
        published_.store(published_windows_ << 1 | (closing ? 1 : 0),
                         std::memory_order_release);
        published_.notify_one();
        if (closing) return;
        std::uint64_t consumed = consumed_.load(std::memory_order_acquire);
        while (!(consumed & 1) &&
               (consumed >> 1) + kWindows <= published_windows_) {
            consumed_.wait(consumed, std::memory_order_acquire);
            consumed = consumed_.load(std::memory_order_acquire);
        }
    }

    /** The worker: consume published windows until the ring closes. */
    void
    work()
    {
        std::uint64_t done = 0;
        try {
            for (;;) {
                std::uint64_t word =
                    published_.load(std::memory_order_acquire);
                if (word >> 1 == done) {
                    if (word & 1) return;
                    published_.wait(word, std::memory_order_acquire);
                    continue;
                }
                for (; done < word >> 1; ++done) {
                    const Window& window = windows_[done % kWindows];
                    for (std::size_t i = 0; i < window.count; ++i) {
                        system_.consume(window.entries[i].record,
                                        window.entries[i].bytes);
                    }
                    consumed_.store((done + 1) << 1,
                                    std::memory_order_release);
                    consumed_.notify_one();
                }
            }
        } catch (...) {
            // Forwarded to finish(); the failed bit stops the producer
            // from waiting on a worker that is gone.
            error_ = std::current_exception();
            consumed_.store(done << 1 | 1, std::memory_order_release);
            consumed_.notify_one();
        }
    }

    void
    close()
    {
        if (!worker_.joinable()) return;
        publish(true);
        worker_.join();
    }

    LbaSystem& system_;
    std::unique_ptr<Window[]> windows_;

    /** Producer thread only: windows published, entries in the one
     *  being filled. */
    alignas(kLine) std::uint64_t published_windows_ = 0;
    std::size_t fill_ = 0;

    /** (windows published << 1) | ring closed. */
    alignas(kLine) std::atomic<std::uint64_t> published_{0};
    /** (windows consumed << 1) | worker failed. */
    alignas(kLine) std::atomic<std::uint64_t> consumed_{0};
    /** What the worker threw (read after the join). */
    std::exception_ptr error_;
    /** Last member: it starts once everything it uses exists. */
    std::thread worker_;
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
        // Declared after system, so its worker is joined before the
        // system, hierarchy and lifeguards it uses are destroyed, on
        // every exit path.
        TwoThreadRun schedule(system);
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
