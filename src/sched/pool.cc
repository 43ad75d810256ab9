/**
 * @file
 * Multi-tenant lifeguard pool implementation.
 */

#include "sched/pool.h"

#include <algorithm>

#include "common/assert.h"
#include "core/lba_system.h"
#include "log/capture.h"

namespace lba::sched {

using log::EventRecord;

/** One tenant's full runtime state. */
struct LifeguardPool::Tenant
{
    TenantConfig config;
    unsigned index;
    /** Admission-control demand (bytes/cycle). */
    double demand = 0.0;
    bool admitted = false;
    bool was_queued = false;
    bool rejected = false;
    bool finished = false;
    Cycles unmonitored_cycles = 0;

    /** Retired instructions observed by the pool (detach clock). */
    std::uint64_t observed_instructions = 0;
    /** The detach threshold fired; the current slice is the last. */
    bool detach_requested = false;
    /** Tenant was removed by its detach threshold. */
    bool detached = false;

    std::unique_ptr<sim::Process> process;
    /** One lifeguard shard context per pool lane (fixed functional
     *  sharding; the scheduler only moves contexts between lanes). */
    std::vector<std::unique_ptr<lifeguard::Lifeguard>> shards;
    std::vector<std::unique_ptr<lifeguard::DispatchEngine>> engines;
    /** Round-robin cursor for non-memory instruction records. */
    std::uint64_t round_robin = 0;

    /** Rewind-and-repair driver (set when containment is enabled). */
    std::unique_ptr<replay::ContainmentManager> manager;
    /** The abort repair policy terminated this tenant. */
    bool aborted = false;

    stats::Histogram lag_hist;
    /** Lag accumulated during the tenant's current execution slice. */
    double window_lag_sum = 0.0;
    std::uint64_t window_lag_count = 0;
    /** Mean consume lag over the tenant's most recent slice. */
    double recent_lag = 0.0;
    /** recent_lag holds a real measurement (>= 1 slice with records). */
    bool lag_valid = false;

    sim::RunResult run_result;

    Tenant(TenantConfig cfg, unsigned idx, const PoolConfig& pool)
        : config(std::move(cfg)),
          index(idx),
          lag_hist(pool.lag_hist_buckets, pool.lag_hist_bucket_width)
    {
    }
};

LifeguardPool::LifeguardPool(const PoolConfig& config,
                             core::LifeguardFactory factory)
    : config_(config), factory_(std::move(factory))
{
    LBA_ASSERT(config_.lanes >= 1, "pool needs at least one lane");
    LBA_ASSERT(config_.max_load > 0.0, "max_load must be positive");
    LBA_ASSERT(factory_ != nullptr, "pool needs a lifeguard factory");
    scheduler_ = makeScheduler(config_.policy, config_.lanes);

    // Pool drain bandwidth: the sum of the lanes' transport links. Any
    // unlimited lane makes the pool bandwidth unlimited (capacity 0).
    bool unlimited = false;
    double capacity = 0.0;
    for (unsigned lane = 0; lane < config_.lanes; ++lane) {
        double bw = config_.lba.transport_bytes_per_cycle;
        if (lane < config_.lane_limits.size() &&
            config_.lane_limits[lane].transport_bytes_per_cycle >= 0.0) {
            bw = config_.lane_limits[lane].transport_bytes_per_cycle;
        }
        if (bw <= 0.0) {
            unlimited = true;
            break;
        }
        capacity += bw;
    }
    capacity_ = unlimited ? 0.0 : capacity;
}

LifeguardPool::~LifeguardPool() = default;

unsigned
LifeguardPool::addTenant(TenantConfig tenant)
{
    LBA_ASSERT(!ran_, "cannot add tenants after run()");
    LBA_ASSERT(!tenant.program.empty(), "tenant needs a program");
    unsigned index = static_cast<unsigned>(tenants_.size());
    auto state =
        std::make_unique<Tenant>(std::move(tenant), index, config_);
    state->demand = state->config.demand_bytes_per_cycle;
    if (state->demand <= 0.0) {
        // LBA logs about one record per retired instruction at IPC <= 1:
        // a conservative demand estimate is the record's transport cost
        // per cycle (~2 B compressed, full width uncompressed).
        state->demand = config_.lba.compress
                            ? 2.0
                            : static_cast<double>(
                                  config_.lba.raw_record_bytes);
    }
    tenants_.push_back(std::move(state));
    return index;
}

bool
LifeguardPool::fits(const Tenant& tenant) const
{
    // An idle pool always accepts (a tenant too big for the transport
    // alone degrades through back-pressure rather than starving).
    if (active_.empty()) return true;
    if (capacity_ <= 0.0) return true;
    return load_ + tenant.demand <= capacity_ * config_.max_load;
}

void
LifeguardPool::activate(unsigned tenant)
{
    Tenant& t = *tenants_[tenant];
    t.admitted = true;
    active_.push_back(tenant);
    load_ += t.demand;
}

void
LifeguardPool::deliver(Tenant& tenant, const EventRecord& record)
{
    unsigned shard =
        core::routeRecord(record, config_.lanes, tenant.round_robin);
    targets_.clear();
    if (shard == core::kBroadcast) {
        for (unsigned s = 0; s < config_.lanes; ++s) {
            targets_.push_back({scheduler_->laneFor(tenant.index, s),
                                tenant.engines[s].get()});
        }
    } else {
        targets_.push_back({scheduler_->laneFor(tenant.index, shard),
                            tenant.engines[shard].get()});
    }
    timer_->log(tenant.index, record, targets_);
}

void
LifeguardPool::onRetire(const sim::Retired& retired)
{
    Tenant& tenant = *tenants_[current_];
    timer_->retire(current_, retired);
    deliver(tenant, log::CaptureUnit::makeRecord(retired));
    if (retired.is_syscall) {
        // Same containment ordering as LbaSystem: the drain is
        // armed after the syscall record itself is logged and applied
        // before the next retirement, so the annotation records emitted
        // by this syscall's onOsEvent are drained too.
        timer_->noteSyscall(current_);
    }
    // Detach clock: mirror the instruction-limit completion exactly —
    // the threshold retirement is the last one the platform observes.
    ++tenant.observed_instructions;
    if (tenant.config.detach_after_instructions > 0 &&
        !tenant.detach_requested &&
        tenant.observed_instructions >=
            tenant.config.detach_after_instructions) {
        tenant.detach_requested = true;
        tenant.process->requestStop();
    }
    if (sliced_ && --slice_remaining_ == 0) {
        tenant.process->requestStop();
    }
}

void
LifeguardPool::onOsEvent(const sim::OsEvent& event)
{
    deliver(*tenants_[current_], log::CaptureUnit::makeRecord(event));
}

void
LifeguardPool::epoch()
{
    // Each tenant's backlog signal is the mean lag over its own most
    // recent slice — NOT the lag since the last epoch, because only one
    // tenant executes per slice and everyone else's window would read
    // as a phantom zero. Rebalance only once every active tenant has a
    // real measurement, so nobody is robbed for having not run yet.
    for (unsigned index : active_) {
        Tenant& t = *tenants_[index];
        if (!t.lag_valid) return;
    }
    std::vector<double> recent;
    recent.reserve(active_.size());
    for (unsigned index : active_) {
        recent.push_back(tenants_[index]->recent_lag);
    }
    scheduler_->onEpoch(active_, recent);
}

PoolResult
LifeguardPool::run()
{
    LBA_ASSERT(!ran_, "run() called twice");
    LBA_ASSERT(!tenants_.empty(), "pool needs at least one tenant");
    ran_ = true;
    unsigned ntenants = static_cast<unsigned>(tenants_.size());

    // Unmonitored baselines (per-tenant slowdown denominators), each on
    // its own private hierarchy via the experiment runner.
    for (auto& tenant : tenants_) {
        core::ExperimentConfig base_config;
        base_config.process = tenant->config.process;
        base_config.hierarchy = config_.hierarchy;
        core::Experiment experiment(tenant->config.program, base_config);
        tenant->unmonitored_cycles = experiment.unmonitored().cycles;
    }

    // The monitored platform: tenant t's application runs on core t,
    // lanes start at core dispatch.core. With one tenant this is
    // exactly the layout Experiment::runLba builds.
    core::LbaConfig lba = config_.lba;
    lba.app_core = 0;
    lba.dispatch.core = std::max(lba.dispatch.core, ntenants);
    mem::HierarchyConfig hc = config_.hierarchy;
    unsigned needed = lba.dispatch.core + config_.lanes;
    if (hc.num_cores < needed) hc.num_cores = needed;
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(hc);
    timer_ = std::make_unique<core::PipelineTimer>(
        *hierarchy_, lba, config_.lanes, config_.lane_limits);
    for (unsigned t = 1; t < ntenants; ++t) {
        unsigned producer = timer_->addProducer(t);
        LBA_ASSERT(producer == t, "producer/tenant index drift");
    }
    timer_->setConsumeObserver(
        [this](unsigned producer, unsigned lane, const EventRecord&,
               Cycles lag, Cycles cost, double bytes) {
            (void)lane;
            (void)cost;
            (void)bytes;
            Tenant& t = *tenants_[producer];
            t.lag_hist.record(lag);
            t.window_lag_sum += static_cast<double>(lag);
            ++t.window_lag_count;
        });

    // Admission, in arrival order. Tenants with a later arrival round
    // go to the pending list and face admission when their round comes
    // up mid-drive.
    std::vector<unsigned> pending;
    for (unsigned t = 0; t < ntenants; ++t) {
        if (tenants_[t]->config.arrival_round > 0) {
            pending.push_back(t);
            continue;
        }
        if (fits(*tenants_[t])) {
            activate(t);
        } else if (config_.admission == AdmissionMode::kQueue) {
            tenants_[t]->was_queued = true;
            queued_.push_back(t);
        } else {
            tenants_[t]->rejected = true;
        }
    }
    std::stable_sort(pending.begin(), pending.end(),
                     [this](unsigned a, unsigned b) {
                         return tenants_[a]->config.arrival_round <
                                tenants_[b]->config.arrival_round;
                     });
    scheduler_->rebalance(active_);

    // Tenant runtime state — only for tenants that will actually run
    // (a rejected tenant never needs its process, shard contexts, or
    // their shadow memory).
    for (auto& tenant : tenants_) {
        if (tenant->rejected) continue;
        tenant->process =
            std::make_unique<sim::Process>(tenant->config.process);
        tenant->process->load(tenant->config.program);
        for (unsigned s = 0; s < config_.lanes; ++s) {
            tenant->shards.push_back(factory_());
            LBA_ASSERT(tenant->shards.back() != nullptr,
                       "lifeguard factory returned null");
            // Shard context s's engine runs on lane s's core wherever
            // the scheduler places it.
            tenant->engines.push_back(
                timer_->makeEngine(*tenant->shards.back(), s));
        }
        if (config_.containment.enabled) {
            // Per-tenant containment: the manager watches this tenant's
            // shard contexts and rewinds only this tenant's producer;
            // the store interceptor feeds its private undo log.
            std::vector<const lifeguard::Lifeguard*> watched;
            watched.reserve(tenant->shards.size());
            for (const auto& shard : tenant->shards) {
                watched.push_back(shard.get());
            }
            tenant->manager =
                std::make_unique<replay::ContainmentManager>(
                    *tenant->process, *timer_, tenant->index, *this,
                    std::move(watched), config_.containment);
            tenant->process->setStoreInterceptor(tenant->manager.get());
        }
    }

    // Drive: round-robin slices over the active tenants. A lone tenant
    // with an empty queue and no pending arrivals runs to completion
    // unsliced (no one to yield to), which preserves its solo thread
    // interleaving. The round counter advances once per executed slice
    // and gates pending arrivals, so attach timing is deterministic.
    std::size_t cursor = 0;
    std::uint64_t round = 0;
    while (!active_.empty() || !pending.empty() || !queued_.empty()) {
        // Arrivals due this round face admission now.
        bool membership_changed = false;
        while (!pending.empty() &&
               tenants_[pending.front()]->config.arrival_round <= round) {
            unsigned arriving = pending.front();
            pending.erase(pending.begin());
            if (fits(*tenants_[arriving])) {
                activate(arriving);
                membership_changed = true;
            } else if (config_.admission == AdmissionMode::kQueue) {
                tenants_[arriving]->was_queued = true;
                queued_.push_back(arriving);
            } else {
                tenants_[arriving]->rejected = true;
            }
        }
        // An idle pool always fits the queue head.
        while (active_.empty() && !queued_.empty()) {
            activate(queued_.front());
            queued_.erase(queued_.begin());
            membership_changed = true;
        }
        if (membership_changed) scheduler_->rebalance(active_);
        if (active_.empty()) {
            if (pending.empty()) break;
            // Nothing runnable: fast-forward to the next arrival.
            round = tenants_[pending.front()]->config.arrival_round;
            continue;
        }

        cursor %= active_.size();
        unsigned index = active_[cursor];
        Tenant& tenant = *tenants_[index];

        sliced_ = active_.size() > 1 || !queued_.empty() ||
                  !pending.empty();
        slice_remaining_ = config_.slice_instructions;
        current_ = index;
        sim::RetireObserver* observer =
            tenant.manager ? static_cast<sim::RetireObserver*>(
                                 tenant.manager.get())
                           : this;
        tenant.run_result = tenant.process->run(observer);

        // Fold this slice into the tenant's recent-lag measurement (a
        // slice may log no records, e.g. all-filtered; keep the last
        // real measurement then).
        if (tenant.window_lag_count > 0) {
            tenant.recent_lag =
                tenant.window_lag_sum /
                static_cast<double>(tenant.window_lag_count);
            tenant.lag_valid = true;
            tenant.window_lag_sum = 0.0;
            tenant.window_lag_count = 0;
        }

        // A stop can mean "slice exhausted" or "finding detected".
        // Containment handles the finding inline: drain this tenant's
        // lanes, rewind its process, repair — other tenants' clocks and
        // lane assignments are untouched. Abort falls through to the
        // completion path below.
        ++round;
        bool abort_tenant = false;
        if (tenant.run_result.stopped && tenant.manager &&
            tenant.manager->pendingFinding()) {
            abort_tenant = !tenant.manager->containAndRepair();
            tenant.aborted = abort_tenant;
        }
        if (tenant.run_result.stopped && !abort_tenant &&
            !tenant.detach_requested) {
            epoch();
            ++cursor;
            continue;
        }

        // Tenant complete (exit, deadlock, instruction limit or
        // detach): release its bandwidth share and let queued tenants
        // in.
        if (tenant.detach_requested && !abort_tenant) {
            tenant.detached = true;
        }
        tenant.finished = true;
        load_ -= tenant.demand;
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(cursor));
        while (!queued_.empty() && fits(*tenants_[queued_.front()])) {
            activate(queued_.front());
            queued_.erase(queued_.begin());
        }
        if (!active_.empty()) scheduler_->rebalance(active_);
    }

    // End-of-program lifeguard passes: every admitted tenant's every
    // shard context finishes on the lane currently hosting it.
    for (auto& tenant : tenants_) {
        if (!tenant->admitted) continue;
        for (unsigned s = 0; s < config_.lanes; ++s) {
            timer_->finishShard(tenant->index,
                                scheduler_->laneFor(tenant->index, s),
                                *tenant->engines[s]);
        }
    }
    timer_->seal();

    PoolResult result;
    result.policy = scheduler_->name();
    result.lane_steals = scheduler_->steals();
    result.aggregate = timer_->stats();
    result.total_cycles = result.aggregate.total_cycles;
    result.capacity_bytes_per_cycle = capacity_;
    for (unsigned lane = 0; lane < config_.lanes; ++lane) {
        core::LaneStats stats = timer_->laneStats(lane);
        result.lane_busy_cycles.push_back(stats.busy_cycles);
        result.lane_records.push_back(stats.records);
        result.lane_buffers.push_back(stats.buffer);
    }
    for (auto& tenant : tenants_) {
        TenantStats stats;
        stats.name = tenant->config.name;
        stats.admitted = tenant->admitted;
        stats.was_queued = tenant->was_queued;
        stats.rejected = tenant->rejected;
        stats.detached = tenant->detached;
        stats.demand_bytes_per_cycle = tenant->demand;
        stats.unmonitored_cycles = tenant->unmonitored_cycles;
        if (tenant->admitted) {
            stats.lba = timer_->producerStats(tenant->index);
            stats.instructions = stats.lba.app_instructions;
            stats.total_cycles = stats.lba.total_cycles;
            stats.slowdown =
                tenant->unmonitored_cycles
                    ? static_cast<double>(stats.total_cycles) /
                          static_cast<double>(tenant->unmonitored_cycles)
                    : 0.0;
            stats.lag_p50 = tenant->lag_hist.p50();
            stats.lag_p95 = tenant->lag_hist.p95();
            stats.lag_p99 = tenant->lag_hist.p99();
            stats.findings = core::mergeShardFindings(tenant->shards);
            if (tenant->manager) {
                tenant->manager->finalize();
                stats.containment_enabled = true;
                stats.aborted = tenant->aborted;
                stats.containment = tenant->manager->stats();
            }
        }
        result.tenants.push_back(std::move(stats));
    }
    return result;
}

} // namespace lba::sched
