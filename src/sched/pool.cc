/**
 * @file
 * Multi-tenant lifeguard pool implementation.
 */

#include "sched/pool.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <stop_token>
#include <thread>

#include "common/assert.h"
#include "core/lba_system.h"
#include "log/capture.h"

namespace lba::sched {

using log::EventRecord;

/**
 * One tenant's full runtime state. Under the three-stage schedule the
 * driver writes one group of fields at each slice end and the worker
 * another, so each group starts a host cache line, apart from the
 * fields set up before the drive that every thread reads (the encoder
 * reads only `system`). The tenant's lag statistics are its
 * producer's, in the pool's timer.
 */
struct LifeguardPool::Tenant
{
    TenantConfig config;
    unsigned index;

    std::unique_ptr<sim::Process> process;
    /** One lifeguard shard context per pool lane (fixed functional
     *  sharding; the scheduler only moves contexts between lanes). */
    std::vector<std::unique_ptr<lifeguard::Lifeguard>> shards;
    /** Producer `index` of the pool's timer, placed by placeShards(). */
    std::unique_ptr<core::LbaSystem> system;
    /** Rewind-and-repair driver (set when containment is enabled). */
    std::unique_ptr<replay::ContainmentManager> manager;

    /** Driver state (the calling thread), from a line of its own. */
    alignas(64) bool was_queued = false;
    /** The abort repair policy terminated this tenant. */
    bool aborted = false;
    /** Tenant was removed by its detach threshold. */
    bool detached = false;
    /** Retired instructions the pool observed in the tenant's finished
     *  slices (detach clock). */
    std::uint64_t observed_instructions = 0;
    /** The last slice's sim::Process::run result. */
    sim::RunResult run;

    /** Consumer state (the thread applying entries), on a line of its
     *  own: the lag window of the tenant's latest slice that consumed a
     *  record (empty until one has). */
    alignas(64) core::LagWindow recent_lag;

    Tenant(TenantConfig cfg, unsigned idx)
        : config(std::move(cfg)), index(idx)
    {
    }
};

LifeguardPool::LifeguardPool(const PoolConfig& config,
                             core::LifeguardFactory factory)
    : config_(config), factory_(std::move(factory)),
      scheduler_(config.policy, config.lanes)
{
    LBA_ASSERT(config_.slice_instructions >= 1,
               "pool slice must be at least one instruction");
    LBA_ASSERT(factory_ != nullptr, "pool needs a lifeguard factory");

    // Pool drain bandwidth: the sum of the lanes' transport links, or
    // 0 when they are unlimited.
    double bw = config_.lba.transport_bytes_per_cycle;
    for (unsigned lane = 0; bw > 0.0 && lane < config_.lanes; ++lane) {
        capacity_ += bw;
    }
}

LifeguardPool::~LifeguardPool() = default;

unsigned
LifeguardPool::addTenant(TenantConfig tenant)
{
    LBA_ASSERT(!ran_, "cannot add tenants after run()");
    LBA_ASSERT(!tenant.program.empty(), "tenant needs a program");
    unsigned index = static_cast<unsigned>(tenants_.size());
    tenants_.push_back(std::make_unique<Tenant>(std::move(tenant), index));
    return index;
}

bool
LifeguardPool::fits() const
{
    // An idle pool always accepts (a tenant too big for the transport
    // alone degrades through back-pressure rather than starving).
    if (active_.empty() || capacity_ <= 0.0) return true;
    // LBA logs about one record per retired instruction at IPC <= 1, so
    // each tenant's demand is taken as a record's transport cost per
    // cycle: ~2 B compressed, the full width uncompressed.
    double demand = config_.lba.compress
                        ? 2.0
                        : static_cast<double>(config_.lba.raw_record_bytes);
    return static_cast<double>(active_.size() + 1) * demand <= capacity_;
}

void
LifeguardPool::activate(unsigned tenant)
{
    active_.push_back(tenant);
    step(Op::Kind::kActivate, tenant);
}

void
LifeguardPool::onRetire(const sim::Retired& retired)
{
    submitRecord(log::CaptureUnit::makeRecord(retired));
    // Like the instruction limit, the retirement that ends the slice or
    // reaches the detach threshold is the last one the platform
    // observes.
    if (--slice_remaining_ == 0) tenants_[current_]->process->requestStop();
}

void
LifeguardPool::onOsEvent(const sim::OsEvent& event)
{
    submitRecord(log::CaptureUnit::makeRecord(event));
}

void
LifeguardPool::submitRecord(const EventRecord& record)
{
    if (!ring_) {
        Op op{record, 0.0, current_, 0, Op::Kind::kRecord};
        encode(op);
        apply(op);
        return;
    }
    // Filled in place, a field at a time: copying in a whole Op built
    // on the stack ran about 5% slower end to end on hostbench's
    // req_serve_bounds (4-vCPU Xeon). The encoder fills in the rest.
    Op& op = ring_->slot();
    op.record = record;
    op.tenant = current_;
    op.kind = Op::Kind::kRecord;
    if (!ring_->commit()) {
        // A later stage failed: simulating on would only delay the
        // rethrow in finish().
        stopped_ = true;
        tenants_[current_]->process->requestStop();
    }
}

void
LifeguardPool::step(Op::Kind kind, unsigned tenant)
{
    submit({{}, 0.0, tenant, 0, kind});
}

void
LifeguardPool::submit(const Op& op)
{
    if (!ring_) {
        apply(op);
        return;
    }
    ring_->slot() = op;
    if (!ring_->commit()) stopped_ = true;
}

void
LifeguardPool::encode(Op& op)
{
    if (op.kind != Op::Kind::kRecord) return;
    core::PipelineTimer::Encoded encoded =
        tenants_[op.tenant]->system->produce(op.record);
    op.bytes = encoded.bytes;
    op.l1_misses = encoded.l1_misses;
}

void
LifeguardPool::apply(const Op& op)
{
    switch (op.kind) {
      case Op::Kind::kRecord:
        tenants_[op.tenant]->system->consume(op.record,
                                             {op.bytes, op.l1_misses});
        return;
      case Op::Kind::kActivate:
        scheduled_.push_back(op.tenant);
        return;
      case Op::Kind::kDeactivate: {
        auto it = std::find(scheduled_.begin(), scheduled_.end(), op.tenant);
        LBA_ASSERT(it != scheduled_.end(), "deactivating an idle tenant");
        scheduled_.erase(it);
        return;
      }
      case Op::Kind::kRebalance:
        scheduler_.rebalance(scheduled_);
        placeShards();
        return;
      case Op::Kind::kSliceEnd: {
        // Take this slice's lag window from the timer as the tenant's
        // recent-lag measurement (a slice may log no records, e.g.
        // all-filtered; keep the last real measurement then).
        Tenant& tenant = *tenants_[op.tenant];
        core::LagWindow window = tenant.system->takeLagWindow();
        if (window.count > 0) tenant.recent_lag = window;
        return;
      }
      case Op::Kind::kEpoch:
        epoch();
        placeShards();
        return;
    }
}

void
LifeguardPool::placeShards()
{
    for (unsigned index : scheduled_) {
        core::LbaSystem& system = *tenants_[index]->system;
        for (unsigned s = 0; s < config_.lanes; ++s) {
            system.setLane(s, scheduler_.laneFor(index, s));
        }
    }
}

void
LifeguardPool::epoch()
{
    // Each tenant's backlog signal is the mean lag over its own most
    // recent slice — NOT the lag since the last epoch, because only one
    // tenant executes per slice and everyone else's window would read
    // as a phantom zero. Rebalance only once every active tenant has a
    // real measurement, so nobody is robbed for having not run yet.
    for (unsigned index : scheduled_) {
        if (tenants_[index]->recent_lag.count == 0) return;
    }
    std::vector<double> recent;
    recent.reserve(scheduled_.size());
    for (unsigned index : scheduled_) {
        recent.push_back(tenants_[index]->recent_lag.mean());
    }
    scheduler_.onEpoch(scheduled_, recent);
}

PoolResult
LifeguardPool::run()
{
    // Unmonitored baselines (per-tenant slowdown denominators), each on
    // its own private hierarchy via the experiment runner. They share
    // nothing with the monitored drive, so a thread of their own runs
    // them meanwhile. When drive() throws, the thread's destructor
    // requests a stop and joins it: the baseline in progress finishes
    // and no later one starts. On the normal path join() waits for all
    // of them.
    std::vector<Cycles> baselines(tenants_.size());
    std::exception_ptr baseline_error;
    std::jthread baseline_thread([&](std::stop_token stop) {
        try {
            for (std::size_t t = 0; t < baselines.size(); ++t) {
                if (stop.stop_requested()) return;
                core::ExperimentConfig base_config;
                base_config.process = tenants_[t]->config.process;
                base_config.hierarchy = config_.hierarchy;
                core::Experiment experiment(tenants_[t]->config.program,
                                            base_config);
                baselines[t] = experiment.unmonitored().cycles;
            }
        } catch (...) {
            baseline_error = std::current_exception();
        }
    });
    PoolResult result = drive();
    baseline_thread.join();
    if (baseline_error) std::rethrow_exception(baseline_error);

    for (std::size_t t = 0; t < baselines.size(); ++t) {
        TenantStats& stats = result.tenants[t];
        stats.unmonitored_cycles = baselines[t];
        if (baselines[t]) {
            stats.slowdown = static_cast<double>(stats.total_cycles) /
                             static_cast<double>(baselines[t]);
        }
    }
    return result;
}

PoolResult
LifeguardPool::drive()
{
    LBA_ASSERT(!ran_, "run() called twice");
    LBA_ASSERT(!tenants_.empty(), "pool needs at least one tenant");
    ran_ = true;
    unsigned ntenants = static_cast<unsigned>(tenants_.size());

    // The monitored platform: tenant t's application runs on core t,
    // and lane L consumes on core ntenants + L.
    mem::HierarchyConfig hc = config_.hierarchy;
    hc.num_cores = std::max(hc.num_cores, ntenants + config_.lanes);
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(hc);
    timer_ = std::make_unique<core::PipelineTimer>(*hierarchy_, config_.lba,
                                                   config_.lanes, ntenants);
    for (unsigned t = 1; t < ntenants; ++t) {
        unsigned producer = timer_->addProducer(t);
        LBA_ASSERT(producer == t, "producer/tenant index drift");
    }

    // Without containment an encoder thread encodes the records and a
    // worker applies them and the scheduler steps; with it, each is
    // encoded and applied at once, because the managers read the
    // lifeguards' findings after every record.
    if (!config_.containment.enabled) ring_.emplace(Encode{this}, Apply{this});

    // Every tenant's runtime state, before any of them runs.
    for (auto& tenant : tenants_) {
        tenant->process =
            std::make_unique<sim::Process>(tenant->config.process);
        tenant->process->load(tenant->config.program);
        std::vector<lifeguard::Lifeguard*> guards;
        for (unsigned s = 0; s < config_.lanes; ++s) {
            tenant->shards.push_back(factory_());
            LBA_ASSERT(tenant->shards.back() != nullptr,
                       "lifeguard factory returned null");
            guards.push_back(tenant->shards.back().get());
        }
        tenant->system = std::make_unique<core::LbaSystem>(
            guards, *timer_, tenant->index);
        if (config_.containment.enabled) {
            // Per-tenant containment: the manager watches this tenant's
            // shard contexts and rewinds only this tenant's producer.
            tenant->manager = std::make_unique<replay::ContainmentManager>(
                *tenant->process, *tenant->system, *this,
                config_.containment);
        }
    }

    // Tenants arrive in round order, in index order within a round;
    // those present from the start arrive at round 0.
    std::vector<unsigned> pending(ntenants);
    for (unsigned t = 0; t < ntenants; ++t) pending[t] = t;
    std::stable_sort(pending.begin(), pending.end(),
                     [this](unsigned a, unsigned b) {
                         return tenants_[a]->config.arrival_round <
                                tenants_[b]->config.arrival_round;
                     });

    // Drive: round-robin slices over the active tenants. A lone tenant
    // with an empty queue and no pending arrivals runs to completion
    // unsliced (no one to yield to), which preserves its solo thread
    // interleaving. The round counter advances once per executed slice
    // and gates pending arrivals, so attach timing is deterministic.
    // A failure in a later stage stops the drive at once.
    std::size_t cursor = 0;
    std::uint64_t round = 0;
    while (!stopped_ &&
           (!active_.empty() || !pending.empty() || !queued_.empty())) {
        // Arrivals due this round start, or wait in the queue.
        bool membership_changed = false;
        while (!pending.empty() &&
               tenants_[pending.front()]->config.arrival_round <= round) {
            unsigned arriving = pending.front();
            pending.erase(pending.begin());
            if (fits()) {
                activate(arriving);
                membership_changed = true;
            } else {
                tenants_[arriving]->was_queued = true;
                queued_.push_back(arriving);
            }
        }
        if (membership_changed) step(Op::Kind::kRebalance);
        if (active_.empty()) {
            // Nothing runnable, and nothing queued (an idle pool starts
            // whoever arrives): fast-forward to the next arrival.
            round = tenants_[pending.front()]->config.arrival_round;
            continue;
        }

        cursor %= active_.size();
        unsigned index = active_[cursor];
        Tenant& tenant = *tenants_[index];

        // The slice ends at the detach threshold, or after
        // slice_instructions retirements when anyone waits to run.
        std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();
        if (active_.size() > 1 || !queued_.empty() || !pending.empty()) {
            budget = config_.slice_instructions;
        }
        std::uint64_t detach = tenant.config.detach_after_instructions;
        if (detach > 0) {
            budget = std::min(budget, detach - tenant.observed_instructions);
        }
        slice_remaining_ = budget;
        current_ = index;
        sim::RetireObserver* observer =
            tenant.manager ? static_cast<sim::RetireObserver*>(
                                 tenant.manager.get())
                           : this;
        tenant.run = tenant.process->run(observer);
        tenant.observed_instructions += budget - slice_remaining_;
        bool detach_reached =
            detach > 0 && tenant.observed_instructions >= detach;
        step(Op::Kind::kSliceEnd, index);

        // A stop can mean "slice exhausted" or "finding detected".
        // Containment handles the finding inline: drain this tenant's
        // lanes, rewind its process, repair — other tenants' clocks and
        // lane assignments are untouched. Abort falls through to the
        // completion path below.
        ++round;
        bool abort_tenant = false;
        if (tenant.run.stopped && tenant.manager &&
            tenant.manager->pendingFinding()) {
            abort_tenant = !tenant.manager->containAndRepair();
            tenant.aborted = abort_tenant;
        }
        if (tenant.run.stopped && !abort_tenant && !detach_reached) {
            step(Op::Kind::kEpoch);
            ++cursor;
            continue;
        }

        // Tenant complete (exit, deadlock, instruction limit or
        // detach): release its bandwidth share and let queued tenants
        // in.
        tenant.detached = detach_reached && !abort_tenant;
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(cursor));
        step(Op::Kind::kDeactivate, index);
        while (!queued_.empty() && fits()) {
            activate(queued_.front());
            queued_.erase(queued_.begin());
        }
        if (!active_.empty()) step(Op::Kind::kRebalance);
    }
    // The encoder and the worker have handled every entry once
    // finish() returns, which rethrows what either threw.
    if (ring_) ring_->finish();

    // End-of-program lifeguard passes: every tenant's every shard
    // context finishes on the lane currently hosting it.
    for (auto& tenant : tenants_) tenant->system->finish();
    timer_->seal();

    PoolResult result;
    result.policy = scheduler_.name();
    result.lane_steals = scheduler_.steals();
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
        stats.was_queued = tenant->was_queued;
        stats.detached = tenant->detached;
        stats.run = tenant->run;
        stats.lba = tenant->system->stats();
        stats.instructions = stats.lba.app_instructions;
        stats.total_cycles = stats.lba.total_cycles;
        const stats::Histogram& lag = tenant->system->lagHistogram();
        stats.lag_p50 = lag.p50();
        stats.lag_p95 = lag.p95();
        stats.lag_p99 = lag.p99();
        stats.findings = core::mergeShardFindings(tenant->shards);
        if (tenant->manager) {
            tenant->manager->finalize();
            stats.containment_enabled = true;
            stats.aborted = tenant->aborted;
            stats.containment = tenant->manager->stats();
        }
        result.tenants.push_back(std::move(stats));
    }
    return result;
}

} // namespace lba::sched
