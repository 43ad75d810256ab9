/**
 * @file
 * End-to-end host-speed benchmark of the LBA simulator.
 *
 * Runs one workload through the public API, repeatedly, for a fixed
 * wall-clock budget, and writes every repetition's host timings and
 * simulated results as one JSON document (--out). hostbench/run.py
 * builds this binary, reduces the repetitions to medians, checks the
 * simulated results against hostbench/pinned.json and prints the
 * metrics; hostbench/README.md describes the workloads and metrics.
 *
 * Two modes:
 *
 *   --mode run    Untraced end-to-end repetitions. Each one is a whole
 *                 experiment: setup (workload::generate plus
 *                 core::Experiment construction, or LifeguardPool +
 *                 addTenant), baseline (Experiment::unmonitored),
 *                 monitored run (Experiment::runLba or
 *                 LifeguardPool::run) and collecting the simulated
 *                 results that run.py checks.
 *   --mode trace  The traced run: each program's record stream is
 *                 recorded once per repetition and replayed through
 *                 each layer's public entry points, with one span
 *                 around every call. Spans stay in memory and are
 *                 written to --spans at the end.
 *
 * Usage:
 *   e2e_host --workload NAME --seed N --seconds S --mode run|trace
 *            --out PATH [--spans PATH] [--instrs N]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.h"
#include "core/lba_system.h"
#include "core/runner.h"
#include "lifeguard/dispatch.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/taintcheck.h"
#include "log/capture.h"
#include "mem/hierarchy.h"
#include "sched/pool.h"
#include "stats/json.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace lba;
using Clock = std::chrono::steady_clock;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/** Retirements per timing window of the traced monitored run. */
constexpr std::uint64_t kWindowInstrs = 1000;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct TenantSpec
{
    const char* profile;
    std::uint64_t arrival_round;
};

struct WorkloadSpec
{
    const char* name;
    const char* lifeguard;
    std::vector<TenantSpec> tenants;
    /** Pool lanes; 0 = the single-lane core::Experiment path. */
    unsigned pool_lanes;
    /** Default dynamic-instruction budget per tenant. */
    std::uint64_t instructions;
};

const std::vector<WorkloadSpec>&
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {"mcf_addrcheck", "addrcheck", {{"mcf", 0}}, 0, 400'000},
        {"req_serve_bounds", "boundscheck", {{"req_serve", 0}}, 0, 400'000},
        {"pool4_taint",
         "taintcheck",
         {{"gzip", 0}, {"tidy", 0}, {"water", 0}, {"req_churn", 6}},
         4,
         120'000},
    };
    return all;
}

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : workloads()) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

core::LifeguardFactory
factoryFor(const std::string& lifeguard)
{
    if (lifeguard == "addrcheck") {
        return [] { return std::make_unique<lifeguards::AddrCheck>(); };
    }
    if (lifeguard == "boundscheck") {
        return [] { return std::make_unique<lifeguards::BoundsCheck>(); };
    }
    return [] { return std::make_unique<lifeguards::TaintCheck>(); };
}

/** One generated tenant program with its process configuration. */
struct Tenant
{
    std::string name;
    std::vector<isa::Instruction> program;
    sim::ProcessConfig process;
    std::uint64_t arrival_round = 0;
};

/**
 * Generate the workload's programs from @p seed. The seed perturbs each
 * Profile::seed (the generated code) and each ProcessConfig::input_seed
 * (the SYS_READ stream); seed 0 is the library's own profiles with the
 * default input seeds. The library only ever sees the generated programs.
 */
std::vector<Tenant>
generateTenants(const WorkloadSpec& spec, std::uint64_t seed,
                std::uint64_t instructions)
{
    std::vector<Tenant> tenants;
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
        workload::Profile profile =
            *workload::findProfile(spec.tenants[t].profile);
        profile.seed += seed * 1'000'003ull;
        Tenant tenant;
        tenant.name = profile.name;
        tenant.program =
            workload::generate(profile, {}, instructions).program;
        tenant.process.input_seed +=
            t + seed * 0x9e3779b97f4a7c15ull;
        tenant.arrival_round = spec.tenants[t].arrival_round;
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

// ---------------------------------------------------------------------------
// Simulated results (the correctness check)
// ---------------------------------------------------------------------------

void
writeExact(stats::JsonWriter& json, const std::string& key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json.key(key);
    json.raw(buf);
}

void
writeCycles(stats::JsonWriter& json, const std::string& key,
            const std::vector<Cycles>& values)
{
    json.key(key);
    json.beginArray();
    for (Cycles v : values) json.value(static_cast<std::uint64_t>(v));
    json.endArray();
}

void
writeFindings(stats::JsonWriter& json,
              const std::vector<lifeguard::Finding>& findings)
{
    std::map<std::string, std::uint64_t> by_kind;
    for (const lifeguard::Finding& f : findings) {
        ++by_kind[lifeguard::findingKindName(f.kind)];
    }
    json.key("findings");
    json.beginObject();
    for (const auto& [kind, count] : by_kind) json.field(kind, count);
    json.endObject();
}

void
writeStalls(stats::JsonWriter& json, const core::LbaRunStats& s)
{
    json.field("backpressure_stall_cycles",
               static_cast<std::uint64_t>(s.backpressure_stall_cycles));
    json.field("syscall_stall_cycles",
               static_cast<std::uint64_t>(s.syscall_stall_cycles));
    json.field("transport_wait_cycles",
               static_cast<std::uint64_t>(s.transport_wait_cycles));
    json.field("records_logged", s.records_logged);
    writeExact(json, "transport_bytes", s.transport_bytes);
    json.field("syscall_drains", s.syscall_drains);
}

std::string
simJson(const core::PlatformResult& base, const core::PlatformResult& lba)
{
    stats::JsonWriter json;
    json.beginObject();
    json.field("instructions", lba.instructions);
    json.field("total_cycles", static_cast<std::uint64_t>(lba.cycles));
    writeCycles(json, "unmonitored_cycles", {base.cycles});
    writeCycles(json, "lane_busy_cycles", {lba.lba.lifeguard_busy_cycles});
    writeStalls(json, lba.lba);
    writeFindings(json, lba.findings);
    json.endObject();
    return json.str();
}

std::string
simJson(const sched::PoolResult& pool)
{
    std::vector<Cycles> totals;
    std::vector<Cycles> unmonitored;
    std::vector<lifeguard::Finding> findings;
    std::uint64_t instructions = 0;
    std::uint64_t queued = 0;
    for (const sched::TenantStats& t : pool.tenants) {
        totals.push_back(t.total_cycles);
        unmonitored.push_back(t.unmonitored_cycles);
        findings.insert(findings.end(), t.findings.begin(),
                        t.findings.end());
        instructions += t.instructions;
        queued += t.was_queued ? 1 : 0;
    }
    stats::JsonWriter json;
    json.beginObject();
    json.field("instructions", instructions);
    json.field("total_cycles", static_cast<std::uint64_t>(pool.total_cycles));
    writeCycles(json, "tenant_total_cycles", totals);
    writeCycles(json, "unmonitored_cycles", unmonitored);
    writeCycles(json, "lane_busy_cycles", pool.lane_busy_cycles);
    writeStalls(json, pool.aggregate);
    json.field("lane_steals", pool.lane_steals);
    json.field("queued_tenants", queued);
    writeFindings(json, findings);
    json.endObject();
    return json.str();
}

double
meanSlowdown(const sched::PoolResult& pool)
{
    double sum = 0.0;
    for (const sched::TenantStats& t : pool.tenants) sum += t.slowdown;
    return pool.tenants.empty()
               ? 0.0
               : sum / static_cast<double>(pool.tenants.size());
}

sched::PoolConfig
poolConfig(const WorkloadSpec& spec)
{
    sched::PoolConfig config;
    config.lanes = spec.pool_lanes;
    config.policy = sched::Policy::kLagAware;
    return config;
}

// ---------------------------------------------------------------------------
// Untraced end-to-end repetitions
// ---------------------------------------------------------------------------

struct Rep
{
    double setup_s = 0.0;
    double baseline_s = 0.0;
    std::uint64_t baseline_instrs = 0;
    double run_s = 0.0;
    std::uint64_t run_instrs = 0;
    double experiment_s = 0.0;
    double sim_slowdown = 0.0;
    /** The simulated results, for run.py's check. */
    std::string sim;
};

Rep
runRep(const WorkloadSpec& spec, std::uint64_t seed,
       std::uint64_t instructions)
{
    Rep rep;
    core::LifeguardFactory factory = factoryFor(spec.lifeguard);
    Clock::time_point t0 = Clock::now();
    std::vector<Tenant> tenants =
        generateTenants(spec, seed, instructions);

    if (spec.pool_lanes == 0) {
        core::ExperimentConfig config;
        config.process = tenants[0].process;
        core::Experiment experiment(std::move(tenants[0].program), config);
        Clock::time_point t1 = Clock::now();
        const core::PlatformResult& base = experiment.unmonitored();
        Clock::time_point t2 = Clock::now();
        core::PlatformResult lba = experiment.runLba(factory);
        Clock::time_point t3 = Clock::now();
        rep.sim = simJson(base, lba);
        Clock::time_point t4 = Clock::now();
        rep.setup_s = seconds(t0, t1);
        rep.baseline_s = seconds(t1, t2);
        rep.baseline_instrs = base.instructions;
        rep.run_s = seconds(t2, t3);
        rep.run_instrs = lba.instructions;
        rep.experiment_s = seconds(t0, t4);
        rep.sim_slowdown = lba.slowdown;
        return rep;
    }

    sched::PoolConfig config = poolConfig(spec);
    sched::LifeguardPool pool(config, factory);
    for (const Tenant& t : tenants) {
        sched::TenantConfig tenant;
        tenant.name = t.name;
        tenant.program = t.program;
        tenant.process = t.process;
        tenant.arrival_round = t.arrival_round;
        pool.addTenant(std::move(tenant));
    }
    Clock::time_point t1 = Clock::now();
    for (Tenant& t : tenants) {
        core::ExperimentConfig base_config;
        base_config.process = t.process;
        base_config.hierarchy = config.hierarchy;
        core::Experiment experiment(std::move(t.program), base_config);
        rep.baseline_instrs += experiment.unmonitored().instructions;
    }
    Clock::time_point t2 = Clock::now();
    sched::PoolResult result = pool.run();
    Clock::time_point t3 = Clock::now();
    rep.sim = simJson(result);
    Clock::time_point t4 = Clock::now();
    for (const sched::TenantStats& t : result.tenants) {
        rep.run_instrs += t.instructions;
    }
    rep.setup_s = seconds(t0, t1);
    rep.baseline_s = seconds(t1, t2);
    rep.run_s = seconds(t2, t3);
    rep.experiment_s = seconds(t0, t4);
    rep.sim_slowdown = meanSlowdown(result);
    return rep;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/** One span: a timed call into a layer (times relative to run start). */
struct Span
{
    std::string name;
    std::string tenant;
    unsigned rep = 0;
    /** Index of the enclosing span (-1 for a repetition root). */
    long parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
};

/** In-memory span recorder; written out once, when the run ends. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    long
    begin(const std::string& name, long parent)
    {
        Span span;
        span.name = name;
        span.tenant = tenant_;
        span.rep = rep_;
        span.parent = parent;
        span.start_s = seconds(origin_, Clock::now());
        spans_.push_back(std::move(span));
        return static_cast<long>(spans_.size()) - 1;
    }

    /** Close span @p id. @return Its duration in seconds. */
    double
    end(long id)
    {
        Span& span = spans_[static_cast<std::size_t>(id)];
        span.end_s = seconds(origin_, Clock::now());
        return span.end_s - span.start_s;
    }

    void setRep(unsigned rep) { rep_ = rep; }
    void setTenant(const std::string& tenant) { tenant_ = tenant; }

    bool
    write(const std::string& path) const
    {
        std::ofstream out(path);
        for (const Span& s : spans_) {
            stats::JsonWriter json;
            json.beginObject();
            json.field("name", s.name);
            json.field("tenant", s.tenant);
            json.field("rep", static_cast<std::uint64_t>(s.rep));
            json.key("parent");
            json.raw(std::to_string(s.parent));
            json.field("start_s", s.start_s);
            json.field("end_s", s.end_s);
            json.endObject();
            out << json.str() << '\n';
        }
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    unsigned rep_ = 0;
    std::string tenant_;
};

/**
 * Forwarding observer around the monitored platform: passes every call
 * through and closes a timing window every kWindowInstrs retirements.
 * A window's time covers the whole pipeline (simulator plus observer)
 * over those retirements.
 */
class WindowObserver : public sim::RetireObserver
{
  public:
    WindowObserver(sim::RetireObserver& inner, std::vector<double>& windows)
        : inner_(inner), windows_(windows), last_(Clock::now())
    {
    }

    void
    onRetire(const sim::Retired& retired) override
    {
        inner_.onRetire(retired);
        if (++count_ == kWindowInstrs) {
            Clock::time_point now = Clock::now();
            windows_.push_back(seconds(last_, now) * 1e9 /
                               static_cast<double>(kWindowInstrs));
            last_ = now;
            count_ = 0;
        }
    }

    void onOsEvent(const sim::OsEvent& event) override
    {
        inner_.onOsEvent(event);
    }

    void onSyscallComplete(ThreadId tid) override
    {
        inner_.onSyscallComplete(tid);
    }

  private:
    sim::RetireObserver& inner_;
    std::vector<double>& windows_;
    Clock::time_point last_;
    std::uint64_t count_ = 0;
};

/** Per-repetition sums of the traced run, over the workload's tenants. */
struct LayerSums
{
    double generate_s = 0.0;
    double sim_s = 0.0;
    double record_s = 0.0;
    double cache_s = 0.0;
    double encode_s = 0.0;
    double dispatch_s = 0.0;
    /** Single-lane monitored run: traced (windows) and untraced. */
    double traced_s = 0.0;
    double untraced_s = 0.0;
    /** Pool only: the separately timed baselines and LifeguardPool::run. */
    double baseline_s = 0.0;
    double pool_s = 0.0;

    std::uint64_t instrs = 0;
    std::uint64_t mem_refs = 0;
    std::uint64_t records = 0;
    std::uint64_t cache_accesses = 0;
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t encoded_bits = 0;
    Cycles dispatch_cycles = 0;

    /** Platform counters (single-lane LbaSystem, or the pool's). */
    std::uint64_t flush_records = 0;
    std::uint64_t flush_batches = 0;
    std::uint64_t max_occupancy = 0;
    std::uint64_t syscall_drains = 0;
    double busy_frac = 0.0;
    double backpressure_frac = 0.0;

    /** Pool-only scheduler results (their 1-lane values elsewhere). */
    std::uint64_t lane_steals = 0;
    double lane_busy_imbalance = 1.0;
    double tenant_lag_p95 = 0.0;
    std::uint64_t queued = 0;

    /** Simulated results of the traced platform run (checked). */
    std::string sim;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Record one program's stream and time each layer over it, then run
 * the single-lane monitored platform twice: through the window
 * observer (traced) and directly (untraced), the traced one first when
 * @p traced_first.
 * @return The traced platform run's simulated results.
 */
core::PlatformResult
traceTenant(Tracer& tracer, long root, const Tenant& tenant,
            const core::LifeguardFactory& factory, bool traced_first,
            LayerSums& sums, std::vector<double>& windows)
{
    const mem::HierarchyConfig hierarchy_config;
    tracer.setTenant(tenant.name);

    // sim: functional execution alone, including mem::Memory.
    sim::Process bare(tenant.process);
    bare.load(tenant.program);
    long id = tracer.begin("sim.run", root);
    sim::RunResult run = bare.run(nullptr);
    sums.sim_s += tracer.end(id);
    sums.instrs += run.instructions;
    sums.mem_refs += bare.memRefs();

    // log: the same run forming and storing every record.
    sim::Process recorded(tenant.process);
    recorded.load(tenant.program);
    log::RecordingObserver recorder;
    recorder.stream.reserve(run.instructions + run.instructions / 2);
    id = tracer.begin("log.recording_run", root);
    recorded.run(&recorder);
    sums.record_s += tracer.end(id);
    const std::vector<log::EventRecord>& stream = recorder.stream;
    sums.records += stream.size();

    // mem: the application core's fetch and data accesses.
    {
        mem::CacheHierarchy hierarchy(hierarchy_config);
        id = tracer.begin("mem.app_accesses", root);
        for (const log::EventRecord& r : stream) {
            if (log::isAnnotation(r.type)) continue;
            hierarchy.instrFetch(0, r.pc);
            if (r.type == log::EventType::kLoad ||
                r.type == log::EventType::kStore) {
                hierarchy.dataAccess(0, r.addr,
                                     r.type == log::EventType::kStore);
            }
        }
        sums.cache_s += tracer.end(id);
        const mem::CacheStats& l1d = hierarchy.l1d(0).stats();
        const mem::CacheStats& l2 = hierarchy.l2().stats();
        sums.cache_accesses += hierarchy.l1i(0).stats().accesses() +
                               l1d.accesses();
        sums.l1d_accesses += l1d.accesses();
        sums.l1d_misses += l1d.misses;
        sums.l2_accesses += l2.accesses();
        sums.l2_misses += l2.misses;
    }

    // compress: the run's codec over the stream.
    {
        std::unique_ptr<compress::Encoder> encoder =
            compress::CodecRegistry::instance()
                .find(compress::kDefaultCodec)
                ->makeEncoder();
        std::vector<std::uint8_t> bytes(1 << 16);
        id = tracer.begin("compress.encode", root);
        std::size_t appended = 0;
        for (const log::EventRecord& r : stream) {
            encoder->append(r);
            if (++appended % 4096 == 0) {
                encoder->pull(bytes.data(), bytes.size());
            }
        }
        encoder->finishStream();
        while (encoder->pull(bytes.data(), bytes.size()) > 0) {
        }
        sums.encode_s += tracer.end(id);
        sums.encoded_bits += encoder->bitsWritten();
    }

    // lifeguard: a fresh lifeguard draining the stream in one batch.
    {
        std::unique_ptr<lifeguard::Lifeguard> guard = factory();
        mem::CacheHierarchy hierarchy(hierarchy_config);
        lifeguard::DispatchEngine engine(*guard, hierarchy);
        engine.assumeFunctionalOwner();
        id = tracer.begin("lifeguard.consume_batch", root);
        sums.dispatch_cycles +=
            engine.consumeBatch(stream.data(), stream.size());
        sums.dispatch_s += tracer.end(id);
    }

    // core: the single-lane monitored platform.
    core::PlatformResult result;
    auto monitored = [&](bool traced) {
        sim::Process process(tenant.process);
        process.load(tenant.program);
        mem::HierarchyConfig hc = hierarchy_config;
        hc.num_cores = std::max(hc.num_cores, 2u);
        mem::CacheHierarchy hierarchy(hc);
        std::unique_ptr<lifeguard::Lifeguard> guard = factory();
        core::LbaSystem system(*guard, hierarchy);
        if (!traced) {
            long span = tracer.begin("core.lba_run_untraced", root);
            process.run(&system);
            system.finish();
            sums.untraced_s += tracer.end(span);
            return;
        }
        WindowObserver observer(system, windows);
        long span = tracer.begin("core.lba_run", root);
        sim::RunResult monitored_run = process.run(&observer);
        system.finish();
        sums.traced_s += tracer.end(span);
        result.instructions = monitored_run.instructions;
        result.cycles = system.stats().total_cycles;
        result.lba = system.stats();
        result.findings = guard->findings();
        lifeguard::DispatchStats dispatch = system.dispatchStats();
        const core::LbaRunStats& stats = system.stats();
        sums.flush_records += dispatch.records;
        sums.flush_batches += dispatch.batches;
        sums.max_occupancy = std::max(sums.max_occupancy,
                                      system.bufferStats().max_occupancy);
        sums.syscall_drains += stats.syscall_drains;
        sums.busy_frac += ratio(static_cast<double>(
                                    stats.lifeguard_busy_cycles),
                                static_cast<double>(stats.total_cycles));
        sums.backpressure_frac +=
            ratio(static_cast<double>(stats.backpressure_stall_cycles),
                  static_cast<double>(stats.total_cycles));
    };
    monitored(traced_first);
    monitored(!traced_first);
    tracer.setTenant("");
    return result;
}

/**
 * Time LifeguardPool::run and the tenants' separately measured
 * baselines; take the platform counters from the pool's result.
 */
void
tracePool(Tracer& tracer, long root, const WorkloadSpec& spec,
          const std::vector<Tenant>& tenants,
          const core::LifeguardFactory& factory, LayerSums& sums)
{
    sched::PoolConfig config = poolConfig(spec);
    for (const Tenant& t : tenants) {
        tracer.setTenant(t.name);
        core::ExperimentConfig base_config;
        base_config.process = t.process;
        base_config.hierarchy = config.hierarchy;
        core::Experiment experiment(t.program, base_config);
        long id = tracer.begin("core.unmonitored", root);
        experiment.unmonitored();
        sums.baseline_s += tracer.end(id);
    }
    tracer.setTenant("");
    sched::LifeguardPool pool(config, factory);
    for (const Tenant& t : tenants) {
        sched::TenantConfig tenant;
        tenant.name = t.name;
        tenant.program = t.program;
        tenant.process = t.process;
        tenant.arrival_round = t.arrival_round;
        pool.addTenant(std::move(tenant));
    }
    long id = tracer.begin("sched.pool_run", root);
    sched::PoolResult result = pool.run();
    sums.pool_s += tracer.end(id);

    Cycles busy = 0;
    Cycles max_busy = 0;
    for (Cycles lane : result.lane_busy_cycles) {
        busy += lane;
        max_busy = std::max(max_busy, lane);
    }
    double lanes = static_cast<double>(result.lane_busy_cycles.size());
    Cycles tenant_cycles = 0;
    sums.tenant_lag_p95 = 0.0;
    sums.queued = 0;
    for (const sched::TenantStats& t : result.tenants) {
        sums.tenant_lag_p95 = std::max(sums.tenant_lag_p95, t.lag_p95);
        sums.queued += t.was_queued ? 1 : 0;
        tenant_cycles += t.total_cycles;
    }
    sums.syscall_drains = result.aggregate.syscall_drains;
    sums.busy_frac = ratio(static_cast<double>(busy),
                           lanes * static_cast<double>(result.total_cycles));
    sums.backpressure_frac = ratio(
        static_cast<double>(result.aggregate.backpressure_stall_cycles),
        static_cast<double>(tenant_cycles));
    sums.lane_steals = result.lane_steals;
    sums.lane_busy_imbalance =
        ratio(static_cast<double>(max_busy),
              static_cast<double>(busy) / lanes);
    sums.sim = simJson(result);
}

/** One traced repetition's per-layer metrics, plus the reconciliation. */
void
writeTraceRep(stats::JsonWriter& json, const LayerSums& s, bool pool,
              std::size_t tenants)
{
    const double instrs = static_cast<double>(s.instrs);
    const double records = static_cast<double>(s.records);
    const double capture_s = s.record_s - s.sim_s;
    // The observer span: host time the monitored platform adds on top
    // of functional simulation. Single lane: the traced LbaSystem run
    // (plus finish) minus the sim-only run of the same program. Pool:
    // LifeguardPool::run minus the tenants' baselines and sim-only runs.
    const double observer_s = pool ? s.pool_s - s.baseline_s - s.sim_s
                                   : s.traced_s - s.sim_s;
    const double children_s =
        capture_s + s.cache_s + s.encode_s + s.dispatch_s;
    const double per_instr = 1e9 / instrs;

    json.beginObject();
    json.key("metrics");
    json.beginObject();
    json.field("workload.generate_ms", s.generate_s * 1e3);
    json.field("sim.ns_per_instr", s.sim_s * per_instr);
    json.field("sim.mem_refs_per_instr",
               static_cast<double>(s.mem_refs) / instrs);
    json.field("mem.cache_ns_per_access",
               ratio(s.cache_s * 1e9, static_cast<double>(s.cache_accesses)));
    json.field("mem.l1d_miss_ratio",
               ratio(static_cast<double>(s.l1d_misses),
                     static_cast<double>(s.l1d_accesses)));
    json.field("mem.l2_miss_ratio",
               ratio(static_cast<double>(s.l2_misses),
                     static_cast<double>(s.l2_accesses)));
    json.field("log.capture_ns_per_record", capture_s * 1e9 / records);
    json.field("log.records_per_instr", records / instrs);
    json.field("compress.encode_ns_per_record", s.encode_s * 1e9 / records);
    json.field("compress.bytes_per_record",
               static_cast<double>(s.encoded_bits) / 8.0 / records);
    json.field("lifeguard.dispatch_ns_per_record",
               s.dispatch_s * 1e9 / records);
    json.field("lifeguard.cycles_per_record",
               static_cast<double>(s.dispatch_cycles) / records);
    json.field("core.observer_ns_per_instr", observer_s * per_instr);
    json.field("core.self_ns_per_instr",
               (observer_s - children_s) * per_instr);
    json.field("core.records_per_flush",
               ratio(static_cast<double>(s.flush_records),
                     static_cast<double>(s.flush_batches)));
    json.field("core.syscall_drains_per_kinstr",
               static_cast<double>(s.syscall_drains) * 1e3 / instrs);
    // Single-lane fractions are summed over tenants above; report the
    // mean (the pool's are already pool-wide).
    double n = pool ? 1.0 : static_cast<double>(tenants);
    json.field("core.lifeguard_busy_frac", s.busy_frac / n);
    json.field("core.backpressure_stall_frac", s.backpressure_frac / n);
    json.field("core.buffer_max_occupancy", s.max_occupancy);
    json.field("sched.lane_steals", s.lane_steals);
    json.field("sched.lane_busy_imbalance", s.lane_busy_imbalance);
    json.field("sched.tenant_lag_p95_cycles", s.tenant_lag_p95);
    json.field("sched.queued_tenants", s.queued);
    json.field("trace.overhead_pct",
               (ratio(s.traced_s, s.untraced_s) - 1.0) * 100.0);
    json.endObject();

    // Reconciliation of the observer span, in ns per instruction:
    // capture + cache + codec + dispatch + self == observer exactly.
    json.key("observer_split_ns_per_instr");
    json.beginObject();
    json.field("log.capture", capture_s * per_instr);
    json.field("mem.app_cache", s.cache_s * per_instr);
    json.field("compress.encode", s.encode_s * per_instr);
    json.field("lifeguard.dispatch", s.dispatch_s * per_instr);
    json.field("core.self", (observer_s - children_s) * per_instr);
    json.field("core.observer", observer_s * per_instr);
    json.endObject();
    json.key("sim");
    json.raw(s.sim);
    json.endObject();
}

LayerSums
traceRep(Tracer& tracer, unsigned rep, const WorkloadSpec& spec,
         std::uint64_t seed, std::uint64_t instructions,
         std::vector<double>& windows)
{
    LayerSums sums;
    core::LifeguardFactory factory = factoryFor(spec.lifeguard);
    tracer.setRep(rep);
    long root = tracer.begin("rep", -1);

    long id = tracer.begin("workload.generate", root);
    std::vector<Tenant> tenants = generateTenants(spec, seed, instructions);
    sums.generate_s = tracer.end(id);

    // Alternate which monitored variant runs first, so neither side of
    // trace.overhead_pct always runs on a warmer host.
    bool traced_first = rep % 2 == 0;
    for (const Tenant& tenant : tenants) {
        core::PlatformResult lba = traceTenant(
            tracer, root, tenant, factory, traced_first, sums, windows);
        if (spec.pool_lanes > 0) continue;
        // The single-lane workload's check: the traced platform run
        // must reproduce the untraced experiment's simulated results.
        core::ExperimentConfig config;
        config.process = tenant.process;
        core::Experiment experiment(tenant.program, config);
        tracer.setTenant(tenant.name);
        long base_id = tracer.begin("core.unmonitored", root);
        const core::PlatformResult& base = experiment.unmonitored();
        tracer.end(base_id);
        tracer.setTenant("");
        sums.sim = simJson(base, lba);
    }
    if (spec.pool_lanes > 0) {
        tracePool(tracer, root, spec, tenants, factory, sums);
    }
    tracer.end(root);
    return sums;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    std::string mode;
    std::string out;
    std::string spans;
    std::uint64_t instructions = 0;
};

bool
parseUnsigned(const char* text, std::uint64_t* out)
{
    if (text == nullptr || *text < '0' || *text > '9') return false;
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    *out = v;
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_host --workload NAME --seed N --seconds S "
                 "--mode run|trace --out PATH [--spans PATH] "
                 "[--instrs N]\nworkloads:");
    for (const WorkloadSpec& spec : workloads()) {
        std::fprintf(stderr, " %s", spec.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseOptions(int argc, char** argv, Options* options)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) return false;
        const char* value = argv[++i];
        if (flag == "--workload") {
            options->workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, &options->seed)) return false;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, &options->seconds)) return false;
        } else if (flag == "--mode") {
            options->mode = value;
        } else if (flag == "--out") {
            options->out = value;
        } else if (flag == "--spans") {
            options->spans = value;
        } else if (flag == "--instrs") {
            if (!parseUnsigned(value, &options->instructions) ||
                options->instructions == 0) {
                return false;
            }
        } else {
            return false;
        }
    }
    return have_seed && options->seconds > 0 && !options->out.empty() &&
           (options->mode == "run" || options->mode == "trace");
}

void
writeMetadata(stats::JsonWriter& json, const Options& options,
              const WorkloadSpec& spec, std::uint64_t instructions)
{
    json.field("mode", options.mode);
    json.field("workload", options.workload);
    json.field("lifeguard", spec.lifeguard);
    json.field("seed", options.seed);
    json.field("seconds", options.seconds);
    json.field("instructions_per_tenant", instructions);
    json.key("tenants");
    json.beginArray();
    for (const TenantSpec& t : spec.tenants) json.value(t.profile);
    json.endArray();
    json.field("pool_lanes", static_cast<std::uint64_t>(spec.pool_lanes));
    json.field("compiler", LBA_HOSTBENCH_COMPILER);
    json.field("build_type", LBA_HOSTBENCH_BUILD_TYPE);
    json.field("optimized", kOptimized);
    json.field("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()));
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
writeRep(stats::JsonWriter& json, const Rep& rep)
{
    json.beginObject();
    json.field("setup_s", rep.setup_s);
    json.field("baseline_s", rep.baseline_s);
    json.field("baseline_instrs", rep.baseline_instrs);
    json.field("run_s", rep.run_s);
    json.field("run_instrs", rep.run_instrs);
    json.field("experiment_s", rep.experiment_s);
    json.field("sim_slowdown", rep.sim_slowdown);
    json.key("sim");
    json.raw(rep.sim);
    json.endObject();
}

/**
 * Untraced mode: one warm-up experiment (its results are checked, its
 * times are not used), then experiments until @p options.seconds of
 * wall time have passed, at least three.
 */
void
runMode(stats::JsonWriter& json, const Options& options,
        const WorkloadSpec& spec, std::uint64_t instructions)
{
    Rep warmup = runRep(spec, options.seed, instructions);
    json.key("warmup");
    writeRep(json, warmup);
    json.key("reps");
    json.beginArray();
    Clock::time_point start = Clock::now();
    for (unsigned n = 0;; ++n) {
        double elapsed = seconds(start, Clock::now());
        if (n >= 3 && elapsed >= static_cast<double>(options.seconds)) {
            break;
        }
        writeRep(json, runRep(spec, options.seed, instructions));
    }
    json.endArray();
    json.field("peak_rss_mb", peakRssMb());
}

/**
 * Traced mode: one warm-up repetition (spans kept, metrics dropped),
 * then repetitions until @p options.seconds have passed, at least two.
 */
bool
traceMode(stats::JsonWriter& json, const Options& options,
          const WorkloadSpec& spec, std::uint64_t instructions)
{
    Tracer tracer;
    std::vector<double> windows;
    bool pool = spec.pool_lanes > 0;
    LayerSums warmup =
        traceRep(tracer, 0, spec, options.seed, instructions, windows);
    windows.clear();
    json.key("warmup");
    writeTraceRep(json, warmup, pool, spec.tenants.size());
    json.key("reps");
    json.beginArray();
    Clock::time_point start = Clock::now();
    for (unsigned n = 0;; ++n) {
        double elapsed = seconds(start, Clock::now());
        if (n >= 2 && elapsed >= static_cast<double>(options.seconds)) {
            break;
        }
        LayerSums sums = traceRep(tracer, n + 1, spec, options.seed,
                                  instructions, windows);
        writeTraceRep(json, sums, pool, spec.tenants.size());
    }
    json.endArray();
    json.field("window_instrs", kWindowInstrs);
    json.key("windows_ns_per_instr");
    json.beginArray();
    for (double w : windows) json.value(w);
    json.endArray();
    return options.spans.empty() || tracer.write(options.spans);
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseOptions(argc, argv, &options)) return usage();
    const WorkloadSpec* spec = findWorkload(options.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     options.workload.c_str());
        return usage();
    }
    if (!kOptimized) {
        std::fprintf(stderr, "e2e_host: refusing to time a build without "
                             "optimisation (configure with "
                             "-DCMAKE_BUILD_TYPE=Release)\n");
        return 3;
    }
    // This thread builds and drives every platform below.
    threading::assumeCoordinatorRole();
    std::uint64_t instructions = options.instructions
                                     ? options.instructions
                                     : spec->instructions;

    stats::JsonWriter json;
    json.beginObject();
    writeMetadata(json, options, *spec, instructions);
    bool spans_ok = true;
    if (options.mode == "run") {
        runMode(json, options, *spec, instructions);
    } else {
        spans_ok = traceMode(json, options, *spec, instructions);
    }
    json.endObject();

    std::ofstream out(options.out);
    out << json.str() << '\n';
    if (!out || !spans_ok) {
        std::fprintf(stderr, "e2e_host: cannot write the report\n");
        return 1;
    }
    return 0;
}
