/**
 * @file
 * lba_run — run a benchmark under a chosen lifeguard on each platform
 * and print the full report: the command-line face of the library.
 *
 * Usage:
 *   lba_run <benchmark> <addrcheck|taintcheck|lockset|bounds|memleak>
 *           [--instrs N] [--platform lba|dbi|both] [--shards N]
 *           [--transport-bw BYTES_PER_CYCLE]
 *           [--bugs uaf,double-free,leak,tainted-jump,race]
 *           [--tenants N] [--lanes M] [--sched static|rr|lag]
 *           [--containment abort|skip|patch|quarantine]
 *           [--checkpoint-interval N] [--json PATH]
 *
 * Without --tenants, one application runs on an LBA platform with
 * --shards lifeguard cores (default 1). With --tenants N the benchmark
 * argument may be a comma-separated list of profiles; the N tenants
 * cycle through it and share an M-lane lifeguard pool (--lanes,
 * default 2) under the chosen scheduling policy (src/sched/).
 * --shards applies only without --tenants, and --lanes and --sched
 * only with it; a flag given for the other mode is a usage error.
 * --containment enables rewind-and-repair containment under the chosen
 * repair policy (src/replay/containment.h); the `--containment=policy`
 * spelling is accepted too. --json writes a machine-readable copy of
 * the report to PATH. The transport accounting always runs the
 * value-prediction compressor, and the report names it as the codec.
 *
 * Numeric values must be plain decimals with nothing else in the
 * token: --instrs is at least 1, --shards and --lanes are 1..64,
 * --tenants is at most 256, --transport-bw is a finite number >= 0.
 * --platform must be exactly lba, dbi or both, and every
 * comma-separated --bugs token must be one of the five bug names.
 * Anything else is a usage error (exit 2) before any output. An
 * unknown benchmark, or a --json file that cannot be written, exits 1.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/memleak.h"
#include "lifeguards/taintcheck.h"
#include "parse_count.h"
#include "replay/containment.h"
#include "sched/pool.h"
#include "stats/json.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace lba;
using cli::parseCount;

/** Largest --shards / --lanes value: one simulated lifeguard core each. */
constexpr std::uint64_t kMaxLanes = 64;

/**
 * Largest --tenants value: four tenants per lane at kMaxLanes. Each
 * tenant is a generated program held in memory for the whole run.
 */
constexpr std::uint64_t kMaxTenants = 4 * kMaxLanes;

/** Parse all of @p text as a finite, non-negative bytes/cycle value. */
bool
parseBandwidth(const char* text, double* out)
{
    if ((*text < '0' || *text > '9') && *text != '.') return false;
    char* end = nullptr;
    double value = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(value)) return false;
    *out = value;
    return true;
}

/** Parse a comma-separated --bugs list; every token must name a bug. */
bool
parseBugs(const std::string& list, workload::BugInjection* bugs)
{
    *bugs = workload::BugInjection();
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = list.find(',', start);
        std::string name = list.substr(start, comma - start);
        if (name == "uaf") {
            bugs->use_after_free = true;
        } else if (name == "double-free") {
            bugs->double_free = true;
        } else if (name == "leak") {
            bugs->leak = true;
        } else if (name == "tainted-jump") {
            bugs->tainted_jump = true;
        } else if (name == "race") {
            bugs->race = true;
        } else {
            return false;
        }
        if (comma == std::string::npos) return true;
        start = comma + 1;
    }
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: lba_run <benchmark[,benchmark...]> "
        "<addrcheck|taintcheck|lockset|bounds|memleak>\n"
        "               [--instrs N] [--platform lba|dbi|both]\n"
        "               [--shards N] [--transport-bw BYTES_PER_CYCLE]\n"
        "               [--bugs uaf,double-free,leak,tainted-jump,race]\n"
        "               [--tenants N] [--lanes M] "
        "[--sched static|rr|lag]\n"
        "               [--containment abort|skip|patch|quarantine]\n"
        "               [--checkpoint-interval N] [--json PATH]\n");
    return 2;
}

void
printContainment(const replay::ContainmentStats& stats, bool aborted)
{
    std::printf("    containment: %llu checkpoints, %llu rewinds "
                "(max distance %llu instrs), %llu cycles charged%s\n",
                static_cast<unsigned long long>(stats.checkpoints),
                static_cast<unsigned long long>(stats.rewinds),
                static_cast<unsigned long long>(
                    stats.max_rewind_distance),
                static_cast<unsigned long long>(
                    stats.rewind_cycles + stats.checkpoint_stall_cycles),
                aborted ? " [aborted]" : "");
    std::printf("    repairs: %llu patched, %llu skipped, "
                "%llu quarantined, %llu aborted, %llu suppressed\n",
                static_cast<unsigned long long>(stats.repairs.patched),
                static_cast<unsigned long long>(stats.repairs.skipped),
                static_cast<unsigned long long>(
                    stats.repairs.quarantined),
                static_cast<unsigned long long>(stats.repairs.aborted),
                static_cast<unsigned long long>(
                    stats.repairs.suppressed));
}

void
appendContainmentJson(stats::JsonWriter& json, replay::RepairPolicy policy,
                      const replay::ContainmentStats& stats, bool aborted)
{
    json.key("containment");
    json.beginObject();
    json.field("policy", replay::repairPolicyName(policy));
    json.field("aborted", aborted);
    json.field("checkpoints", stats.checkpoints);
    json.field("syscall_checkpoints", stats.syscall_checkpoints);
    json.field("interval_checkpoints", stats.interval_checkpoints);
    json.field("undo_entries", stats.undo_entries);
    json.field("max_window_entries", stats.max_window_entries);
    json.field("rewinds", stats.rewinds);
    json.field("rewound_instructions", stats.rewound_instructions);
    json.field("max_rewind_distance", stats.max_rewind_distance);
    json.field("rewind_distance_p50",
               stats.rewind_distance.percentileUpperBound(0.50));
    json.field("rewind_distance_p95",
               stats.rewind_distance.percentileUpperBound(0.95));
    json.field("rewind_cycles",
               static_cast<std::uint64_t>(stats.rewind_cycles));
    json.field("checkpoint_stall_cycles",
               static_cast<std::uint64_t>(stats.checkpoint_stall_cycles));
    json.key("repairs");
    json.beginObject();
    json.field("patched", stats.repairs.patched);
    json.field("skipped", stats.repairs.skipped);
    json.field("quarantined", stats.repairs.quarantined);
    json.field("aborted", stats.repairs.aborted);
    json.field("suppressed", stats.repairs.suppressed);
    json.endObject();
    json.endObject();
}

void
printResult(const core::PlatformResult& result)
{
    std::printf("%-12s %12llu cycles   %6.2fx slowdown",
                result.platform.c_str(),
                static_cast<unsigned long long>(result.cycles),
                result.slowdown);
    if (result.platform == "lba") {
        std::printf("   (%.3f B/record via %s, %llu drains)",
                    result.lba.bytes_per_record, compress::kCodecName,
                    static_cast<unsigned long long>(
                        result.lba.syscall_drains));
    }
    std::printf("\n");
    if (result.containment_enabled) {
        printContainment(result.containment, result.aborted);
    }
    for (std::size_t s = 0; s < result.shards.size(); ++s) {
        const core::LaneStats& shard = result.shards[s];
        std::printf("    shard %zu: %llu records, %llu busy cycles "
                    "(%.0f%% busy), lag %.1f\n",
                    s, static_cast<unsigned long long>(shard.records),
                    static_cast<unsigned long long>(shard.busy_cycles),
                    100.0 * static_cast<double>(shard.busy_cycles) /
                        static_cast<double>(result.lba.total_cycles),
                    shard.mean_consume_lag);
    }
    for (const auto& finding : result.findings) {
        std::printf("    %s\n", lifeguard::toString(finding).c_str());
    }
}

void
appendResultJson(stats::JsonWriter& json,
                 const core::PlatformResult& result,
                 replay::RepairPolicy policy)
{
    json.beginObject();
    json.field("platform", result.platform);
    json.field("instructions", result.instructions);
    json.field("cycles", static_cast<std::uint64_t>(result.cycles));
    json.field("slowdown", result.slowdown);
    json.field("findings",
               static_cast<std::uint64_t>(result.findings.size()));
    if (result.platform == "lba") {
        json.field("shards",
                   static_cast<std::uint64_t>(result.shards.size()));
        json.field("bytes_per_record", result.lba.bytes_per_record);
        json.field("codec", compress::kCodecName);
        json.field("transport_bytes", result.lba.transport_bytes);
        json.field("mean_consume_lag", result.lba.mean_consume_lag);
    }
    if (result.containment_enabled) {
        appendContainmentJson(json, policy, result.containment,
                              result.aborted);
    }
    json.endObject();
}

/**
 * Write @p json to @p path ("" = disabled).
 * @return False when the file could not be opened, written or closed.
 */
bool
writeJson(const std::string& path, const stats::JsonWriter& json)
{
    if (path.empty()) return true;
    std::FILE* file = std::fopen(path.c_str(), "w");
    bool ok = file && std::fprintf(file, "%s\n", json.str().c_str()) >= 0;
    if (file && std::fclose(file) != 0) ok = false;
    if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

/** Split a comma-separated benchmark list. */
std::vector<std::string>
splitList(const std::string& list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

int
runMultiTenant(const std::vector<std::string>& benchmarks,
               const std::string& lifeguard_name,
               const core::LifeguardFactory& factory,
               std::uint64_t instrs, unsigned tenants, unsigned lanes,
               sched::Policy policy, double transport_bw,
               const workload::BugInjection& bugs,
               const replay::ContainmentConfig& containment,
               const std::string& json_path)
{
    sched::PoolConfig config;
    config.lanes = lanes;
    config.policy = policy;
    config.lba.transport_bytes_per_cycle = transport_bw;
    config.containment = containment;
    sched::LifeguardPool pool(config, factory);

    for (unsigned t = 0; t < tenants; ++t) {
        const std::string& name = benchmarks[t % benchmarks.size()];
        const workload::Profile* profile = workload::findProfile(name);
        if (!profile) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         name.c_str());
            return 1;
        }
        auto generated = workload::generate(*profile, bugs, instrs);
        sched::TenantConfig tenant;
        tenant.name = name + "#" + std::to_string(t);
        tenant.program = generated.program;
        // Distinct input streams so tenants are not in lockstep.
        tenant.process.input_seed = 0x1234abcd + t;
        pool.addTenant(std::move(tenant));
    }
    sched::PoolResult result = pool.run();

    std::printf("%u tenants on a %u-lane %s pool, policy %s "
                "(capacity %.1f B/cycle, %llu lane steals)\n\n",
                tenants, lanes, lifeguard_name.c_str(),
                result.policy.c_str(), result.capacity_bytes_per_cycle,
                static_cast<unsigned long long>(result.lane_steals));
    std::printf("%-12s %-8s %12s %9s %8s %8s %8s %9s\n", "tenant",
                "status", "cycles", "slowdown", "lag p50", "lag p95",
                "lag p99", "findings");
    for (const sched::TenantStats& tenant : result.tenants) {
        const char* status = tenant.was_queued ? "queued" : "ok";
        std::printf("%-12s %-8s %12llu %8.2fx %8.1f %8.1f %8.1f %9zu\n",
                    tenant.name.c_str(), status,
                    static_cast<unsigned long long>(tenant.total_cycles),
                    tenant.slowdown, tenant.lag_p50, tenant.lag_p95,
                    tenant.lag_p99, tenant.findings.size());
        if (tenant.containment_enabled &&
            (tenant.containment.rewinds > 0 || tenant.aborted)) {
            printContainment(tenant.containment, tenant.aborted);
        }
    }
    std::printf("\nmakespan %llu cycles; pool busy %llu lifeguard "
                "cycles over %u lanes\n",
                static_cast<unsigned long long>(result.total_cycles),
                static_cast<unsigned long long>(
                    result.aggregate.lifeguard_busy_cycles),
                lanes);

    stats::JsonWriter json;
    json.beginObject();
    json.field("tool", "lba_run");
    json.field("mode", "multi-tenant");
    json.field("lifeguard", lifeguard_name);
    json.field("codec", compress::kCodecName);
    json.field("policy", result.policy);
    json.field("lanes", static_cast<std::uint64_t>(lanes));
    json.field("capacity_bytes_per_cycle",
               result.capacity_bytes_per_cycle);
    json.field("lane_steals", result.lane_steals);
    json.field("makespan_cycles",
               static_cast<std::uint64_t>(result.total_cycles));
    json.key("tenants");
    json.beginArray();
    for (const sched::TenantStats& tenant : result.tenants) {
        json.beginObject();
        json.field("name", tenant.name);
        json.field("queued", tenant.was_queued);
        json.field("instructions", tenant.instructions);
        json.field("cycles",
                   static_cast<std::uint64_t>(tenant.total_cycles));
        json.field("slowdown", tenant.slowdown);
        json.field("lag_p50", tenant.lag_p50);
        json.field("lag_p95", tenant.lag_p95);
        json.field("lag_p99", tenant.lag_p99);
        json.field("transport_bytes", tenant.lba.transport_bytes);
        json.field("codec", compress::kCodecName);
        json.field("findings",
                   static_cast<std::uint64_t>(tenant.findings.size()));
        if (tenant.containment_enabled) {
            appendContainmentJson(json, containment.policy,
                                  tenant.containment, tenant.aborted);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return writeJson(json_path, json) ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 3) return usage();
    std::string benchmark = argv[1];
    std::string lifeguard_name = argv[2];

    std::uint64_t instrs = 250000;
    std::string platform = "both";
    unsigned shards = 1;
    unsigned tenants = 0;
    unsigned lanes = 2;
    sched::Policy policy = sched::Policy::kStatic;
    // Set by --shards (single-application runs only) and by --lanes or
    // --sched (pool runs only).
    bool single_flag = false;
    bool pool_flag = false;
    double transport_bw = 0.0;
    std::string json_path;
    workload::BugInjection bugs;
    replay::ContainmentConfig containment;
    constexpr std::uint64_t kUnbounded =
        std::numeric_limits<std::uint64_t>::max();
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        // The containment flags also accept the `--flag=value`
        // spelling; every other flag takes `--flag value` only.
        std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            // Not an over-read: the value is carried in arg itself.
            std::string value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            if (arg == "--containment") {
                containment.enabled = true;
                if (!replay::parseRepairPolicy(value,
                                               &containment.policy)) {
                    return usage();
                }
                continue;
            }
            if (arg == "--checkpoint-interval") {
                if (!parseCount(value.c_str(), 0, kUnbounded,
                                &containment.checkpoint_interval)) {
                    return usage();
                }
                continue;
            }
            return usage();
        }
        if (arg == "--instrs" && i + 1 < argc) {
            if (!parseCount(argv[++i], 1, kUnbounded, &instrs)) {
                return usage();
            }
        } else if (arg == "--platform" && i + 1 < argc) {
            platform = argv[++i];
            if (platform != "lba" && platform != "dbi" &&
                platform != "both") {
                return usage();
            }
        } else if (arg == "--shards" && i + 1 < argc) {
            if (!parseCount(argv[++i], 1, kMaxLanes, &shards)) {
                return usage();
            }
            single_flag = true;
        } else if (arg == "--tenants" && i + 1 < argc) {
            if (!parseCount(argv[++i], 0, kMaxTenants, &tenants)) {
                return usage();
            }
        } else if (arg == "--lanes" && i + 1 < argc) {
            if (!parseCount(argv[++i], 1, kMaxLanes, &lanes)) {
                return usage();
            }
            pool_flag = true;
        } else if (arg == "--sched" && i + 1 < argc) {
            if (!sched::parsePolicy(argv[++i], &policy)) return usage();
            pool_flag = true;
        } else if (arg == "--transport-bw" && i + 1 < argc) {
            if (!parseBandwidth(argv[++i], &transport_bw)) return usage();
        } else if (arg == "--containment" && i + 1 < argc) {
            containment.enabled = true;
            if (!replay::parseRepairPolicy(argv[++i],
                                           &containment.policy)) {
                return usage();
            }
        } else if (arg == "--checkpoint-interval" && i + 1 < argc) {
            if (!parseCount(argv[++i], 0, kUnbounded,
                            &containment.checkpoint_interval)) {
                return usage();
            }
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--bugs" && i + 1 < argc) {
            if (!parseBugs(argv[++i], &bugs)) return usage();
        } else {
            return usage();
        }
    }
    if (tenants > 0 ? single_flag : pool_flag) {
        std::fprintf(stderr, "--shards applies without --tenants; "
                             "--lanes and --sched require it\n");
        return usage();
    }
    if (containment.checkpoint_interval > 0 && !containment.enabled) {
        std::fprintf(stderr, "--checkpoint-interval requires "
                             "--containment <policy>\n");
        return usage();
    }
    if (containment.enabled && platform == "dbi" && tenants == 0) {
        // Containment is an LBA-platform feature; a DBI-only run would
        // silently ignore the flag.
        std::fprintf(stderr, "--containment requires an LBA platform "
                             "(--platform lba|both)\n");
        return usage();
    }

    core::LifeguardFactory factory;
    if (lifeguard_name == "addrcheck") {
        factory = [] {
            return std::make_unique<lifeguards::AddrCheck>();
        };
    } else if (lifeguard_name == "taintcheck") {
        factory = [] {
            return std::make_unique<lifeguards::TaintCheck>();
        };
    } else if (lifeguard_name == "lockset") {
        factory = [] {
            return std::make_unique<lifeguards::LockSet>();
        };
    } else if (lifeguard_name == "bounds") {
        factory = [] {
            return std::make_unique<lifeguards::BoundsCheck>();
        };
    } else if (lifeguard_name == "memleak") {
        factory = [] {
            return std::make_unique<lifeguards::MemLeak>();
        };
    } else {
        return usage();
    }

    if (tenants > 0) {
        auto benchmarks = splitList(benchmark);
        if (benchmarks.empty()) return usage();
        return runMultiTenant(benchmarks, lifeguard_name, factory,
                              instrs, tenants, lanes, policy,
                              transport_bw, bugs, containment,
                              json_path);
    }

    const workload::Profile* profile = workload::findProfile(benchmark);
    if (!profile) {
        std::fprintf(stderr, "unknown benchmark '%s'\n",
                     benchmark.c_str());
        return 1;
    }

    auto generated = workload::generate(*profile, bugs, instrs);
    core::ExperimentConfig config;
    config.lba.transport_bytes_per_cycle = transport_bw;
    config.containment = containment;
    core::Experiment experiment(generated.program, config);
    const auto& base = experiment.unmonitored();
    std::printf("%s under %s (%llu instructions, CPI %.2f "
                "unmonitored)\n\n",
                benchmark.c_str(), lifeguard_name.c_str(),
                static_cast<unsigned long long>(base.instructions),
                static_cast<double>(base.cycles) /
                    static_cast<double>(base.instructions));
    std::vector<core::PlatformResult> results;
    printResult(base);
    results.push_back(base);
    if (platform == "lba" || platform == "both") {
        results.push_back(experiment.runLba(factory, shards));
        printResult(results.back());
    }
    if (platform == "dbi" || platform == "both") {
        results.push_back(experiment.runDbi(factory));
        printResult(results.back());
    }

    stats::JsonWriter json;
    json.beginObject();
    json.field("tool", "lba_run");
    json.field("mode", "single");
    json.field("benchmark", benchmark);
    json.field("lifeguard", lifeguard_name);
    json.field("codec", compress::kCodecName);
    json.key("results");
    json.beginArray();
    for (const core::PlatformResult& result : results) {
        appendResultJson(json, result, containment.policy);
    }
    json.endArray();
    json.endObject();
    return writeJson(json_path, json) ? 0 : 1;
}
