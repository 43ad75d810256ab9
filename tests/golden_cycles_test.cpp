/**
 * @file
 * The golden cycle corpus: the simulated results of a fixed
 * configuration matrix, pinned in tests/golden/cycles.jsonl.
 *
 * Every corpus line is one configuration rendered canonically with
 * stats::JsonWriter (doubles at round-trip precision), so the test
 * compares text and needs no JSON parser. A change to any simulated
 * cycle count, stall bucket, lane counter or finding shows up as a
 * named field of a named config. Refactors of the pipeline that must
 * keep results leave the file untouched; a change meant to move them
 * regenerates it with `scripts/regen_golden.sh BUILD_DIR` (which sets
 * the test-only LBA_GOLDEN_REGEN switch) and ships the reviewed diff.
 *
 * Matrix: each lifeguard on a bug-injected profile it catches and on a
 * clean profile, with one shard ("serial") and with 4; TaintCheck on
 * tidy with 3 shards, a count that is not a power of two; a constrained
 * config (64-record buffer, address filter, 0.75 B/cycle); the
 * uncompressed log on a 1.0 B/cycle transport it saturates; lag-aware
 * pools with 1 and 3 tenants; containment with real rewinds, with
 * one shard and in a 1-tenant pool; a 2-tenant lag-aware pool on
 * 500-instruction slices, whose steals follow each tenant's lag over
 * its latest slice; and each lifeguard's buggy program under the DBI
 * baseline.
 * Every config runs at most 30k instructions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/memleak.h"
#include "lifeguards/taintcheck.h"
#include "replay/containment.h"
#include "sched/pool.h"
#include "stats/json.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::core {
namespace {

constexpr std::uint64_t kBudget = 30'000;
constexpr unsigned kShards = 4;

/** One rendered corpus line and the offset each top-level field's key
 *  starts at (so a mismatch can be attributed to a field). */
struct GoldenLine
{
    std::string text;
    std::vector<std::pair<std::string, std::size_t>> fields;
};

/** A double at round-trip precision (JsonWriter's own %.10g is for
 *  reports, not for pinning). */
std::string
roundTrip(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Builds one canonical corpus line, field by field. */
class LineWriter
{
  public:
    explicit LineWriter(const std::string& config)
    {
        json_.beginObject();
        key("config");
        json_.value(config);
    }

    void
    u64(const std::string& name, std::uint64_t value)
    {
        key(name);
        json_.value(value);
    }

    void
    real(const std::string& name, double value)
    {
        key(name);
        json_.raw(roundTrip(value));
    }

    /** A pre-rendered JSON value (arrays, objects). */
    void
    raw(const std::string& name, const std::string& rendered)
    {
        key(name);
        json_.raw(rendered);
    }

    GoldenLine
    finish()
    {
        json_.endObject();
        return {json_.str(), std::move(fields_)};
    }

  private:
    void
    key(const std::string& name)
    {
        std::size_t at = json_.str().size();
        json_.key(name);
        if (json_.str()[at] == ',') ++at;
        fields_.emplace_back(name, at);
    }

    stats::JsonWriter json_;
    std::vector<std::pair<std::string, std::size_t>> fields_;
};

/**
 * Empty when @p expected equals @p actual; otherwise a message naming
 * @p config and the first top-level field whose text differs, with
 * both texts from that field on.
 */
std::string
describeMismatch(const std::string& config, const std::string& expected,
                 const GoldenLine& actual)
{
    if (expected == actual.text) return "";
    std::size_t i = 0;
    while (i < expected.size() && i < actual.text.size() &&
           expected[i] == actual.text[i]) {
        ++i;
    }
    std::string field = actual.fields.front().first;
    std::size_t start = 0;
    for (const auto& [name, offset] : actual.fields) {
        if (offset > i) break;
        field = name;
        start = offset;
    }
    auto excerpt = [start](const std::string& text) {
        return text.substr(start, 72);
    };
    return "config '" + config + "': first differing field '" + field +
           "'\n  expected: " + excerpt(expected) +
           "\n  actual:   " + excerpt(actual.text);
}

/** The config name of a corpus line ("" when malformed). */
std::string
configOf(const std::string& line)
{
    static const std::string kPrefix = "{\"config\":\"";
    if (line.compare(0, kPrefix.size(), kPrefix) != 0) return "";
    std::size_t end = line.find('"', kPrefix.size());
    if (end == std::string::npos) return "";
    return line.substr(kPrefix.size(), end - kPrefix.size());
}

std::string
findingsByKind(const std::vector<lifeguard::Finding>& findings)
{
    std::map<std::size_t, std::uint64_t> counts;
    for (const lifeguard::Finding& f : findings) {
        ++counts[static_cast<std::size_t>(f.kind)];
    }
    stats::JsonWriter json;
    json.beginObject();
    for (const auto& [kind, count] : counts) {
        json.field(lifeguard::findingKindName(
                       static_cast<lifeguard::FindingKind>(kind)),
                   count);
    }
    json.endObject();
    return json.str();
}

template <typename T>
std::string
u64Array(const std::vector<T>& values)
{
    stats::JsonWriter json;
    json.beginArray();
    for (T v : values) json.value(static_cast<std::uint64_t>(v));
    json.endArray();
    return json.str();
}

/** Per-lane log-buffer occupancy, one object per lane. */
std::string
bufferArray(const std::vector<BufferStats>& lanes)
{
    stats::JsonWriter json;
    json.beginArray();
    for (const BufferStats& buffer : lanes) {
        json.beginObject();
        json.field("pushes", buffer.pushes);
        json.field("pops", buffer.pops);
        json.field("max_occupancy", buffer.max_occupancy);
        json.endObject();
    }
    json.endArray();
    return json.str();
}

/** The run-stats fields every line carries (total_cycles aside). */
void
addRunStats(LineWriter& line, const LbaRunStats& stats)
{
    line.u64("app_cycles", stats.app_cycles);
    line.u64("backpressure_stall_cycles", stats.backpressure_stall_cycles);
    line.u64("syscall_stall_cycles", stats.syscall_stall_cycles);
    line.u64("transport_wait_cycles", stats.transport_wait_cycles);
    line.u64("containment_cycles", stats.containment_cycles);
    line.u64("lifeguard_busy_cycles", stats.lifeguard_busy_cycles);
    line.u64("records_logged", stats.records_logged);
    line.u64("records_filtered", stats.records_filtered);
    line.real("transport_bytes", stats.transport_bytes);
    line.real("bytes_per_record", stats.bytes_per_record);
    line.real("mean_consume_lag", stats.mean_consume_lag);
    line.u64("syscall_drains", stats.syscall_drains);
}

void
addContainment(LineWriter& line, const replay::ContainmentStats& stats)
{
    line.u64("checkpoints", stats.checkpoints);
    line.u64("rewinds", stats.rewinds);
    line.u64("rewound_instructions", stats.rewound_instructions);
    line.u64("max_rewind_distance", stats.max_rewind_distance);
    line.u64("rewind_cycles", stats.rewind_cycles);
}

workload::GeneratedProgram
program(const char* profile, const workload::BugInjection& bugs = {},
        std::uint64_t instrs = kBudget)
{
    return workload::generate(*workload::findProfile(profile), bugs,
                              instrs);
}

/**
 * One LBA run on @p shards lifeguard cores (Experiment::runLba),
 * rendered; contained when @p containment is enabled.
 */
GoldenLine
runLba(const std::string& name, const workload::GeneratedProgram& gen,
       const LifeguardFactory& factory, const LbaConfig& lba,
       unsigned shards, const replay::ContainmentConfig& containment = {})
{
    Experiment experiment(gen.program);
    PlatformResult result =
        experiment.runLba(factory, lba, containment, shards);

    LineWriter line(name);
    line.u64("total_cycles", result.lba.total_cycles);
    addRunStats(line, result.lba);
    std::vector<Cycles> busy;
    std::vector<BufferStats> buffers;
    for (const LaneStats& lane : result.shards) {
        busy.push_back(lane.busy_cycles);
        buffers.push_back(lane.buffer);
    }
    line.raw("lane_busy_cycles", u64Array(busy));
    line.raw("lane_buffers", bufferArray(buffers));
    line.raw("findings", findingsByKind(result.findings));
    if (result.containment_enabled) {
        addContainment(line, result.containment);
    }
    return line.finish();
}

/** One run under the DBI baseline (Experiment::runDbi), rendered: its
 *  DbiStats and findings. */
GoldenLine
runDbi(const std::string& name, const workload::GeneratedProgram& gen,
       const LifeguardFactory& factory)
{
    Experiment experiment(gen.program);
    PlatformResult result = experiment.runDbi(factory);

    LineWriter line(name);
    line.u64("instructions", result.dbi.app_instructions);
    line.u64("total_cycles", result.dbi.total_cycles);
    line.u64("app_cycles", result.dbi.app_cycles);
    line.u64("overhead_cycles", result.dbi.overhead_cycles);
    line.u64("handler_cycles", result.dbi.handler_cycles);
    line.raw("findings", findingsByKind(result.findings));
    return line.finish();
}

/** One pool run, rendered: the make-span, the aggregate, the lanes and
 *  each tenant's slice. */
GoldenLine
runPool(const std::string& name, const sched::PoolConfig& config,
        const LifeguardFactory& factory,
        const std::vector<std::pair<std::string,
                                    workload::GeneratedProgram>>& tenants)
{
    sched::LifeguardPool pool(config, factory);
    for (const auto& [tenant, gen] : tenants) {
        pool.addTenant({tenant, gen.program, {}});
    }
    sched::PoolResult result = pool.run();

    LineWriter line(name);
    line.u64("total_cycles", result.total_cycles);
    addRunStats(line, result.aggregate);
    line.raw("lane_busy_cycles", u64Array(result.lane_busy_cycles));
    line.raw("lane_records", u64Array(result.lane_records));
    line.raw("lane_buffers", bufferArray(result.lane_buffers));
    line.u64("lane_steals", result.lane_steals);
    stats::JsonWriter json;
    json.beginArray();
    for (const sched::TenantStats& t : result.tenants) {
        json.beginObject();
        json.field("name", t.name);
        json.field("total_cycles", static_cast<std::uint64_t>(t.total_cycles));
        json.field("app_cycles", static_cast<std::uint64_t>(t.lba.app_cycles));
        json.field("backpressure_stall_cycles",
                   static_cast<std::uint64_t>(t.lba.backpressure_stall_cycles));
        json.field("syscall_stall_cycles",
                   static_cast<std::uint64_t>(t.lba.syscall_stall_cycles));
        json.field("containment_cycles",
                   static_cast<std::uint64_t>(t.lba.containment_cycles));
        json.field("lifeguard_busy_cycles",
                   static_cast<std::uint64_t>(t.lba.lifeguard_busy_cycles));
        json.field("records_logged",
                   static_cast<std::uint64_t>(t.lba.records_logged));
        json.key("lag_p95");
        json.raw(roundTrip(t.lag_p95));
        json.key("findings");
        json.raw(findingsByKind(t.findings));
        if (t.containment_enabled) {
            json.field("rewinds",
                       static_cast<std::uint64_t>(t.containment.rewinds));
            json.field("rewind_cycles",
                       static_cast<std::uint64_t>(t.containment.rewind_cycles));
        }
        json.endObject();
    }
    json.endArray();
    line.raw("tenants", json.str());
    return line.finish();
}

template <typename Guard>
LifeguardFactory
make()
{
    return [] { return std::make_unique<Guard>(); };
}

/** MemLeak tightened so sweeps fire within the corpus budget. */
LifeguardFactory
memleak()
{
    return [] {
        lifeguards::MemLeakConfig config;
        config.sweep_period = 16;
        config.stale_epochs = 32;
        return std::make_unique<lifeguards::MemLeak>(config);
    };
}

struct GoldenConfig
{
    std::string name;
    std::function<GoldenLine(const std::string&)> run;
};

/** The whole matrix, in corpus order. */
std::vector<GoldenConfig>
corpus()
{
    std::vector<GoldenConfig> configs;

    workload::BugInjection uaf_leak;
    uaf_leak.use_after_free = true;
    uaf_leak.leak = true;
    workload::BugInjection tainted;
    tainted.tainted_jump = true;
    workload::BugInjection race;
    race.race = true;
    workload::BugInjection uaf;
    uaf.use_after_free = true;
    workload::BugInjection leak;
    leak.leak = true;

    struct Case
    {
        const char* guard;
        LifeguardFactory factory;
        const char* profile;
        workload::BugInjection bugs;
    };
    const std::vector<Case> cases = {
        {"addrcheck", make<lifeguards::AddrCheck>(), "bc", uaf_leak},
        {"addrcheck", make<lifeguards::AddrCheck>(), "mcf", {}},
        {"taintcheck", make<lifeguards::TaintCheck>(), "gzip", tainted},
        {"taintcheck", make<lifeguards::TaintCheck>(), "tidy", {}},
        {"lockset", make<lifeguards::LockSet>(), "water", race},
        {"lockset", make<lifeguards::LockSet>(), "zchaff", {}},
        {"bounds", make<lifeguards::BoundsCheck>(), "req_serve", uaf},
        {"bounds", make<lifeguards::BoundsCheck>(), "tidy", {}},
        {"memleak", memleak(), "req_serve", leak},
        {"memleak", memleak(), "bc", {}},
    };
    auto buggy = [](const Case& c) {
        return c.bugs.use_after_free || c.bugs.leak || c.bugs.tainted_jump ||
               c.bugs.race;
    };
    for (const Case& c : cases) {
        std::string base = std::string(c.guard) + "/" + c.profile +
                           (buggy(c) ? "+bugs" : "");
        for (unsigned shards : {1u, kShards}) {
            configs.push_back(
                {base + (shards > 1 ? "/shards4" : "/serial"),
                 [c, shards](const std::string& name) {
                     return runLba(name, program(c.profile, c.bugs),
                                   c.factory, LbaConfig{}, shards);
                 }});
        }
    }

    // A shard count that is not a power of two.
    configs.push_back({"taintcheck/tidy/shards3", [](const std::string&
                                                         name) {
        return runLba(name, program("tidy"), make<lifeguards::TaintCheck>(),
                      LbaConfig{}, 3);
    }});

    configs.push_back({"addrcheck/mcf/constrained", [](const std::string&
                                                           name) {
        LbaConfig lba;
        lba.buffer_capacity = 64;
        lba.filter_enabled = true;
        lba.filter_base = 0x10000000;
        lba.filter_bytes = 64ull << 20;
        lba.transport_bytes_per_cycle = 0.75;
        return runLba(name, program("mcf"), make<lifeguards::AddrCheck>(),
                      lba, 1);
    }});

    configs.push_back({"taintcheck/gzip/raw@1.0", [](const std::string&
                                                         name) {
        LbaConfig lba;
        lba.compress = false;
        lba.transport_bytes_per_cycle = 1.0;
        return runLba(name, program("gzip"), make<lifeguards::TaintCheck>(),
                      lba, 1);
    }});

    auto lagPool = [] {
        sched::PoolConfig config;
        config.lanes = 4;
        config.policy = sched::Policy::kLagAware;
        config.slice_instructions = 2'000;
        config.lba.buffer_capacity = 256;
        config.lba.transport_bytes_per_cycle = 1.5;
        return config;
    };
    configs.push_back({"pool/lag/1-tenant", [lagPool](const std::string&
                                                          name) {
        return runPool(name, lagPool(), make<lifeguards::AddrCheck>(),
                       {{"gzip", program("gzip")}});
    }});
    configs.push_back({"pool/lag/3-tenants", [lagPool](const std::string&
                                                           name) {
        return runPool(name, lagPool(), make<lifeguards::AddrCheck>(),
                       {{"gzip", program("gzip", {}, kBudget / 3)},
                        {"tidy", program("tidy", {}, kBudget / 3)},
                        {"mcf", program("mcf", {}, kBudget / 3)}});
    }});

    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kQuarantine;
    configs.push_back(
        {"containment/addrcheck/bc+bugs/serial",
         [containment, uaf_leak](const std::string& name) {
             return runLba(name, program("bc", uaf_leak),
                           make<lifeguards::AddrCheck>(), LbaConfig{}, 1,
                           containment);
         }});
    configs.push_back(
        {"containment/addrcheck/bc+bugs/pool1",
         [containment, uaf_leak](const std::string& name) {
             sched::PoolConfig config;
             config.lanes = 2;
             config.containment = containment;
             return runPool(name, config, make<lifeguards::AddrCheck>(),
                            {{"bc", program("bc", uaf_leak)}});
         }});

    // A lag-aware pool whose steals depend on each tenant's lag over
    // its latest slice: at one epoch bc's latest slice lags most while
    // gzip's lag since the run began is the larger, so a window that
    // never restarts steals for the wrong tenant.
    configs.push_back({"pool/lag/2-tenants/slice500",
                       [lagPool](const std::string& name) {
                           sched::PoolConfig config = lagPool();
                           config.slice_instructions = 500;
                           return runPool(
                               name, config, make<lifeguards::AddrCheck>(),
                               {{"bc", program("bc", {}, kBudget / 3)},
                                {"gzip", program("gzip", {}, kBudget / 3)}});
                       }});

    // The DBI baseline, each lifeguard on its serial line's buggy
    // program: the handlers' instructions at handler_instr_factor
    // cycles each and their metadata accesses through the application
    // core's caches.
    for (const Case& c : cases) {
        if (!buggy(c)) continue;
        configs.push_back(
            {std::string("dbi/") + c.guard + "/" + c.profile + "+bugs",
             [c](const std::string& name) {
                 return runDbi(name, program(c.profile, c.bugs), c.factory);
             }});
    }
    return configs;
}

std::vector<std::pair<std::string, GoldenLine>>
renderCorpus()
{
    std::vector<std::pair<std::string, GoldenLine>> lines;
    for (const GoldenConfig& config : corpus()) {
        lines.emplace_back(config.name, config.run(config.name));
    }
    return lines;
}

TEST(GoldenCycles, MatchesCorpus)
{
    std::vector<std::pair<std::string, GoldenLine>> actual = renderCorpus();
    std::string rendered;
    for (const auto& [name, line] : actual) rendered += line.text + "\n";

    if (const char* regen = std::getenv("LBA_GOLDEN_REGEN");
        regen && std::string(regen) == "1") {
        std::ofstream out(LBA_GOLDEN_FILE, std::ios::binary);
        out << rendered;
        ASSERT_TRUE(out.good()) << "cannot write " << LBA_GOLDEN_FILE;
        GTEST_SKIP() << "rewrote " << LBA_GOLDEN_FILE;
    }

    std::ifstream in(LBA_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << LBA_GOLDEN_FILE
                           << "; run scripts/regen_golden.sh BUILD_DIR";
    std::map<std::string, std::string> expected;
    std::stringstream whole;
    for (std::string line; std::getline(in, line);) {
        whole << line << "\n";
        std::string config = configOf(line);
        ASSERT_FALSE(config.empty()) << "malformed corpus line: " << line;
        ASSERT_TRUE(expected.emplace(config, line).second)
            << "duplicate corpus config '" << config << "'";
    }

    for (const auto& [name, line] : actual) {
        auto it = expected.find(name);
        if (it == expected.end()) {
            ADD_FAILURE() << "config '" << name << "' is not in the corpus";
            continue;
        }
        std::string why = describeMismatch(name, it->second, line);
        EXPECT_TRUE(why.empty()) << why;
        expected.erase(it);
    }
    for (const auto& [name, line] : expected) {
        ADD_FAILURE() << "corpus config '" << name
                      << "' is no longer generated";
    }
    EXPECT_EQ(whole.str(), rendered) << "corpus line order differs";
}

TEST(GoldenCycles, PerturbedLineNamesConfigAndField)
{
    const GoldenConfig config = corpus().front();
    GoldenLine line = config.run(config.name);
    EXPECT_TRUE(describeMismatch(config.name, line.text, line).empty());

    // Bump the last digit of one mid-line field in the expected text.
    const std::string key = "\"syscall_stall_cycles\":";
    std::size_t at = line.text.find(key);
    ASSERT_NE(at, std::string::npos);
    std::size_t digit = line.text.find_first_not_of("0123456789",
                                                    at + key.size()) -
                        1;
    std::string perturbed = line.text;
    perturbed[digit] = perturbed[digit] == '9' ? '0' : perturbed[digit] + 1;

    std::string why = describeMismatch(config.name, perturbed, line);
    EXPECT_NE(why.find("config '" + config.name + "'"), std::string::npos)
        << why;
    EXPECT_NE(why.find("field 'syscall_stall_cycles'"), std::string::npos)
        << why;
}

} // namespace
} // namespace lba::core
