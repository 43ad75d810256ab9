/**
 * @file
 * Workload generator tests: programs run to completion, hit their
 * planned instruction mix, and bug injection produces the intended
 * defects at the functional level.
 */

#include <gtest/gtest.h>

#include "log/capture.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::workload {
namespace {

TEST(Profiles, SuiteMatchesPaper)
{
    EXPECT_EQ(singleThreadedSuite().size(), 7u);
    EXPECT_EQ(multiThreadedSuite().size(), 2u);
    EXPECT_EQ(fullSuite().size(), 9u);
    EXPECT_NE(findProfile("mcf"), nullptr);
    EXPECT_NE(findProfile("zchaff"), nullptr);
    EXPECT_EQ(findProfile("doom"), nullptr);
}

TEST(Profiles, SuiteAverageMemFractionNearPaper)
{
    // Paper Section 3: 51% of instructions are memory references.
    double total = 0;
    for (const Profile& p : fullSuite()) total += p.mem_fraction;
    double avg = total / fullSuite().size();
    EXPECT_NEAR(avg, 0.51, 0.03);
}

TEST(Generator, DeterministicPrograms)
{
    const Profile* p = findProfile("gzip");
    ASSERT_NE(p, nullptr);
    auto a = generate(*p, {}, 100000);
    auto b = generate(*p, {}, 100000);
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.iterations, b.iterations);
}

std::vector<log::EventRecord>
recordStream(const std::vector<isa::Instruction>& program)
{
    sim::Process process{sim::ProcessConfig{}};
    process.load(program);
    log::RecordingObserver recorder;
    process.run(&recorder);
    return recorder.stream;
}

/**
 * Same seed + profile => identical *event stream*, not just an
 * identical program: every differential test in the tree (one-tenant
 * pool vs LbaSystem, containment vs baseline) and the golden corpus
 * silently rely on the runs they compare observing the exact same
 * records in the exact same order.
 */
TEST(Generator, DeterministicEventStream)
{
    for (const char* name : {"gzip", "bc", "water"}) {
        SCOPED_TRACE(name);
        const Profile* profile = findProfile(name);
        ASSERT_NE(profile, nullptr);
        auto generated = generate(*profile, {}, 30000);
        auto first = recordStream(generated.program);
        auto second = recordStream(generated.program);
        ASSERT_FALSE(first.empty());
        ASSERT_EQ(first.size(), second.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
            ASSERT_EQ(first[i], second[i]) << "record " << i;
        }

        // Regenerating from the profile gives the same stream too
        // (generator and simulator both deterministic end to end).
        auto regenerated = generate(*profile, {}, 30000);
        auto third = recordStream(regenerated.program);
        ASSERT_EQ(first.size(), third.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
            ASSERT_EQ(first[i], third[i]) << "record " << i;
        }
    }
}

/** Bug injection must not break stream determinism either. */
TEST(Generator, DeterministicEventStreamWithBugs)
{
    BugInjection bugs;
    bugs.use_after_free = true;
    bugs.leak = true;
    auto generated = generate(*findProfile("bc"), bugs, 30000);
    auto first = recordStream(generated.program);
    auto second = recordStream(generated.program);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i], second[i]) << "record " << i;
    }
}

TEST(Generator, DistinctBenchmarksDiffer)
{
    auto a = generate(*findProfile("bc"), {}, 100000);
    auto b = generate(*findProfile("mcf"), {}, 100000);
    EXPECT_NE(a.program, b.program);
}

/** Every benchmark must run to clean completion with the planned mix. */
class SuiteExecution : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteExecution, RunsToCompletionWithPlannedMix)
{
    const Profile* profile = findProfile(GetParam());
    ASSERT_NE(profile, nullptr);
    auto generated = generate(*profile, {}, 150000);

    sim::Process process;
    process.load(generated.program);
    sim::RunResult result = process.run(nullptr);

    EXPECT_TRUE(result.all_exited) << GetParam();
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.faulted_threads, 0u);
    EXPECT_FALSE(result.hit_instruction_limit);

    // Instruction budget: within 2x of the request (prologue-dominated
    // workloads like mcf build large rings).
    EXPECT_GT(result.instructions, 60000u) << GetParam();
    EXPECT_LT(result.instructions, 400000u) << GetParam();

    // Memory mix within tolerance of the profile.
    double mem_frac = static_cast<double>(process.memRefs()) /
                      static_cast<double>(result.instructions);
    EXPECT_NEAR(mem_frac, profile->mem_fraction, 0.10) << GetParam();

    // Thread count matches.
    EXPECT_EQ(process.numThreads(), profile->threads);

    // Everything allocated was freed (clean program).
    EXPECT_EQ(process.heap().liveBlocks(), 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteExecution,
    ::testing::Values("bc", "gnuplot", "gs", "gzip", "mcf", "tidy",
                      "w3m", "water", "zchaff"));

TEST(Generator, LeakInjectionLeavesLiveBlock)
{
    BugInjection bugs;
    bugs.leak = true;
    auto generated = generate(*findProfile("bc"), bugs, 60000);
    sim::Process process;
    process.load(generated.program);
    process.run(nullptr);
    EXPECT_EQ(process.heap().liveBlocks(), 1u);
}

TEST(Generator, DoubleFreeInjectionRejectedByHeap)
{
    BugInjection bugs;
    bugs.double_free = true;
    auto generated = generate(*findProfile("bc"), bugs, 60000);
    sim::Process process;
    process.load(generated.program);
    sim::RunResult result = process.run(nullptr);
    EXPECT_TRUE(result.all_exited);
    // The program still terminates; the double free itself returned an
    // error from the OS (detected by AddrCheck in lifeguard tests).
    EXPECT_EQ(process.heap().liveBlocks(), 0u);
}

TEST(Generator, TaintedJumpInjectionFaults)
{
    BugInjection bugs;
    bugs.tainted_jump = true;
    auto generated = generate(*findProfile("gzip"), bugs, 60000);
    sim::Process process;
    process.load(generated.program);
    sim::RunResult result = process.run(nullptr);
    // The hijacked control flow leaves the code region.
    EXPECT_EQ(result.faulted_threads, 1u);
}

TEST(Generator, MultithreadedProgramsUseLocksAndShareData)
{
    auto generated = generate(*findProfile("water"), {}, 150000);
    class LockCounter : public sim::RetireObserver
    {
      public:
        void onRetire(const sim::Retired&) override {}
        void
        onOsEvent(const sim::OsEvent& e) override
        {
            if (e.type == sim::OsEventType::kLock) ++locks;
            if (e.type == sim::OsEventType::kUnlock) ++unlocks;
            if (e.type == sim::OsEventType::kThreadSpawn) ++spawns;
        }
        int locks = 0, unlocks = 0, spawns = 0;
    };
    LockCounter counter;
    sim::Process process;
    process.load(generated.program);
    sim::RunResult result = process.run(&counter);
    EXPECT_TRUE(result.all_exited);
    EXPECT_EQ(counter.spawns, 1);
    EXPECT_GT(counter.locks, 10);
    EXPECT_EQ(counter.locks, counter.unlocks);
}

TEST(Generator, ScalesWithInstructionOverride)
{
    const Profile* p = findProfile("gnuplot");
    auto small = generate(*p, {}, 50000);
    auto large = generate(*p, {}, 200000);
    EXPECT_GT(large.iterations, small.iterations * 2);
}

TEST(Generator, PlannedMetadataIsPopulated)
{
    auto g = generate(*findProfile("gs"), {}, 100000);
    EXPECT_GT(g.planned_instructions, 0u);
    EXPECT_GT(g.planned_mem_fraction, 0.3);
    EXPECT_LT(g.planned_mem_fraction, 0.8);
    EXPECT_GT(g.iterations, 0u);
}

// --- Request-serving (server-shaped) profiles -----------------------

TEST(ServerProfiles, SuiteIsSeparateFromThePaperSuite)
{
    // The paper's 7+2 benchmark table must not grow: the server
    // profiles live in their own suite and are only reachable by name.
    EXPECT_EQ(serverSuite().size(), 2u);
    EXPECT_EQ(serverSuite()[0].name, "req_serve");
    EXPECT_EQ(serverSuite()[1].name, "req_churn");
    EXPECT_EQ(fullSuite().size(), 9u);
    ASSERT_NE(findProfile("req_serve"), nullptr);
    ASSERT_NE(findProfile("req_churn"), nullptr);
    EXPECT_GT(findProfile("req_serve")->phases, 0u);
    EXPECT_TRUE(findProfile("req_churn")->worker_churn);
    EXPECT_FALSE(findProfile("req_serve")->worker_churn);
}

TEST(ServerProfiles, DeterministicEventStream)
{
    for (const char* name : {"req_serve", "req_churn"}) {
        SCOPED_TRACE(name);
        auto generated = generate(*findProfile(name), {}, 30000);
        auto first = recordStream(generated.program);
        auto second = recordStream(generated.program);
        ASSERT_FALSE(first.empty());
        ASSERT_EQ(first.size(), second.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
            ASSERT_EQ(first[i], second[i]) << "record " << i;
        }
    }
}

TEST(ServerProfiles, DeterministicEventStreamWithBugs)
{
    BugInjection bugs;
    bugs.use_after_free = true;
    bugs.leak = true;
    bugs.double_free = true;
    auto generated = generate(*findProfile("req_serve"), bugs, 30000);
    auto first = recordStream(generated.program);
    auto second = recordStream(generated.program);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i], second[i]) << "record " << i;
    }
}

TEST(ServerProfiles, RunToCleanCompletion)
{
    for (const char* name : {"req_serve", "req_churn"}) {
        SCOPED_TRACE(name);
        auto generated = generate(*findProfile(name), {}, 100000);
        sim::Process process;
        process.load(generated.program);
        sim::RunResult result = process.run(nullptr);
        EXPECT_TRUE(result.all_exited);
        EXPECT_FALSE(result.deadlocked);
        EXPECT_EQ(result.faulted_threads, 0u);
        // Every request block and the prologue buffers were freed.
        EXPECT_EQ(process.heap().liveBlocks(), 0u);
        EXPECT_GT(generated.requests, 0u);
        EXPECT_EQ(generated.requests,
                  generated.iterations *
                      findProfile(name)->phases);
    }
}

TEST(ServerProfiles, PhaseMarkersLandAtDocumentedRecordIndices)
{
    // phase_marker_records promises EXACT record-stream indices for
    // bug-free single-threaded request programs: the serving loop is
    // straight-line per request, so dynamic counts follow from static
    // ones. Each marker is the phase's kOutput record with the phase
    // ordinal (1-based) as its payload length.
    const Profile* profile = findProfile("req_serve");
    auto generated = generate(*profile, {}, 40000);
    auto stream = recordStream(generated.program);

    ASSERT_EQ(generated.phase_marker_records.size(), profile->phases);
    std::uint64_t previous = 0;
    for (unsigned p = 0; p < profile->phases; ++p) {
        SCOPED_TRACE(p);
        std::uint64_t index = generated.phase_marker_records[p];
        ASSERT_LT(index, stream.size());
        EXPECT_GT(index, previous);
        previous = index;
        EXPECT_EQ(stream[index].type, log::EventType::kOutput);
        EXPECT_EQ(stream[index].aux, p + 1u);
    }

    // The markers are the ONLY kOutput records (the profile ingests no
    // input and writes nothing else), so exactness is two-sided.
    std::size_t outputs = 0;
    for (const log::EventRecord& record : stream) {
        if (record.type == log::EventType::kOutput) ++outputs;
    }
    EXPECT_EQ(outputs, profile->phases);
}

TEST(ServerProfiles, BugsAndChurnForfeitExactMarkers)
{
    BugInjection bugs;
    bugs.leak = true;
    auto buggy = generate(*findProfile("req_serve"), bugs, 40000);
    EXPECT_TRUE(buggy.phase_marker_records.empty());
    auto churn = generate(*findProfile("req_churn"), {}, 40000);
    EXPECT_TRUE(churn.phase_marker_records.empty());
}

TEST(ServerProfiles, HotColdSplitMatchesHotFraction)
{
    // Dynamic property: of the accesses into the two prologue buffers
    // (hot first, cold second — the first two kAlloc records), the hot
    // share matches the profile's hot_fraction.
    const Profile* profile = findProfile("req_serve");
    auto generated = generate(*profile, {}, 40000);
    auto stream = recordStream(generated.program);

    ASSERT_GT(generated.hot_touches, generated.cold_touches);
    Addr hot_base = 0, cold_base = 0;
    std::uint64_t hot_bytes = 0, cold_bytes = 0;
    for (const log::EventRecord& record : stream) {
        if (record.type != log::EventType::kAlloc) continue;
        if (hot_bytes == 0) {
            hot_base = record.addr;
            hot_bytes = record.aux;
        } else if (cold_bytes == 0) {
            cold_base = record.addr;
            cold_bytes = record.aux;
            break;
        }
    }
    ASSERT_GT(hot_bytes, 0u);
    ASSERT_GT(cold_bytes, hot_bytes); // cold is the big buffer

    std::uint64_t hot_accesses = 0, cold_accesses = 0;
    for (const log::EventRecord& record : stream) {
        if (record.type != log::EventType::kLoad &&
            record.type != log::EventType::kStore) {
            continue;
        }
        if (record.addr >= hot_base &&
            record.addr < hot_base + hot_bytes) {
            ++hot_accesses;
        } else if (record.addr >= cold_base &&
                   record.addr < cold_base + cold_bytes) {
            ++cold_accesses;
        }
    }
    ASSERT_GT(hot_accesses + cold_accesses, 1000u);
    double hot_share =
        static_cast<double>(hot_accesses) /
        static_cast<double>(hot_accesses + cold_accesses);
    EXPECT_NEAR(hot_share, profile->hot_fraction, 0.05);
}

TEST(ServerProfiles, ChurnSpawnsOneWorkerPerPhase)
{
    auto generated = generate(*findProfile("req_churn"), {}, 40000);
    class SpawnCounter : public sim::RetireObserver
    {
      public:
        void onRetire(const sim::Retired&) override {}
        void
        onOsEvent(const sim::OsEvent& e) override
        {
            if (e.type == sim::OsEventType::kThreadSpawn) ++spawns;
        }
        int spawns = 0;
    };
    SpawnCounter counter;
    sim::Process process;
    process.load(generated.program);
    sim::RunResult result = process.run(&counter);
    EXPECT_TRUE(result.all_exited);
    EXPECT_EQ(counter.spawns,
              static_cast<int>(findProfile("req_churn")->phases));
}

} // namespace
} // namespace lba::workload
