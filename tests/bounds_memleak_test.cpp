/**
 * @file
 * Behaviour of the two MTE-cost-profile lifeguards on the server-shaped
 * workloads they were built for (workload::serverSuite): BoundsCheck
 * flags use-after-free reads as tag mismatches, MemLeak flags untouched
 * blocks as leak suspects during sweeps and unfreed blocks as definite
 * leaks at finish, and containment routes leak-kind findings to
 * quarantine instead of patching the allocation site. Their simulated
 * cycles are pinned by the golden corpus (tests/golden_cycles_test.cpp).
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/memleak.h"
#include "sched/pool.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::core {
namespace {

LifeguardFactory
boundscheck()
{
    return [] { return std::make_unique<lifeguards::BoundsCheck>(); };
}

/** MemLeak tightened so suspects fire within a small test budget. */
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

workload::GeneratedProgram
makeProgram(const char* profile, std::uint64_t instrs,
            bool with_bugs = false)
{
    workload::BugInjection bugs;
    if (with_bugs) {
        bugs.use_after_free = true;
        bugs.leak = true;
    }
    return workload::generate(*workload::findProfile(profile), bugs,
                              instrs);
}

TEST(BoundsMemLeak, BoundsContainmentRewindsOnMistag)
{
    // A use-after-free read probes a retagged (tag 0) granule and the
    // mistag rewinds. (Only the UAF bug: the leak injection skips
    // every 64th free, which would leave the 128th request's "freed"
    // block live and mask the mistag.)
    workload::BugInjection uaf;
    uaf.use_after_free = true;
    auto gen = workload::generate(*workload::findProfile("req_serve"),
                                  uaf, 40000);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kQuarantine;

    PlatformResult result =
        exp.runLba(boundscheck(), LbaConfig{}, containment);
    ASSERT_TRUE(result.containment_enabled);
    EXPECT_GE(result.containment.rewinds, 1u);
    EXPECT_GE(result.containment.repairs.quarantined, 1u);
    EXPECT_GT(result.lba.containment_cycles, 0u);
}

TEST(BoundsMemLeak, ContainmentRoutesLeakFindingsToQuarantine)
{
    // A leak suspect's pc is the allocation site: patching (or
    // nopping) it would disable the allocator, so the kPatch policy
    // must fall through to quarantine for leak-kind findings.
    auto gen = makeProgram("req_serve", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kPatch;

    PlatformResult result = exp.runLba(memleak(), LbaConfig{}, containment);
    ASSERT_TRUE(result.containment_enabled);
    EXPECT_GE(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.repairs.patched, 0u);
    EXPECT_GE(result.containment.repairs.quarantined, 1u);
}

TEST(BoundsMemLeak, BoundsDetectsUseAfterFreeCleanRunSilent)
{
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    auto buggy = workload::generate(*workload::findProfile("req_serve"),
                                    bugs, 40000);
    Experiment buggy_exp(buggy.program);
    PlatformResult found = buggy_exp.runLba(boundscheck());
    std::size_t mistags = 0;
    for (const lifeguard::Finding& f : found.findings) {
        if (f.kind == lifeguard::FindingKind::kTagMismatch) ++mistags;
    }
    EXPECT_GE(mistags, 1u);

    auto clean = makeProgram("req_serve", 40000);
    Experiment clean_exp(clean.program);
    PlatformResult silent = clean_exp.runLba(boundscheck());
    EXPECT_TRUE(silent.findings.empty());
}

TEST(BoundsMemLeak, MemLeakFlagsStaleAndUnfreedBlocks)
{
    // The leak injection skips frees: those blocks go cold, so the
    // decay sweep flags them as suspects mid-run and finish() reports
    // them as definite leaks.
    workload::BugInjection bugs;
    bugs.leak = true;
    auto gen = workload::generate(*workload::findProfile("req_serve"),
                                  bugs, 60000);
    Experiment exp(gen.program);
    PlatformResult result = exp.runLba(memleak());
    std::size_t suspects = 0;
    std::size_t leaks = 0;
    for (const lifeguard::Finding& f : result.findings) {
        if (f.kind == lifeguard::FindingKind::kLeakSuspect) ++suspects;
        if (f.kind == lifeguard::FindingKind::kMemoryLeak) ++leaks;
    }
    EXPECT_GE(suspects, 1u);
    EXPECT_GE(leaks, 1u);
}

} // namespace
} // namespace lba::core
