/**
 * @file
 * End-to-end integration tests: whole-pipeline runs on benchmark
 * workloads with injected defects, asserting detection, no false
 * positives, and the paper's qualitative performance shape.
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/taintcheck.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba {
namespace {

using core::Experiment;
using core::LifeguardFactory;
using lifeguard::FindingKind;

LifeguardFactory
addrcheck()
{
    return [] { return std::make_unique<lifeguards::AddrCheck>(); };
}

LifeguardFactory
taintcheck()
{
    return [] { return std::make_unique<lifeguards::TaintCheck>(); };
}

LifeguardFactory
lockset()
{
    return [] { return std::make_unique<lifeguards::LockSet>(); };
}

TEST(Integration, CleanBenchmarksProduceNoFindings)
{
    for (const char* name : {"bc", "gzip"}) {
        auto generated =
            workload::generate(*workload::findProfile(name), {}, 60000);
        Experiment exp(generated.program);
        EXPECT_TRUE(exp.runLba(addrcheck()).findings.empty()) << name;
        EXPECT_TRUE(exp.runLba(taintcheck()).findings.empty()) << name;
    }
}

TEST(Integration, CleanMultithreadedRunHasNoRaces)
{
    auto generated =
        workload::generate(*workload::findProfile("water"), {}, 80000);
    Experiment exp(generated.program);
    auto result = exp.runLba(lockset());
    EXPECT_TRUE(result.findings.empty());
}

TEST(Integration, AddrCheckFindsInjectedHeapBugs)
{
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    bugs.double_free = true;
    bugs.leak = true;
    auto generated =
        workload::generate(*workload::findProfile("tidy"), bugs, 60000);
    Experiment exp(generated.program);
    auto result = exp.runLba(addrcheck());
    EXPECT_GE(result.findings.size(), 3u);
    std::size_t uaf = 0, dfree = 0, leak = 0;
    for (const auto& f : result.findings) {
        if (f.kind == FindingKind::kUnallocatedAccess) ++uaf;
        if (f.kind == FindingKind::kDoubleFree) ++dfree;
        if (f.kind == FindingKind::kMemoryLeak) ++leak;
    }
    EXPECT_GE(uaf, 1u);
    EXPECT_GE(dfree, 1u);
    EXPECT_EQ(leak, 1u);
}

TEST(Integration, TaintCheckFindsInjectedExploit)
{
    workload::BugInjection bugs;
    bugs.tainted_jump = true;
    auto generated =
        workload::generate(*workload::findProfile("gzip"), bugs, 60000);
    Experiment exp(generated.program);
    auto result = exp.runLba(taintcheck());
    EXPECT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].kind, FindingKind::kTaintedJump);
}

TEST(Integration, LockSetFindsInjectedRace)
{
    workload::BugInjection bugs;
    bugs.race = true;
    auto generated =
        workload::generate(*workload::findProfile("water"), bugs, 80000);
    Experiment exp(generated.program);
    auto result = exp.runLba(lockset());
    ASSERT_GE(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].kind, FindingKind::kDataRace);
}

TEST(Integration, LbaBeatsValgrindOnEveryLifeguard)
{
    // Paper Section 3: "Compared to Valgrind lifeguards, LBA lifeguards
    // are 4-19X faster."
    auto st = workload::generate(*workload::findProfile("gs"), {}, 60000);
    Experiment exp(st.program);
    for (auto& factory : {addrcheck(), taintcheck()}) {
        auto lba = exp.runLba(factory);
        auto dbi = exp.runDbi(factory);
        double speedup = dbi.slowdown / lba.slowdown;
        EXPECT_GT(speedup, 2.0);
        EXPECT_LT(speedup, 40.0);
    }
    auto mt =
        workload::generate(*workload::findProfile("zchaff"), {}, 80000);
    Experiment mt_exp(mt.program);
    auto lba = mt_exp.runLba(lockset());
    auto dbi = mt_exp.runDbi(lockset());
    EXPECT_GT(dbi.slowdown / lba.slowdown, 2.0);
}

TEST(Integration, LockSetIsTheMostExpensiveLifeguard)
{
    // Paper averages: AddrCheck 3.9X, TaintCheck 4.8X, LockSet 9.7X.
    auto mt =
        workload::generate(*workload::findProfile("water"), {}, 80000);
    Experiment exp(mt.program);
    auto ac = exp.runLba(addrcheck());
    auto ls = exp.runLba(lockset());
    EXPECT_GT(ls.slowdown, ac.slowdown);
}

TEST(Integration, FindingsAgreeAcrossAllPlatforms)
{
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    bugs.leak = true;
    auto generated =
        workload::generate(*workload::findProfile("w3m"), bugs, 60000);
    Experiment exp(generated.program);
    auto lba = exp.runLba(addrcheck());
    auto dbi = exp.runDbi(addrcheck());
    auto par = exp.runLba(addrcheck(), 2);

    auto kinds = [](const std::vector<lifeguard::Finding>& fs) {
        std::vector<int> v;
        for (const auto& f : fs) v.push_back(static_cast<int>(f.kind));
        std::sort(v.begin(), v.end());
        return v;
    };
    EXPECT_EQ(kinds(lba.findings), kinds(dbi.findings));
    EXPECT_EQ(kinds(lba.findings), kinds(par.findings));
}

TEST(Integration, SlowdownShapeMatchesPaperOnSample)
{
    // Coarse shape check on one benchmark (full sweep in the benches):
    // LBA slowdown in a plausible band, Valgrind an order of magnitude.
    auto generated =
        workload::generate(*workload::findProfile("gnuplot"), {}, 80000);
    Experiment exp(generated.program);
    auto lba = exp.runLba(addrcheck());
    auto dbi = exp.runDbi(addrcheck());
    EXPECT_GT(lba.slowdown, 1.5);
    EXPECT_LT(lba.slowdown, 12.0);
    EXPECT_GT(dbi.slowdown, 8.0);
    EXPECT_LT(dbi.slowdown, 100.0);
}

} // namespace
} // namespace lba
