/**
 * @file
 * Build-level smoke tests: run the lba_run and lba_trace tools
 * end-to-end on a tiny workload, once per lifeguard, and assert they
 * exit 0 — so tool-level regressions (argument parsing, report
 * printing, trace I/O) are caught by tier-1 even when the library
 * suites still pass.
 *
 * Tool binary paths are injected by CMake via LBA_RUN_PATH /
 * LBA_TRACE_PATH; without them (e.g. a non-CMake build) the suite
 * skips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

#ifndef LBA_RUN_PATH
#define LBA_RUN_PATH ""
#endif
#ifndef LBA_TRACE_PATH
#define LBA_TRACE_PATH ""
#endif

/** Runs @p command, returns its exit status (-1 on spawn failure). */
int
runCommand(const std::string& command)
{
    int status = std::system(command.c_str());
#if defined(_WIN32)
    return status;
#else
    if (status == -1 || !WIFEXITED(status)) {
        return -1;
    }
    return WEXITSTATUS(status);
#endif
}

class SmokeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (std::string(LBA_RUN_PATH).empty()) {
            GTEST_SKIP() << "tool paths not configured";
        }
    }
};

TEST_F(SmokeTest, LbaRunEachLifeguardExitsZero)
{
    for (const char* lifeguard : {"addrcheck", "taintcheck", "lockset"}) {
        std::string cmd = std::string(LBA_RUN_PATH) + " gzip " + lifeguard +
                          " --instrs 20000 >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 0) << "lifeguard: " << lifeguard;
    }
}

TEST_F(SmokeTest, LbaRunBothPlatformsWithInjectedBug)
{
    std::string cmd = std::string(LBA_RUN_PATH) +
                      " gzip addrcheck --instrs 20000 --platform both"
                      " --bugs uaf >/dev/null 2>&1";
    EXPECT_EQ(runCommand(cmd), 0);
}

TEST_F(SmokeTest, LbaRunRejectsUnknownBenchmark)
{
    std::string cmd = std::string(LBA_RUN_PATH) +
                      " no-such-benchmark addrcheck >/dev/null 2>&1";
    EXPECT_NE(runCommand(cmd), 0);
    // A --json report that cannot be written is an I/O error (exit 1)
    // on both report paths.
    for (const char* mode : {"", " --tenants 2"}) {
        std::string unwritable = std::string(LBA_RUN_PATH) +
                                 " gzip addrcheck --instrs 5000" + mode +
                                 " --json /nonexistent/dir/x.json"
                                 " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(unwritable), 1) << "mode:" << mode;
    }
}

TEST_F(SmokeTest, LbaRunContainmentReportsAndExitsZero)
{
    std::string json = ::testing::TempDir() + "smoke_containment.json";
    for (const char* policy :
         {"patch", "skip", "quarantine", "abort"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 20000 --platform lba"
                          " --bugs uaf --containment=" +
                          policy + " --json " + json +
                          " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 0) << "policy: " << policy;
    }
    // The JSON report carries the ContainmentStats block.
    std::FILE* file = std::fopen(json.c_str(), "r");
    ASSERT_NE(file, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), file));
    std::fclose(file);
    EXPECT_NE(text.find("\"containment\""), std::string::npos);
    EXPECT_NE(text.find("\"rewinds\""), std::string::npos);
    std::remove(json.c_str());

    // Multi-tenant pool with per-tenant containment.
    std::string pool_cmd = std::string(LBA_RUN_PATH) +
                           " gzip,mcf addrcheck --instrs 15000"
                           " --tenants 2 --lanes 2 --bugs uaf"
                           " --containment patch >/dev/null 2>&1";
    EXPECT_EQ(runCommand(pool_cmd), 0);
}

TEST_F(SmokeTest, LbaRunReportsOneLbaResultShape)
{
    // A one-shard and a four-shard run report the same LBA fields.
    for (const char* shards : {"", " --shards 4"}) {
        std::string json = ::testing::TempDir() + "smoke_shape.json";
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 5000 --platform lba" +
                          shards + " --json " + json + " >/dev/null 2>&1";
        ASSERT_EQ(runCommand(cmd), 0) << "args:" << shards;
        std::FILE* file = std::fopen(json.c_str(), "r");
        ASSERT_NE(file, nullptr);
        std::string text(1 << 16, '\0');
        text.resize(std::fread(text.data(), 1, text.size(), file));
        std::fclose(file);
        std::remove(json.c_str());
        EXPECT_NE(text.find(*shards ? "\"shards\":4" : "\"shards\":1"),
                  std::string::npos)
            << text;
        for (const char* field :
             {"\"platform\":\"lba\"", "\"bytes_per_record\"",
              "\"codec\"", "\"transport_bytes\"",
              "\"mean_consume_lag\""}) {
            EXPECT_NE(text.find(field), std::string::npos)
                << field << " missing:" << shards;
        }
    }
}

TEST_F(SmokeTest, LbaRunTrailingValueFlagIsUsageErrorNotCrash)
{
    // A value flag as the last argument must print usage and exit 2 —
    // never read argv[argc].
    for (const char* flag :
         {"--instrs", "--platform", "--shards", "--tenants", "--lanes",
          "--sched", "--transport-bw", "--bugs", "--containment",
          "--checkpoint-interval", "--json"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck " + flag + " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 2) << "flag: " << flag;
    }
    // Unknown policy is rejected, not silently defaulted.
    std::string bad = std::string(LBA_RUN_PATH) +
                      " gzip addrcheck --containment=bogus"
                      " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(bad), 2);
    // --checkpoint-interval without --containment is an error, not a
    // silently uncontained run.
    std::string orphan = std::string(LBA_RUN_PATH) +
                         " gzip addrcheck --checkpoint-interval 500"
                         " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(orphan), 2);
    // Order-independent: interval before the policy flag still works.
    std::string ordered = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 15000"
                          " --checkpoint-interval 500"
                          " --containment patch --platform lba"
                          " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(ordered), 0);
    // Containment on a DBI-only run would be silently ignored: reject.
    std::string dbi = std::string(LBA_RUN_PATH) +
                      " gzip addrcheck --platform dbi"
                      " --containment patch >/dev/null 2>&1";
    EXPECT_EQ(runCommand(dbi), 2);
}

TEST_F(SmokeTest, LbaRunRejectsMalformedNumbersBeforeAnyOutput)
{
    // Each value must exit 2 with nothing on stdout: no wrap-around to
    // a near-infinite budget, no silent fall-back to the default, no
    // out-of-memory lane count, no non-finite bandwidth. Unknown flags
    // are usage errors too.
    std::string out = ::testing::TempDir() + "smoke_malformed.out";
    for (const char* args :
         {" --instrs -5", " --instrs abc", " --instrs 0", " --instrs 5k",
          " --instrs ''", " --shards 100000", " --shards 0",
          " --shards +4", " --lanes 0 --tenants 2", " --lanes 65",
          " --tenants -1", " --tenants 100000", " --transport-bw -1", " --transport-bw nan",
          " --transport-bw inf", " --transport-bw 1e999",
          " --transport-bw 2x", " --containment patch"
                                " --checkpoint-interval -1",
          " --containment patch --checkpoint-interval=1e3",
          " --no-such-flag 1", " --no-such-flag=1", " --platform xyz",
          " --bugs bogus", " --bugs uaf,nope", " --execution serial",
          // A flag of the other mode is rejected, not ignored.
          " --tenants 2 --shards 4", " --lanes 4", " --sched lag"}) {
        std::string cmd = std::string(LBA_RUN_PATH) + " gzip addrcheck" +
                          args + " >" + out + " 2>/dev/null";
        EXPECT_EQ(runCommand(cmd), 2) << "args:" << args;
        std::FILE* file = std::fopen(out.c_str(), "r");
        ASSERT_NE(file, nullptr);
        EXPECT_EQ(std::fgetc(file), EOF) << "stdout not empty:" << args;
        std::fclose(file);
    }
    std::remove(out.c_str());
    // The limits themselves are accepted.
    std::string edge = std::string(LBA_RUN_PATH) +
                       " gzip addrcheck --instrs 1 --shards 64"
                       " --transport-bw 0.5 --platform lba"
                       " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(edge), 0);
}

TEST_F(SmokeTest, LbaTraceMissingArgumentsAreUsageErrors)
{
    std::string base = std::string(LBA_TRACE_PATH);
    // Each subcommand with a missing trailing argument: usage, exit 2.
    EXPECT_EQ(runCommand(base + " gen gzip >/dev/null 2>&1"), 2);
    EXPECT_EQ(runCommand(base + " info >/dev/null 2>&1"), 2);
    EXPECT_EQ(runCommand(base + " dump >/dev/null 2>&1"), 2);
    EXPECT_EQ(runCommand(base + " >/dev/null 2>&1"), 2);
}

TEST_F(SmokeTest, LbaTraceRejectsMalformedNumbersBeforeAnyOutput)
{
    // [instructions] and [count] follow lba_run's rule: exit 2 with
    // nothing on stdout, never a wrapped budget or a silent default.
    std::string trace = ::testing::TempDir() + "smoke_malformed.lbat";
    std::string out = ::testing::TempDir() + "smoke_malformed_trace.out";
    std::string base = std::string(LBA_TRACE_PATH);
    ASSERT_EQ(runCommand(base + " gen gzip " + trace +
                         " 2000 >/dev/null 2>&1"),
              0);
    for (const std::string& args :
         {" gen mcf " + trace + " -5", " gen mcf " + trace + " abc",
          " dump " + trace + " abc", " dump " + trace + " -1"}) {
        std::string cmd = base + args + " >" + out + " 2>/dev/null";
        EXPECT_EQ(runCommand(cmd), 2) << "args:" << args;
        std::FILE* file = std::fopen(out.c_str(), "r");
        ASSERT_NE(file, nullptr);
        EXPECT_EQ(std::fgetc(file), EOF) << "stdout not empty:" << args;
        std::fclose(file);
    }
    std::remove(out.c_str());
    std::remove(trace.c_str());
}

TEST_F(SmokeTest, LbaTraceGenInfoDumpRoundTrip)
{
    std::string trace = ::testing::TempDir() + "smoke_test.lbat";
    std::string base = std::string(LBA_TRACE_PATH);
    EXPECT_EQ(runCommand(base + " gen gzip " + trace +
                         " 20000 >/dev/null 2>&1"),
              0);
    EXPECT_EQ(runCommand(base + " info " + trace + " >/dev/null 2>&1"), 0);
    EXPECT_EQ(runCommand(base + " dump " + trace + " 16 >/dev/null 2>&1"),
              0);
    std::remove(trace.c_str());
}

} // namespace
