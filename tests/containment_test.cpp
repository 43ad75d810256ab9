/**
 * @file
 * Tests for the containment subsystem (src/replay/containment.h): the
 * detect -> drain -> rewind -> repair loop wired into the unified
 * timing platform.
 *
 * Two proof obligations:
 *  1. Differential: containment enabled with zero findings is
 *     cycle-identical to the baseline at shards in {1,2,4} (the
 *     no-findings path makes no timer calls at all), and with findings
 *     runLba, the pool's drive, rewinds and repairs exactly as an
 *     inline reference built outside it does, under every policy.
 *  2. An injected finding rewinds exactly as far as the program ran
 *     past the last checkpoint, repairs under every policy, and the
 *     repaired run completes (the rewind_repair example's scenario,
 *     asserted end to end through the platform API).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.h"
#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "sched/pool.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::replay {
namespace {

using assembler::assemble;

std::vector<isa::Instruction>
program(const std::string& source)
{
    auto r = assemble(source);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

core::LifeguardFactory
addrcheck()
{
    return [] { return std::make_unique<lifeguards::AddrCheck>(); };
}

ContainmentConfig
containment(RepairPolicy policy,
            std::uint64_t checkpoint_interval = 0)
{
    ContainmentConfig config;
    config.enabled = true;
    config.policy = policy;
    config.checkpoint_interval = checkpoint_interval;
    return config;
}

/**
 * The rewind_repair example's service loop: @p tail instructions of
 * padding separate the free from the stale read, pinning the expected
 * rewind distance to tail + 1 (the read retires last in the window).
 */
std::vector<isa::Instruction>
uafServiceLoop(unsigned iterations, unsigned tail_padding)
{
    std::string source = "        li r10, " +
                         std::to_string(iterations) + "\n";
    source += R"(serve:
        li r1, 64
        syscall 1           ; buf = alloc(64)
        mov r9, r1
        sd r10, 0(r9)       ; use the buffer
        mov r1, r9
        syscall 2           ; free(buf)
)";
    for (unsigned i = 0; i < tail_padding; ++i) {
        source += "        addi r8, r8, 1\n";
    }
    source += R"(        ld r2, 0(r9)        ; BUG: stale read after free
        addi r10, r10, -1
        bne r10, r0, serve
        halt
)";
    return program(source);
}

/** Every aggregate stat of two LBA runs must match exactly. */
void
expectStatsIdentical(const core::LbaRunStats& a,
                     const core::LbaRunStats& b)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.app_cycles, b.app_cycles);
    EXPECT_EQ(a.app_instructions, b.app_instructions);
    EXPECT_EQ(a.records_logged, b.records_logged);
    EXPECT_EQ(a.records_filtered, b.records_filtered);
    EXPECT_EQ(a.backpressure_stall_cycles, b.backpressure_stall_cycles);
    EXPECT_EQ(a.syscall_stall_cycles, b.syscall_stall_cycles);
    EXPECT_EQ(a.syscall_drains, b.syscall_drains);
    EXPECT_EQ(a.lifeguard_busy_cycles, b.lifeguard_busy_cycles);
    EXPECT_EQ(a.transport_wait_cycles, b.transport_wait_cycles);
    EXPECT_EQ(a.transport_bytes, b.transport_bytes);
    EXPECT_EQ(a.bytes_per_record, b.bytes_per_record);
    EXPECT_EQ(a.mean_consume_lag, b.mean_consume_lag);
    EXPECT_EQ(a.containment_cycles, b.containment_cycles);
}

TEST(ContainmentDifferential, ZeroFindingsSerialMatchesBaseline)
{
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, 40000);
    core::Experiment exp(generated.program);
    core::LbaConfig lba = exp.config().lba;
    lba.buffer_capacity = 256; // keep back-pressure in play

    auto baseline = exp.runLba(addrcheck(), lba, {});
    auto contained =
        exp.runLba(addrcheck(), lba, containment(RepairPolicy::kPatch));

    ASSERT_TRUE(baseline.findings.empty());
    ASSERT_TRUE(contained.containment_enabled);
    EXPECT_EQ(contained.containment.rewinds, 0u);
    EXPECT_EQ(contained.lba.containment_cycles, 0u);
    EXPECT_EQ(baseline.cycles, contained.cycles);
    expectStatsIdentical(baseline.lba, contained.lba);
}

TEST(ContainmentDifferential, ZeroFindingsParallelMatchesBaseline)
{
    auto generated =
        workload::generate(*workload::findProfile("mcf"), {}, 40000);
    core::Experiment exp(generated.program);
    for (unsigned shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(shards);
        const core::LbaConfig& lba = exp.config().lba;
        auto baseline = exp.runLba(addrcheck(), lba, {}, shards);
        auto contained = exp.runLba(
            addrcheck(), lba, containment(RepairPolicy::kSkip), shards);

        ASSERT_TRUE(baseline.findings.empty());
        EXPECT_EQ(contained.containment.rewinds, 0u);
        EXPECT_EQ(baseline.cycles, contained.cycles);
        expectStatsIdentical(baseline.lba, contained.lba);
        ASSERT_EQ(baseline.shards.size(), shards);
        ASSERT_EQ(contained.shards.size(), shards);
        for (unsigned s = 0; s < shards; ++s) {
            EXPECT_EQ(baseline.shards[s].busy_cycles,
                      contained.shards[s].busy_cycles);
            EXPECT_EQ(baseline.shards[s].records,
                      contained.shards[s].records);
        }
    }
}

/**
 * Run @p prog through runLba under @p config on @p lanes shards, and
 * through an inline reference that shares no code with the pool's
 * drive: an LbaSystem on a timer of its own, contained by a
 * ContainmentManager built from it, run and resumed on this thread
 * after every contained finding. Every statistic, shard, finding and
 * containment count, and the run result, must agree.
 * @return The runLba result.
 */
core::PlatformResult
expectMatchesInlineContainment(const std::vector<isa::Instruction>& prog,
                               const ContainmentConfig& config,
                               unsigned lanes)
{
    core::Experiment exp(prog);
    const core::LbaConfig& lba = exp.config().lba;
    core::PlatformResult got = exp.runLba(addrcheck(), lba, config, lanes);

    sim::Process process;
    process.load(prog);
    mem::HierarchyConfig hc;
    hc.num_cores = std::max(hc.num_cores, 1 + lanes);
    mem::CacheHierarchy hierarchy(hc);
    std::vector<std::unique_ptr<lifeguard::Lifeguard>> guards;
    std::vector<lifeguard::Lifeguard*> shard_guards;
    for (unsigned s = 0; s < lanes; ++s) {
        guards.push_back(addrcheck()());
        shard_guards.push_back(guards.back().get());
    }
    core::LbaSystem system(shard_guards, hierarchy, lba);
    ContainmentManager manager(process, system, system, config);
    sim::RunResult run;
    bool aborted = false;
    for (;;) {
        run = process.run(&manager);
        if (!run.stopped || !manager.pendingFinding()) break;
        if (!manager.containAndRepair()) {
            aborted = true;
            break;
        }
    }
    manager.finalize();
    system.finish();

    EXPECT_TRUE(got.containment_enabled);
    EXPECT_EQ(got.aborted, aborted);
    EXPECT_EQ(got.instructions, run.instructions);
    EXPECT_EQ(got.run.instructions, run.instructions);
    EXPECT_EQ(got.run.all_exited, run.all_exited);
    EXPECT_EQ(got.run.deadlocked, run.deadlocked);
    EXPECT_EQ(got.run.hit_instruction_limit, run.hit_instruction_limit);
    EXPECT_EQ(got.run.stopped, run.stopped);
    EXPECT_EQ(got.run.faulted_threads, run.faulted_threads);
    EXPECT_EQ(got.cycles, system.stats().total_cycles);
    expectStatsIdentical(got.lba, system.stats());

    EXPECT_EQ(got.shards.size(), lanes);
    for (unsigned s = 0;
         s < std::min<std::size_t>(lanes, got.shards.size()); ++s) {
        const core::LaneStats& lane = got.shards[s];
        core::LaneStats want = system.timer().laneStats(s);
        EXPECT_EQ(lane.last_finish, want.last_finish) << "shard " << s;
        EXPECT_EQ(lane.busy_cycles, want.busy_cycles) << "shard " << s;
        EXPECT_EQ(lane.records, want.records) << "shard " << s;
        EXPECT_EQ(lane.mean_consume_lag, want.mean_consume_lag)
            << "shard " << s;
        EXPECT_EQ(lane.transport_bytes, want.transport_bytes)
            << "shard " << s;
        EXPECT_EQ(lane.transport_wait_cycles, want.transport_wait_cycles)
            << "shard " << s;
        EXPECT_EQ(lane.buffer.pushes, want.buffer.pushes) << "shard " << s;
        EXPECT_EQ(lane.buffer.pops, want.buffer.pops) << "shard " << s;
        EXPECT_EQ(lane.buffer.max_occupancy, want.buffer.max_occupancy)
            << "shard " << s;
    }

    std::vector<lifeguard::Finding> findings =
        core::mergeShardFindings(guards);
    EXPECT_EQ(got.findings.size(), findings.size());
    for (std::size_t i = 0;
         i < std::min(got.findings.size(), findings.size()); ++i) {
        EXPECT_EQ(lifeguard::toString(got.findings[i]),
                  lifeguard::toString(findings[i]));
    }

    const ContainmentStats& have = got.containment;
    const ContainmentStats& want = manager.stats();
    EXPECT_EQ(have.checkpoints, want.checkpoints);
    EXPECT_EQ(have.syscall_checkpoints, want.syscall_checkpoints);
    EXPECT_EQ(have.interval_checkpoints, want.interval_checkpoints);
    EXPECT_EQ(have.undo_entries, want.undo_entries);
    EXPECT_EQ(have.max_window_entries, want.max_window_entries);
    EXPECT_EQ(have.rewinds, want.rewinds);
    EXPECT_EQ(have.rewound_instructions, want.rewound_instructions);
    EXPECT_EQ(have.max_rewind_distance, want.max_rewind_distance);
    EXPECT_EQ(have.rewind_cycles, want.rewind_cycles);
    EXPECT_EQ(have.checkpoint_stall_cycles, want.checkpoint_stall_cycles);
    EXPECT_EQ(have.repairs.patched, want.repairs.patched);
    EXPECT_EQ(have.repairs.skipped, want.repairs.skipped);
    EXPECT_EQ(have.repairs.quarantined, want.repairs.quarantined);
    EXPECT_EQ(have.repairs.aborted, want.repairs.aborted);
    EXPECT_EQ(have.repairs.suppressed, want.repairs.suppressed);
    EXPECT_EQ(have.rewind_distance.count(), want.rewind_distance.count());
    EXPECT_EQ(have.rewind_distance.mean(), want.rewind_distance.mean());
    return got;
}

TEST(ContainmentDifferential, RunLbaRewindsLikeAnInlineReference)
{
    // runLba, the one-tenant pool's drive, and the inline reference
    // must agree on every rewind, repair and cycle, under every policy,
    // with no findings (clean bc) and with real rewinds.
    const workload::Profile& bc = *workload::findProfile("bc");
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    bugs.leak = true;
    const struct
    {
        const char* name;
        std::vector<isa::Instruction> program;
        bool rewinds;
    } programs[] = {
        {"bc", workload::generate(bc, {}, 40000).program, false},
        {"bc+bugs", workload::generate(bc, bugs, 40000).program, true},
        {"uaf-loop", uafServiceLoop(5, 2), true},
    };
    for (const auto& [name, prog, rewinds] : programs) {
        for (RepairPolicy policy :
             {RepairPolicy::kAbort, RepairPolicy::kSkip,
              RepairPolicy::kPatch, RepairPolicy::kQuarantine}) {
            for (unsigned lanes : {1u, 2u, 4u}) {
                SCOPED_TRACE(std::string(name) + " " +
                             repairPolicyName(policy) + " lanes " +
                             std::to_string(lanes));
                core::PlatformResult got = expectMatchesInlineContainment(
                    prog, containment(policy), lanes);
                EXPECT_EQ(got.containment.rewinds > 0, rewinds);
                if (!rewinds) {
                    // No findings: containment costs no cycle.
                    core::Experiment exp(prog);
                    expectStatsIdentical(
                        got.lba,
                        exp.runLba(addrcheck(), exp.config().lba, {}, lanes)
                            .lba);
                }
            }
        }
    }
}

TEST(ContainmentRepair, PatchRewindsExactDistanceAndCompletes)
{
    // Checkpoint lands right after the free syscall; the stale read
    // retires 3 instructions later (2 padding addis + the ld), so the
    // rewind must cover exactly those 3 instructions.
    core::ExperimentConfig config;
    config.containment = containment(RepairPolicy::kPatch);
    core::Experiment exp(uafServiceLoop(5, 2), config);
    auto result = exp.runLba(addrcheck());

    ASSERT_TRUE(result.containment_enabled);
    EXPECT_FALSE(result.aborted);
    EXPECT_TRUE(result.run.all_exited);
    EXPECT_EQ(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.rewound_instructions, 3u);
    EXPECT_EQ(result.containment.max_rewind_distance, 3u);
    EXPECT_EQ(result.containment.repairs.patched, 1u);
    // The patched load never faults again: one finding total.
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].kind,
              lifeguard::FindingKind::kUnallocatedAccess);
    // The rewind charge is visible on the application clock.
    EXPECT_GE(result.lba.containment_cycles,
              config.containment.rewind_flush_cycles);
    EXPECT_EQ(result.containment.rewind_cycles,
              result.lba.containment_cycles);
}

TEST(ContainmentRepair, FaultBeforeARewindStaysCounted)
{
    // The worker faults (it calls address 5, outside the code) long
    // before main's stale read, which rewinds one instruction, to the
    // checkpoint after the free. The fault happened before that
    // checkpoint, so the contained run still counts it.
    auto prog = program(R"(
        li r1, 0x10050      ; worker entry (instr index 10)
        li r2, 0
        syscall 7           ; spawn
        syscall 8           ; join the worker (r1 = its tid)
        li r1, 64
        syscall 1           ; buf = alloc(64)
        mov r9, r1
        syscall 2           ; free(buf)
        ld r2, 0(r9)        ; BUG: stale read after free
        halt
    worker:
        li r5, 0x5
        callr r5            ; control leaves the code: the thread faults
    )");
    core::Experiment exp(prog);
    auto plain = exp.runLba(addrcheck());
    EXPECT_EQ(plain.run.faulted_threads, 1u);

    auto contained = exp.runLba(addrcheck(), exp.config().lba,
                                containment(RepairPolicy::kPatch));
    EXPECT_EQ(contained.containment.rewinds, 1u);
    EXPECT_EQ(contained.containment.rewound_instructions, 1u);
    EXPECT_TRUE(contained.run.all_exited);
    EXPECT_EQ(contained.run.faulted_threads, 1u);
}

TEST(ContainmentRepair, SkipPolicyNopsTheInstructionAndCompletes)
{
    core::ExperimentConfig config;
    config.containment = containment(RepairPolicy::kSkip);
    core::Experiment exp(uafServiceLoop(4, 0), config);
    auto result = exp.runLba(addrcheck());

    EXPECT_TRUE(result.run.all_exited);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.rewound_instructions, 1u);
    EXPECT_EQ(result.containment.repairs.skipped, 1u);
    EXPECT_EQ(result.findings.size(), 1u);
}

TEST(ContainmentRepair, QuarantinePolicyResumesWithoutPatching)
{
    core::ExperimentConfig config;
    config.containment = containment(RepairPolicy::kQuarantine);
    core::Experiment exp(uafServiceLoop(4, 0), config);
    auto result = exp.runLba(addrcheck());

    // The code is untouched; the quarantined address silences further
    // reports and the (still buggy) service loop runs to completion.
    EXPECT_TRUE(result.run.all_exited);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.repairs.quarantined, 1u);
    EXPECT_EQ(result.containment.repairs.patched, 0u);
}

TEST(ContainmentRepair, AbortPolicyTerminatesAtTheRewindPoint)
{
    core::ExperimentConfig config;
    config.containment = containment(RepairPolicy::kAbort);
    core::Experiment exp(uafServiceLoop(4, 0), config);
    auto result = exp.runLba(addrcheck());

    EXPECT_TRUE(result.aborted);
    EXPECT_FALSE(result.run.all_exited);
    EXPECT_EQ(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.repairs.aborted, 1u);
    EXPECT_EQ(result.findings.size(), 1u);
}

TEST(ContainmentRepair, RewindReplaysUndoLogThroughAppCaches)
{
    // Stores between the checkpoint and the detection point populate
    // the undo log; the rewind must charge more than the bare flush.
    const char* source = R"(
        li r10, 2
    serve:
        li r1, 64
        syscall 1
        mov r9, r1
        mov r1, r9
        syscall 2           ; checkpoint right after this
        li r5, 0x100000
        sd r10, 0(r5)       ; undo-logged store in the window
        sd r10, 8(r5)       ; undo-logged store in the window
        ld r2, 0(r9)        ; BUG: stale read, distance 4
        addi r10, r10, -1
        bne r10, r0, serve
        halt
    )";
    core::ExperimentConfig config;
    config.containment = containment(RepairPolicy::kPatch);
    core::Experiment exp(program(source), config);
    auto result = exp.runLba(addrcheck());

    EXPECT_TRUE(result.run.all_exited);
    EXPECT_EQ(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.rewound_instructions, 4u);
    EXPECT_GT(result.containment.max_window_entries, 0u);
    EXPECT_GT(result.containment.rewind_cycles,
              config.containment.rewind_flush_cycles);
}

TEST(ContainmentRepair, ParallelShardsContainTheSameBug)
{
    // The same scenario on two shards: any shard's finding triggers
    // the coordinated drain + rewind.
    core::ExperimentConfig config;
    config.containment = containment(RepairPolicy::kPatch);
    core::Experiment exp(uafServiceLoop(5, 2), config);
    auto result = exp.runLba(addrcheck(), 2);

    EXPECT_TRUE(result.run.all_exited);
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.containment.rewinds, 1u);
    EXPECT_EQ(result.containment.rewound_instructions, 3u);
    EXPECT_EQ(result.containment.repairs.patched, 1u);
    ASSERT_EQ(result.findings.size(), 1u);
}

TEST(ContainmentRepair, IntervalCheckpointsBoundRewindDistance)
{
    // A long syscall-free stretch before the bug: with syscall-only
    // checkpoints the rewind spans the whole stretch; a tight interval
    // bounds it (at the cost of checkpoint drains).
    std::string source = R"(
        li r1, 64
        syscall 1
        mov r9, r1
        mov r1, r9
        syscall 2           ; last syscall checkpoint
)";
    for (int i = 0; i < 200; ++i) source += "        addi r8, r8, 1\n";
    source += R"(        ld r2, 0(r9)        ; BUG, distance 201
        halt
    )";
    auto prog = program(source);

    core::ExperimentConfig loose;
    loose.containment = containment(RepairPolicy::kPatch);
    core::Experiment exp_loose(prog, loose);
    auto far = exp_loose.runLba(addrcheck());
    EXPECT_EQ(far.containment.rewound_instructions, 201u);
    EXPECT_EQ(far.containment.interval_checkpoints, 0u);

    core::ExperimentConfig tight;
    tight.containment = containment(RepairPolicy::kPatch, 50);
    core::Experiment exp_tight(prog, tight);
    auto near = exp_tight.runLba(addrcheck());
    EXPECT_GT(near.containment.interval_checkpoints, 0u);
    EXPECT_LE(near.containment.max_rewind_distance, 50u);
    EXPECT_TRUE(near.run.all_exited);
}

TEST(ContainmentPool, RewindsOneTenantWithoutDisturbingOthers)
{
    auto clean =
        workload::generate(*workload::findProfile("gzip"), {}, 20000);

    sched::PoolConfig config;
    config.lanes = 2;
    config.containment = containment(RepairPolicy::kPatch);
    sched::LifeguardPool pool(config, addrcheck());
    // The clean tenant comes first, so the buggy one is not producer 0.
    pool.addTenant({"clean", clean.program, {}});
    pool.addTenant({"buggy", uafServiceLoop(5, 2), {}});
    sched::PoolResult result = pool.run();

    ASSERT_EQ(result.tenants.size(), 2u);
    const sched::TenantStats& other = result.tenants[0];
    const sched::TenantStats& buggy = result.tenants[1];

    EXPECT_EQ(buggy.containment.rewinds, 1u);
    EXPECT_EQ(buggy.containment.rewound_instructions, 3u);
    EXPECT_EQ(buggy.containment.repairs.patched, 1u);
    EXPECT_FALSE(buggy.aborted);
    ASSERT_EQ(buggy.findings.size(), 1u);

    // The clean tenant never rewound and completed normally.
    EXPECT_EQ(other.containment.rewinds, 0u);
    EXPECT_EQ(other.lba.containment_cycles, 0u);
    EXPECT_TRUE(other.findings.empty());
    EXPECT_GT(other.total_cycles, 0u);
}

TEST(ContainmentPool, AbortTerminatesOnlyTheBuggyTenant)
{
    auto clean =
        workload::generate(*workload::findProfile("gzip"), {}, 20000);

    sched::PoolConfig config;
    config.lanes = 2;
    config.containment = containment(RepairPolicy::kAbort);
    sched::LifeguardPool pool(config, addrcheck());
    pool.addTenant({"buggy", uafServiceLoop(5, 2), {}});
    pool.addTenant({"clean", clean.program, {}});
    sched::PoolResult result = pool.run();

    ASSERT_EQ(result.tenants.size(), 2u);
    EXPECT_TRUE(result.tenants[0].aborted);
    EXPECT_EQ(result.tenants[0].containment.repairs.aborted, 1u);
    EXPECT_FALSE(result.tenants[1].aborted);
    EXPECT_EQ(result.tenants[1].containment.rewinds, 0u);
    EXPECT_GT(result.tenants[1].total_cycles, 0u);
}

} // namespace
} // namespace lba::replay
