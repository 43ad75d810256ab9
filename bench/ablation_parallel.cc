/**
 * @file
 * Ablation ABL-PAR: parallelizing lifeguards across cores (paper
 * Section 1: "the lifeguard functionality can be split across multiple
 * cores"; Section 3 lists it as an overhead-reduction direction).
 * Address-sharded AddrCheck and LockSet through Experiment::runLba's
 * shard count; TaintCheck is excluded because its register state
 * serializes the stream (see core/lba_system.h).
 */

#include <cstdio>

#include "bench_common.h"

int
main()
{
    using namespace lba;
    std::uint64_t instrs = bench::benchInstructions();

    std::printf("Ablation: parallel lifeguard cores (log sharded by "
                "address)\n\n");
    struct Case
    {
        const char* benchmark;
        const char* lifeguard;
        core::LifeguardFactory factory;
    };
    std::vector<Case> cases = {
        {"mcf", "AddrCheck", bench::makeAddrCheck()},
        {"zchaff", "LockSet", bench::makeLockSet()},
    };

    for (const Case& c : cases) {
        auto generated = workload::generate(
            *workload::findProfile(c.benchmark), {}, instrs);
        core::Experiment exp(generated.program);
        stats::Table table({"lifeguard cores", "slowdown",
                            "speedup vs 1 core", "B/record",
                            "per-shard busy"});
        double base = 0;
        for (unsigned shards : {1u, 2u, 4u}) {
            auto result = exp.runLba(c.factory, shards);
            if (shards == 1) base = result.slowdown;
            // Busy: the fraction of the run each shard's core spent
            // consuming records.
            std::string busy;
            for (unsigned s = 0; s < shards; ++s) {
                if (s) busy += "/";
                busy += stats::formatDouble(
                    100.0 * static_cast<double>(result.shards[s].busy_cycles) /
                        static_cast<double>(result.lba.total_cycles),
                    0);
                busy += "%";
            }
            table.addRow({std::to_string(shards),
                          stats::formatSlowdown(result.slowdown),
                          stats::formatDouble(base / result.slowdown,
                                              2),
                          stats::formatDouble(result.lba.bytes_per_record, 3),
                          busy});
        }
        std::printf("%s on %s\n%s\n", c.lifeguard, c.benchmark,
                    table.toString().c_str());
    }
    return 0;
}
