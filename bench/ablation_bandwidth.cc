/**
 * @file
 * Ablation ABL-BW: why compress the log at all? Paper Section 2: the
 * hardware compresses each record "to reduce the bandwidth pressure and
 * buffer requirements on the log transport medium (the cache hierarchy
 * in our design)". This bench sweeps the transport bandwidth with
 * compression on (measured ~0.5-1 B/record) and off (24 B/record): at
 * cache-hierarchy-realistic bandwidths the uncompressed log throttles
 * the whole system, while the compressed log is never the bottleneck.
 */

#include <cstdio>

#include "bench_common.h"

int
main()
{
    using namespace lba;
    std::uint64_t instrs = bench::benchInstructions();

    std::printf("Ablation: log-transport bandwidth x compression, "
                "AddrCheck on gzip\n\n");
    auto generated =
        workload::generate(*workload::findProfile("gzip"), {}, instrs);
    core::Experiment exp(generated.program);

    stats::Table table({"transport (B/cycle)", "compressed",
                        "uncompressed (24 B/rec)",
                        "compressed, 2 shards"});
    for (double bw : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        core::LbaConfig on = exp.config().lba;
        on.compress = true;
        on.transport_bytes_per_cycle = bw;
        auto with = exp.runLba(bench::makeAddrCheck(), on);

        core::LbaConfig off = exp.config().lba;
        off.compress = false;
        off.transport_bytes_per_cycle = bw;
        auto without = exp.runLba(bench::makeAddrCheck(), off);

        // Same knob on two shards: each gets its own bw-limited
        // transport link.
        auto split = exp.runLba(bench::makeAddrCheck(), on,
                                exp.config().containment, 2);

        table.addRow({stats::formatDouble(bw, 1),
                      stats::formatSlowdown(with.slowdown),
                      stats::formatSlowdown(without.slowdown),
                      stats::formatSlowdown(split.slowdown)});
    }
    core::LbaConfig unlimited = exp.config().lba;
    auto free_bw = exp.runLba(bench::makeAddrCheck(), unlimited);
    auto free_split = exp.runLba(bench::makeAddrCheck(), 2);
    table.addRow({"unlimited", stats::formatSlowdown(free_bw.slowdown),
                  stats::formatSlowdown(free_bw.slowdown),
                  stats::formatSlowdown(free_split.slowdown)});
    std::printf("%s\n", table.toString().c_str());
    std::printf("compressed log: %.3f bytes/record\n",
                free_bw.lba.bytes_per_record);
    return 0;
}
