#pragma once
/**
 * @file
 * The software-only baseline: a Valgrind-style dynamic binary
 * instrumentation (DBI) platform.
 *
 * The paper attributes DBI's overhead to two sources (Section 1):
 *  1. the lifeguard and the application share one core, competing for
 *     cycles, registers and L1 cache; and
 *  2. the tool must recreate hardware state the architecture does not
 *     expose (instruction pointers, effective addresses, ...).
 *
 * This model charges, per application instruction on the *application
 * core*:
 *   - the application's own cost (base CPI + cache penalties),
 *   - a translation/dispatch overhead (code-cache execution),
 *   - extra instruction fetches into a translated-code region sized by a
 *     code-expansion factor (models I-cache pressure from instrumented
 *     code),
 *   - state-reconstruction overhead for memory and control instructions,
 *   - the lifeguard handler, with its instruction count scaled by a
 *     factor (inline instrumentation cannot use the dispatch engine's
 *     register injection) and its metadata accesses going through the
 *     SAME L1/L2 as the application: the handler charges a
 *     lifeguard::CostSink built on the application core with
 *     DbiConfig::handler_instr_factor.
 *
 * The same Lifeguard instance as on LBA consumes the same event records,
 * so findings are platform-independent; only the cost accounting differs.
 * See docs/ARCHITECTURE.md ("The DBI baseline").
 */

#include <memory>

#include "lifeguard/lifeguard.h"
#include "log/capture.h"
#include "mem/hierarchy.h"
#include "sim/process.h"

namespace lba::dbi {

/** DBI overhead model parameters (see file comment). */
struct DbiConfig
{
    /** Core index the instrumented program runs on. */
    unsigned core = 0;
    /** Cycles of translation/dispatch overhead per instruction. */
    Cycles base_overhead = 8;
    /** Extra cycles to reconstruct effective addresses per memory op. */
    Cycles mem_overhead = 8;
    /** Extra cycles per control transfer (code-cache target lookup). */
    Cycles ctrl_overhead = 12;
    /** Handler instruction multiplier (no hardware register injection). */
    std::uint32_t handler_instr_factor = 7;
    /** Translated code is this many times larger than the original. */
    unsigned code_expansion = 4;
    /** Simulated base of the translation code cache. */
    Addr code_cache_base = 0x7000000000ull;
};

/** Accounting for one DBI run. */
struct DbiStats
{
    std::uint64_t app_instructions = 0;
    Cycles total_cycles = 0;
    Cycles app_cycles = 0;      ///< the program's own work
    Cycles overhead_cycles = 0; ///< translation + state reconstruction
    Cycles handler_cycles = 0;  ///< lifeguard handler execution
};

/**
 * Observer that executes the lifeguard inline with the application.
 */
class DbiSystem : public sim::RetireObserver
{
  public:
    /**
     * @param lifeguard Lifeguard to run (shared with no one).
     * @param hierarchy Cache hierarchy; only config.core is used.
     * @param config    Overhead model parameters.
     */
    DbiSystem(lifeguard::Lifeguard& lifeguard,
              mem::CacheHierarchy& hierarchy,
              const DbiConfig& config = {});

    void onRetire(const sim::Retired& retired) override;
    void onOsEvent(const sim::OsEvent& event) override;

    /** Run the lifeguard's end-of-program hook (charges cycles). */
    void finish();

    const DbiStats& stats() const { return stats_; }
    lifeguard::Lifeguard& lifeguard() { return lifeguard_; }

  private:
    lifeguard::Lifeguard& lifeguard_;
    mem::CacheHierarchy& hierarchy_;
    DbiConfig config_;
    /** Charges the application core, config_.core, each handler
     *  instruction config_.handler_instr_factor cycles. */
    lifeguard::CostSink sink_;
    DbiStats stats_;
};

} // namespace lba::dbi
