/**
 * @file
 * DBI baseline implementation.
 */

#include "dbi/dbi_system.h"

namespace lba::dbi {

DbiSystem::DbiSystem(lifeguard::Lifeguard& lifeguard,
                     mem::CacheHierarchy& hierarchy,
                     const DbiConfig& config)
    : lifeguard_(lifeguard),
      hierarchy_(hierarchy),
      config_(config),
      sink_(hierarchy, config_)
{
}

void
DbiSystem::onRetire(const sim::Retired& retired)
{
    ++stats_.app_instructions;

    // 1. The application's own work.
    Cycles app = hierarchy_.retire(config_.core, retired.pc,
                                   retired.mem_bytes > 0,
                                   retired.mem_addr, retired.mem_is_write);
    stats_.app_cycles += app;

    // 2. Translation/dispatch overhead + translated-code I-fetch.
    Cycles overhead = config_.base_overhead;
    Addr translated = config_.code_cache_base +
                      (retired.pc - sim::kCodeBase) *
                          config_.code_expansion;
    overhead += hierarchy_.instrFetch(config_.core, translated);
    if (retired.mem_bytes > 0) overhead += config_.mem_overhead;
    if (isa::isControl(retired.instr.op)) {
        overhead += config_.ctrl_overhead;
    }
    stats_.overhead_cycles += overhead;

    // 3. The lifeguard handler, inline on the same core.
    lifeguard_.handleEvent(log::CaptureUnit::makeRecord(retired), sink_);
    Cycles handler = sink_.take();
    stats_.handler_cycles += handler;

    stats_.total_cycles += app + overhead + handler;
}

void
DbiSystem::onOsEvent(const sim::OsEvent& event)
{
    lifeguard_.handleEvent(log::CaptureUnit::makeRecord(event), sink_);
    Cycles handler = sink_.take();
    stats_.handler_cycles += handler;
    stats_.total_cycles += handler;
}

void
DbiSystem::finish()
{
    lifeguard_.finish(sink_);
    Cycles handler = sink_.take();
    stats_.handler_cycles += handler;
    stats_.total_cycles += handler;
}

} // namespace lba::dbi
