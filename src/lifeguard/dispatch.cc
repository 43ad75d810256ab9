/**
 * @file
 * Dispatch engine implementation.
 */

#include "lifeguard/dispatch.h"

namespace lba::lifeguard {

DispatchEngine::DispatchEngine(Lifeguard& lifeguard,
                               mem::CacheHierarchy& hierarchy,
                               const DispatchConfig& config)
    : lifeguard_(lifeguard),
      config_(config),
      sink_(hierarchy, config.core),
      handlers_(lifeguard.handlers())
{
    // Late registration would diverge from this copy (and from direct
    // handleEvent() callers): freeze the table.
    lifeguard.sealHandlerTable();
}

Cycles
DispatchEngine::finish()
{
    lifeguard_.finish(sink_);
    Cycles cycles = sink_.take();
    stats_.total_cycles += cycles;
    return cycles;
}

} // namespace lba::lifeguard
