/**
 * @file
 * Dispatch engine implementation.
 */

#include "lifeguard/dispatch.h"

namespace lba::lifeguard {

namespace {

/** Resolved slot for an unregistered event type. */
void
ignoreHandler(Lifeguard&, const log::EventRecord&, CostSink&)
{
}

} // namespace

DispatchEngine::DispatchEngine(Lifeguard& lifeguard,
                               mem::CacheHierarchy& hierarchy,
                               const DispatchConfig& config)
    : lifeguard_(lifeguard),
      config_(config),
      sink_(hierarchy, config.core)
{
    // Late registration would diverge from this snapshot (and from
    // direct handleEvent() callers): freeze the table.
    lifeguard.sealHandlerTable();
    const auto& table = lifeguard.handlers();
    for (std::size_t t = 0; t < table.size(); ++t) {
        resolved_[t] = table[t] ? table[t] : &ignoreHandler;
    }
}

Cycles
DispatchEngine::dispatchOne(const log::EventRecord& record)
{
    Lifeguard::Handler handler =
        resolved_[static_cast<std::size_t>(record.type)];
    if (handler == &ignoreHandler) {
        // Unregistered type: dispatch cost only, no handler call,
        // nothing in the sink — the hardware's "handler is just nlba"
        // case.
        return account(record, config_.dispatch_cycles);
    }
    handler(lifeguard_, record, sink_);
    return account(record, config_.dispatch_cycles + sink_.take());
}

Cycles
DispatchEngine::consumeBatch(const log::EventRecord* records,
                             std::size_t count, Cycles* costs)
{
    ++stats_.batches;
    Cycles total = 0;
    for (std::size_t i = 0; i < count; ++i) {
        Cycles cycles = dispatchOne(records[i]);
        if (costs) costs[i] = cycles;
        total += cycles;
    }
    return total;
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
