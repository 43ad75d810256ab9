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
    ++functional_.batches;
    Cycles total = 0;
    for (std::size_t i = 0; i < count; ++i) {
        Cycles cycles = dispatchOne(records[i]);
        if (costs) costs[i] = cycles;
        total += cycles;
    }
    return total;
}

namespace {

/** CostSink capturing handler costs into a DeferredBatch (threaded
 *  phase 1) instead of charging the hierarchy. */
class RecordingSink : public CostSink
{
  public:
    RecordingSink(DeferredBatch& batch, DeferredBatch::PerRecord& record)
        : batch_(batch), record_(record)
    {
    }

    void instrs(std::uint32_t count) override
    {
        record_.instr_cycles += count;
    }

    void
    memAccess(Addr addr, bool is_write) override
    {
        batch_.ops.push_back({addr, is_write});
        ++record_.num_ops;
    }

  private:
    DeferredBatch& batch_;
    DeferredBatch::PerRecord& record_;
};

} // namespace

void
DispatchEngine::consumeBatchDeferred(const log::EventRecord* records,
                                     std::size_t count,
                                     DeferredBatch& out)
{
    ++functional_.batches;
    out.clear();
    out.records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const log::EventRecord& record = records[i];
        DeferredBatch::PerRecord per;
        per.first_op = static_cast<std::uint32_t>(out.ops.size());
        Lifeguard::Handler handler =
            resolved_[static_cast<std::size_t>(record.type)];
        if (handler != &ignoreHandler) {
            RecordingSink sink(out, per);
            handler(lifeguard_, record, sink);
        }
        out.records.push_back(per);
        // Functional half of account(): the record counters. The cycle
        // counters are folded in by replayDeferred() on the
        // coordinating thread, once the costs exist — splitting the
        // two halves across the flush barrier is what keeps the stats
        // struct race-free under threaded execution.
        ++functional_.records;
        ++functional_
              .records_by_type[static_cast<std::size_t>(record.type)];
    }
}

Cycles
DispatchEngine::replayDeferred(const log::EventRecord& record,
                               const DeferredBatch& batch, std::size_t i)
{
    const DeferredBatch::PerRecord& per = batch.records[i];
    Cycles cycles = config_.dispatch_cycles + per.instr_cycles;
    // Same arithmetic as Sink: each metadata access costs its own
    // cycle plus the hierarchy penalty, charged in execution order so
    // the shared-L2 state evolves exactly as on the serial path.
    for (std::uint32_t op = 0; op < per.num_ops; ++op) {
        const DeferredBatch::MemOp& mem = batch.ops[per.first_op + op];
        sink_.memAccess(mem.addr, mem.is_write);
    }
    cycles += sink_.take();
    timing_.total_cycles += cycles;
    timing_.cycles_by_type[static_cast<std::size_t>(record.type)] +=
        cycles;
    return cycles;
}

Cycles
DispatchEngine::finish()
{
    lifeguard_.finish(sink_);
    Cycles cycles = sink_.take();
    timing_.total_cycles += cycles;
    return cycles;
}

} // namespace lba::lifeguard
