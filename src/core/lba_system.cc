/**
 * @file
 * LBA system implementation: routing on top of the shared timing
 * engine (core::PipelineTimer), one engine lane per shard.
 */

#include "core/lba_system.h"

#include "common/assert.h"

namespace lba::core {

LbaSystem::LbaSystem(lifeguard::Lifeguard& lifeguard,
                     mem::CacheHierarchy& hierarchy,
                     const LbaConfig& config)
    : LbaSystem(std::vector<lifeguard::Lifeguard*>{&lifeguard}, hierarchy,
                config)
{
}

LbaSystem::LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
                     mem::CacheHierarchy& hierarchy,
                     const LbaConfig& config)
    : timer_(hierarchy, config, static_cast<unsigned>(shards.size()))
{
    for (unsigned s = 0; s < shards.size(); ++s) {
        LBA_ASSERT(shards[s] != nullptr, "shard lifeguard is null");
        engines_.push_back(timer_.makeEngine(*shards[s], s));
        targets_.push_back({s, engines_.back().get()});
    }
}

void
LbaSystem::deliver(const log::EventRecord& record)
{
    unsigned shard = routeRecord(record, shards(), round_robin_);
    std::span<const PipelineTimer::Target> targets(targets_);
    timer_.log(0, record,
               shard == kBroadcast ? targets : targets.subspan(shard, 1));
}

void
LbaSystem::onRetire(const sim::Retired& retired)
{
    timer_.retire(retired);
    deliver(log::CaptureUnit::makeRecord(retired));
    if (retired.is_syscall) {
        // The OS stalls the syscall until the lifeguards have checked
        // all prior log entries; applied before the next retirement so
        // the annotation records emitted by this syscall are drained
        // too.
        timer_.noteSyscall();
    }
}

void
LbaSystem::onOsEvent(const sim::OsEvent& event)
{
    deliver(log::CaptureUnit::makeRecord(event));
}

void
LbaSystem::finish()
{
    for (unsigned s = 0; s < shards(); ++s) {
        timer_.finishShard(0, s, *engines_[s]);
    }
    timer_.seal();
}

lifeguard::DispatchStats
LbaSystem::dispatchStats(unsigned shard) const
{
    LBA_ASSERT(shard < engines_.size(), "bad shard index");
    return engines_[shard]->stats();
}

std::vector<lifeguard::Finding>
mergeShardFindings(
    const std::vector<std::unique_ptr<lifeguard::Lifeguard>>& shards)
{
    std::vector<lifeguard::Finding> all;
    auto seen = [&](const lifeguard::Finding& f) {
        for (const auto& g : all) {
            if (g.kind == f.kind && g.pc == f.pc && g.addr == f.addr &&
                g.tid == f.tid && g.message == f.message) {
                return true;
            }
        }
        return false;
    };
    for (const auto& guard : shards) {
        for (const auto& f : guard->findings()) {
            if (!seen(f)) all.push_back(f);
        }
    }
    return all;
}

} // namespace lba::core
