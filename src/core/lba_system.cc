/**
 * @file
 * LBA system implementation: construction, finish and statistics on
 * top of the shared timing engine (core::PipelineTimer), each shard on
 * one of its lanes. The per-record steps are inline in the header.
 */

#include "core/lba_system.h"

#include <algorithm>
#include <bit>

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
    : LbaSystem(shards,
                std::make_unique<PipelineTimer>(
                    hierarchy, config, static_cast<unsigned>(shards.size()),
                    1))
{
}

LbaSystem::LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
                     std::unique_ptr<PipelineTimer> timer)
    : LbaSystem(shards, *timer, 0)
{
    owned_timer_ = std::move(timer);
}

LbaSystem::LbaSystem(const std::vector<lifeguard::Lifeguard*>& shards,
                     PipelineTimer& timer, unsigned producer)
    : timer_(timer), producer_(producer)
{
    LBA_ASSERT(!shards.empty(), "LBA needs at least one shard");
    LBA_ASSERT(producer < timer_.producers(), "bad producer index");
    for (unsigned s = 0; s < shards.size(); ++s) {
        LBA_ASSERT(shards[s] != nullptr, "shard lifeguard is null");
        engines_.push_back(timer_.makeEngine(*shards[s], s));
        targets_.push_back({s, engines_.back().get()});
    }
    if (std::has_single_bit(shards.size())) region_mask_ = shards.size() - 1;
}

void
LbaSystem::onRetire(const sim::Retired& retired)
{
    log::EventRecord record = log::CaptureUnit::makeRecord(retired);
    consume(record, produce(record));
}

void
LbaSystem::onOsEvent(const sim::OsEvent& event)
{
    log::EventRecord record = log::CaptureUnit::makeRecord(event);
    consume(record, produce(record));
}

void
LbaSystem::finish()
{
    for (unsigned s = 0; s < shards(); ++s) {
        timer_.finishShard(producer_, targets_[s].lane, *engines_[s]);
    }
    if (owned_timer_) owned_timer_->seal();
}

lifeguard::Lifeguard&
LbaSystem::shardLifeguard(unsigned shard)
{
    LBA_ASSERT(shard < engines_.size(), "bad shard index");
    return engines_[shard]->lifeguard();
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
    for (const auto& guard : shards) {
        // A shard's own repeats are its lifeguard's to keep or drop.
        auto earlier = static_cast<std::ptrdiff_t>(all.size());
        for (const auto& f : guard->findings()) {
            bool repeat = std::any_of(
                all.begin(), all.begin() + earlier,
                [&](const lifeguard::Finding& g) {
                    return g.kind == f.kind && g.pc == f.pc &&
                           g.addr == f.addr && g.tid == f.tid &&
                           g.message == f.message;
                });
            if (!repeat) all.push_back(f);
        }
    }
    return all;
}

} // namespace lba::core
