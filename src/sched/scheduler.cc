/**
 * @file
 * The tenant scheduler and its three policies.
 */

#include "sched/scheduler.h"

#include <algorithm>

#include "common/assert.h"

namespace lba::sched {

const char*
toString(Policy policy)
{
    switch (policy) {
      case Policy::kStatic:
        return "static";
      case Policy::kRoundRobin:
        return "rr";
      case Policy::kLagAware:
        return "lag";
    }
    return "?";
}

bool
parsePolicy(const std::string& name, Policy* policy)
{
    if (name == "static") {
        *policy = Policy::kStatic;
    } else if (name == "rr" || name == "round-robin") {
        *policy = Policy::kRoundRobin;
    } else if (name == "lag" || name == "lag-aware") {
        *policy = Policy::kLagAware;
    } else {
        return false;
    }
    return true;
}

TenantScheduler::TenantScheduler(Policy policy, unsigned lanes)
    : policy_(policy), lanes_(lanes)
{
    LBA_ASSERT(lanes >= 1, "scheduler needs at least one lane");
}

unsigned
TenantScheduler::laneFor(unsigned tenant, unsigned shard) const
{
    LBA_ASSERT(tenant < sets_.size(), "unknown tenant");
    const std::vector<unsigned>& set = sets_[tenant];
    LBA_ASSERT(!set.empty(), "tenant has no lanes assigned");
    return set[shard % set.size()];
}

const std::vector<unsigned>&
TenantScheduler::laneSet(unsigned tenant) const
{
    LBA_ASSERT(tenant < sets_.size(), "unknown tenant");
    return sets_[tenant];
}

void
TenantScheduler::rebalance(const std::vector<unsigned>& active)
{
    unsigned k = static_cast<unsigned>(active.size());
    for (unsigned i = 0; i < k; ++i) {
        if (active[i] >= sets_.size()) sets_.resize(active[i] + 1);
        std::vector<unsigned>& set = sets_[active[i]];
        set.clear();
        if (policy_ == Policy::kRoundRobin) {
            // Every tenant uses every lane; tenant i's shard->lane map
            // is the identity rotated by i, so co-resident tenants'
            // equally-numbered (and typically equally-hot) shards land
            // on different lanes.
            for (unsigned j = 0; j < lanes_; ++j) {
                set.push_back((i + j) % lanes_);
            }
            continue;
        }
        unsigned lo = i * lanes_ / k;
        unsigned hi = (i + 1) * lanes_ / k;
        if (lo == hi) {
            // More tenants than lanes: fall back to a shared lane.
            set.push_back(i % lanes_);
            continue;
        }
        for (unsigned lane = lo; lane < hi; ++lane) set.push_back(lane);
    }
}

void
TenantScheduler::onEpoch(const std::vector<unsigned>& active,
                         const std::vector<double>& recent_lag)
{
    LBA_ASSERT(active.size() == recent_lag.size(),
               "one lag sample per active tenant");
    if (policy_ != Policy::kLagAware || active.size() < 2) return;
    std::size_t taker = 0;
    std::size_t donor = 0;
    for (std::size_t i = 1; i < active.size(); ++i) {
        if (recent_lag[i] > recent_lag[taker]) taker = i;
        if (recent_lag[i] < recent_lag[donor]) donor = i;
    }
    // Steal only on a clear imbalance, and never the donor's last lane.
    if (taker == donor) return;
    if (recent_lag[taker] < 2.0 * recent_lag[donor] + 1.0) return;
    std::vector<unsigned>& from = sets_[active[donor]];
    std::vector<unsigned>& to = sets_[active[taker]];
    if (from.size() < 2) return;
    unsigned lane = from.back();
    if (std::find(to.begin(), to.end(), lane) != to.end()) return;
    from.pop_back();
    to.push_back(lane);
    ++steals_;
}

} // namespace lba::sched
