/**
 * @file
 * Cache-hierarchy timing implementation.
 */

#include "mem/hierarchy.h"

#include "common/assert.h"

namespace lba::mem {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config)
    : config_(config)
{
    LBA_ASSERT(config_.num_cores > 0, "need at least one core");
    for (unsigned c = 0; c < config_.num_cores; ++c) {
        CacheConfig l1i_cfg{"l1i" + std::to_string(c), config_.l1i_bytes,
                            config_.line_bytes, config_.l1_assoc};
        CacheConfig l1d_cfg{"l1d" + std::to_string(c), config_.l1d_bytes,
                            config_.line_bytes, config_.l1_assoc};
        l1i_.push_back(std::make_unique<Cache>(l1i_cfg));
        l1d_.push_back(std::make_unique<Cache>(l1d_cfg));
    }
    CacheConfig l2_cfg{"l2", config_.l2_bytes, config_.line_bytes,
                       config_.l2_assoc};
    l2_ = std::make_unique<Cache>(l2_cfg);
}

void
CacheHierarchy::flushAll()
{
    for (auto& cache : l1i_) cache->flush();
    for (auto& cache : l1d_) cache->flush();
    l2_->flush();
}

void
CacheHierarchy::resetStats()
{
    for (auto& cache : l1i_) cache->resetStats();
    for (auto& cache : l1d_) cache->resetStats();
    l2_->resetStats();
}

} // namespace lba::mem
