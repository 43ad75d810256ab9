#pragma once
/**
 * @file
 * A test lifeguard whose handler throws: it checks that the drivers'
 * worker threads hand a handler's exception back to the caller.
 */

#include <cstdint>
#include <stdexcept>

#include "lifeguard/lifeguard.h"

namespace lba::testing {

/** Throws std::runtime_error from the handler of its Nth record. */
class ThrowsOnNthRecord : public lifeguard::Lifeguard
{
  public:
    explicit ThrowsOnNthRecord(std::uint64_t n) : n_(n)
    {
        for (unsigned type = 0; type < log::kNumEventTypes; ++type) {
            onEvent<&ThrowsOnNthRecord::onRecord>(
                static_cast<log::EventType>(type));
        }
    }

    const char* name() const override { return "ThrowsOnNthRecord"; }

  private:
    void
    onRecord(const log::EventRecord&, lifeguard::CostSink&)
    {
        if (++seen_ == n_) throw std::runtime_error("handler failed");
    }

    std::uint64_t n_;
    std::uint64_t seen_ = 0;
};

} // namespace lba::testing
