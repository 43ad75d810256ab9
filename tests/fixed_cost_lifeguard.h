#pragma once
/**
 * @file
 * A test lifeguard with hand-computable costs: it charges a fixed
 * instruction count per record and another at its end-of-program pass.
 */

#include <cstdint>

#include "lifeguard/lifeguard.h"

namespace lba::testing {

/** Charges a fixed instruction count per record (and at finish). */
class FixedCostLifeguard : public lifeguard::Lifeguard
{
  public:
    explicit FixedCostLifeguard(std::uint32_t handler_instrs,
                                std::uint32_t finish_instrs = 0)
        : handler_instrs_(handler_instrs), finish_instrs_(finish_instrs)
    {
        for (unsigned t = 0; t < log::kNumEventTypes; ++t) {
            onEvent<&FixedCostLifeguard::onAny>(
                static_cast<log::EventType>(t));
        }
    }

    const char* name() const override { return "FixedCost"; }

    void
    onAny(const log::EventRecord&, lifeguard::CostSink& cost)
    {
        cost.instrs(handler_instrs_);
    }

    void
    finish(lifeguard::CostSink& cost) override
    {
        cost.instrs(finish_instrs_);
    }

  private:
    std::uint32_t handler_instrs_;
    std::uint32_t finish_instrs_;
};

} // namespace lba::testing
