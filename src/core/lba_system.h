#pragma once
/**
 * @file
 * The dual-core LBA system (paper Figure 1): capture -> compress ->
 * log buffer -> decompress -> dispatch -> lifeguard, with decoupled
 * application/lifeguard cores coordinating only through the buffer.
 *
 * Timing model. Both cores are single-CPI in-order with the shared cache
 * hierarchy of mem::CacheHierarchy. Execution is driven by the
 * application's retirement stream; for every record i we compute
 *
 *   produce(i) = app core time after the instruction retires, delayed
 *                while the buffer is full (back-pressure stall);
 *   start(i)   = max(produce(i), finish(i-1));
 *   finish(i)  = start(i) + dispatch + handler cycles.
 *
 * The buffer slot for record i frees when record i-capacity finishes, so
 * a lifeguard that cannot keep up eventually stalls the application —
 * exactly the paper's decoupling semantics. Syscall containment stalls
 * the application at each syscall until the lifeguard has consumed every
 * record logged before it (Section 2).
 *
 * The value-prediction compressor runs over every logged record to
 * account transport bandwidth (< 1 byte/instruction claim); records are
 * handed to the dispatch engine functionally (the compressor's exact
 * invertibility is covered by tests and the compression benches).
 *
 * The recurrence itself lives in core::PipelineTimer (which also drives
 * the parallel system as its N-lane generalisation); LbaSystem is the
 * single-lane instantiation. docs/ARCHITECTURE.md walks this pipeline
 * and timing model in prose.
 */

#include "core/pipeline_timer.h"
#include "log/capture.h"

namespace lba::core {

/**
 * The LBA monitoring platform: a RetireObserver that owns the capture,
 * compression, buffering and dispatch pipeline for one lifeguard core.
 */
class LbaSystem : public sim::RetireObserver
{
  public:
    /**
     * @param lifeguard The lifeguard running on the lifeguard core.
     * @param hierarchy Shared cache hierarchy (needs >= 2 cores).
     * @param config    Platform configuration.
     */
    LbaSystem(lifeguard::Lifeguard& lifeguard,
              mem::CacheHierarchy& hierarchy, const LbaConfig& config = {});

    void onRetire(const sim::Retired& retired) override;
    void onOsEvent(const sim::OsEvent& event) override;

    /**
     * Complete the run: drain the pipeline and run the lifeguard's
     * end-of-program hook. Must be called exactly once, after run().
     */
    void finish();

    /** Statistics (valid after finish()). */
    const LbaRunStats&
    stats() const
    {
        return timer_.stats();
    }

    /** Log-buffer occupancy statistics (snapshot). */
    BufferStats bufferStats() const
    {
        return timer_.bufferStats(0);
    }

    /** Per-event-type dispatch statistics (snapshot). */
    lifeguard::DispatchStats
    dispatchStats() const
    {
        return timer_.dispatchStats(0);
    }

    /** The run's log-stream encoder (LbaConfig::codec instance). */
    const compress::Encoder& encoder() const
    {
        return timer_.encoder();
    }

    lifeguard::Lifeguard&
    lifeguard()
    {
        return timer_.lifeguard(0);
    }

    /** The underlying timing engine (containment integration). */
    PipelineTimer& timer() { return timer_; }

  private:
    PipelineTimer timer_;
};

} // namespace lba::core
