/**
 * @file
 * Positive control for the negative-compile harness: the annotated
 * ownership patterns used throughout src/, written the *correct* way.
 * This TU must compile cleanly under -Wthread-safety -Werror; if it
 * does not, the harness (not the tree) is broken, and the violation
 * TUs' failures would prove nothing.
 */

#include "common/thread_annotations.h"
#include "core/pipeline_timer.h"
#include "lifeguard/dispatch.h"

/** GUARDED_BY data accessed under its mutex. */
struct LbaLintCounter
{
    lba::sync::Mutex mutex;
    int value LBA_GUARDED_BY(mutex) = 0;
};

namespace {

/** A coordinator-by-construction driver: assume, then drive. */
void
coordinatorDrives(lba::core::PipelineTimer& timer,
                  const lba::sim::Retired& retired)
{
    lba::threading::assumeCoordinatorRole();
    timer.retire(retired);
    timer.sync();
    (void)timer.stats();
}

void
bumpLocked(LbaLintCounter& counter)
{
    lba::sync::MutexLock lock(counter.mutex);
    counter.value += 1;
}

/** A worker running an engine's functional half after adopting the
 *  engine's per-object side (the coordinator replays the costs). */
void
workerDrains(lba::lifeguard::DispatchEngine& engine,
             const lba::log::EventRecord& record,
             lba::lifeguard::DeferredBatch& out)
{
    lba::threading::assumeWorkerRole();
    engine.assumeFunctionalOwner();
    engine.consumeBatchDeferred(&record, 1, out);
}

} // namespace

/** Anchor so the object file is non-empty and the statics are used. */
void
lbaStaticAnalysisPositiveControl(lba::core::PipelineTimer& timer,
                                 const lba::sim::Retired& retired,
                                 lba::lifeguard::DispatchEngine& engine,
                                 const lba::log::EventRecord& record,
                                 lba::lifeguard::DeferredBatch& out,
                                 LbaLintCounter& counter)
{
    coordinatorDrives(timer, retired);
    bumpLocked(counter);
    workerDrains(engine, record, out);
}
