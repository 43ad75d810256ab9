#pragma once
/**
 * @file
 * Worker-thread pool for threaded execution
 * (LbaConfig::execution = ExecutionMode::kThreaded).
 *
 * One host thread per lifeguard lane. The coordinating thread (the one
 * driving PipelineTimer) stages batches of records onto workers with
 * enqueue(), then runs one *round* with dispatchRound(): every involved
 * worker executes its batches through
 * lifeguard::DispatchEngine::consumeBatchDeferred() — the functional
 * half of dispatch, against state private to that engine's lifeguard —
 * and the call returns once all of them are done. The timing half
 * (replayDeferred) stays on the coordinator, which is what keeps
 * simulated cycles bit-identical to serial execution; see
 * docs/ARCHITECTURE.md "Threaded execution".
 *
 * Barrier protocol. Each worker owns two monotonic counters:
 *
 *   publish — bumped by the coordinator (release) after it has written
 *             the worker's batch list; the worker's acquire load
 *             therefore sees a fully-written list.
 *   done    — set by the worker (release) to the publish value it just
 *             served, after executing and clearing the list; the
 *             coordinator's acquire load therefore sees every handler
 *             side effect of the round.
 *
 * The publish→done chain alternates strictly (the coordinator never
 * publishes round r+1 before observing done == r), so the batch list
 * and everything the handlers touch are always owned by exactly one
 * thread — no locks on the work itself. A mutex + condition variable
 * pair per worker exists only to sleep: both sides spin briefly
 * (yielding), then block, so the protocol is cheap when cores are
 * plentiful and fair when they are not (e.g. a 1-core host running a
 * 4-lane simulation). tests/threaded_test.cpp proves cycle identity
 * across the suite; the TSan CI job checks the ordering claims.
 *
 * Engine affinity: an engine is pinned to one worker at first sight
 * (hint = the lane it first appeared on) and never migrates. Pinning is
 * keyed on the engine's *lifeguard*, so two engines sharing a lifeguard
 * (if a platform ever folds shards that way) can never run concurrently.
 */

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "lifeguard/dispatch.h"
#include "log/event.h"

namespace lba::core {

/**
 * See the file comment. Coordinator-thread only, except workerLoop —
 * and the annotations now say so: the public round API is
 * LBA_COORDINATOR_ONLY, workerLoop is LBA_WORKER_ONLY, and the thread
 * entry lambda is the one place the worker role is assumed.
 */
class ThreadedExecutor
{
  public:
    /** Spawns @p nworkers threads (>= 1), idle until dispatchRound(). */
    explicit ThreadedExecutor(unsigned nworkers);

    /** Joins the workers (idempotent with stopAndJoin()). The
     *  destroying thread is the owning coordinator by construction —
     *  the one context where the role holds without a driver assume. */
    ~ThreadedExecutor();

    ThreadedExecutor(const ThreadedExecutor&) = delete;
    ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

    /** Pin @p engine's lifeguard to worker `hint % workers()` now,
     *  before any record flows (lane engines at construction). */
    void bind(lifeguard::DispatchEngine* engine, unsigned hint)
        LBA_COORDINATOR_ONLY;

    /**
     * Stage one batch for the next round on @p engine's worker
     * (pinning it with @p hint on first sight). @p records and @p out
     * must stay valid through the next dispatchRound(); batches of one
     * worker run in enqueue order, so staging runs in global arrival
     * order preserves per-engine record order.
     */
    void enqueue(lifeguard::DispatchEngine* engine, unsigned hint,
                 const log::EventRecord* records, std::size_t count,
                 lifeguard::DeferredBatch* out) LBA_COORDINATOR_ONLY;

    /** Run every staged batch; returns when all workers are done (and
     *  their side effects are visible, per the publish→done chain). */
    void dispatchRound() LBA_COORDINATOR_ONLY;

    /** Stop and join the workers. Idempotent; implied by ~. */
    void stopAndJoin() LBA_COORDINATOR_ONLY;

    unsigned workers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    /** One staged consumeBatchDeferred() call. */
    struct Run
    {
        lifeguard::DispatchEngine* engine = nullptr;
        const log::EventRecord* records = nullptr;
        std::size_t count = 0;
        lifeguard::DeferredBatch* out = nullptr;
    };

    struct Worker
    {
        std::thread thread;
        /** Rounds published to this worker (coordinator: release). */
        std::atomic<std::uint64_t> publish{0};
        /** Rounds completed by this worker (worker: release). */
        std::atomic<std::uint64_t> done{0};
        std::atomic<bool> stop{false};
        /** Batch list: coordinator-owned between rounds, worker-owned
         *  between its publish and done (see file comment). The
         *  handoff is the publish/done counter chain, which is beyond
         *  a GUARDED_BY — the TSan CI job covers what TSA cannot. */
        std::vector<Run> runs;
        /** Sleep support only; the data above is lock-free. */
        sync::Mutex mutex;
        sync::CondVar cv_work;
        sync::CondVar cv_done;
    };

    /** Worker-thread body; the entry lambda assumes the role. */
    void workerLoop(Worker& worker) LBA_WORKER_ONLY;

    /** Workers are address-stable (atomics are not movable). */
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Lifeguard -> worker pinning (see file comment). */
    std::unordered_map<const lifeguard::Lifeguard*, unsigned> binding_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    bool joined_ LBA_GUARDED_BY(::lba::threading::coordinator_role) =
        false;
};

} // namespace lba::core
