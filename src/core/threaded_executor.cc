/**
 * @file
 * Worker-thread pool implementation (see the header for the barrier
 * protocol and memory-order argument).
 */

#include "core/threaded_executor.h"

#include "common/assert.h"

namespace lba::core {

namespace {

/** Spin iterations (with yield) before falling back to the condition
 *  variable. Small: on an oversubscribed host the other side needs the
 *  core more than we need the latency. */
constexpr int kSpinRounds = 256;

} // namespace

ThreadedExecutor::ThreadedExecutor(unsigned nworkers)
{
    if (nworkers == 0) nworkers = 1;
    workers_.reserve(nworkers);
    for (unsigned i = 0; i < nworkers; ++i) {
        workers_.push_back(std::make_unique<Worker>());
    }
    for (auto& worker : workers_) {
        // The one place the worker role is established: this lambda IS
        // the worker thread's entry function.
        worker->thread = std::thread([this, w = worker.get()] {
            threading::assumeWorkerRole();
            workerLoop(*w);
        });
    }
}

ThreadedExecutor::~ThreadedExecutor()
{
    // The destroying thread owns the executor — it is the coordinator
    // by construction (PipelineTimer tears its lanes down on the
    // thread that built them; seal() already joined on that thread).
    threading::assumeCoordinatorRole();
    stopAndJoin();
}

void
ThreadedExecutor::stopAndJoin()
{
    if (joined_) return;
    joined_ = true;
    for (auto& worker : workers_) {
        {
            sync::MutexLock lock(worker->mutex);
            worker->stop.store(true, std::memory_order_release);
        }
        worker->cv_work.notify_one();
    }
    for (auto& worker : workers_) {
        worker->thread.join();
    }
}

void
ThreadedExecutor::bind(lifeguard::DispatchEngine* engine, unsigned hint)
{
    LBA_ASSERT(engine != nullptr, "cannot bind a null engine");
    binding_.emplace(&engine->lifeguard(),
                     hint % static_cast<unsigned>(workers_.size()));
}

void
ThreadedExecutor::enqueue(lifeguard::DispatchEngine* engine,
                          unsigned hint, const log::EventRecord* records,
                          std::size_t count,
                          lifeguard::DeferredBatch* out)
{
    LBA_ASSERT(!joined_, "enqueue() after stopAndJoin()");
    auto [it, inserted] = binding_.emplace(
        &engine->lifeguard(),
        hint % static_cast<unsigned>(workers_.size()));
    Worker& worker = *workers_[it->second];
    // Between rounds the coordinator owns `runs` (the worker released
    // it through its `done` store, which dispatchRound() acquired).
    worker.runs.push_back({engine, records, count, out});
}

void
ThreadedExecutor::dispatchRound()
{
    // Publish: one release store per involved worker, after its batch
    // list is fully written. The brief lock before notify closes the
    // race with a worker between its predicate check and its wait.
    for (auto& wp : workers_) {
        Worker& worker = *wp;
        if (worker.runs.empty()) continue;
        std::uint64_t round =
            worker.publish.load(std::memory_order_relaxed) + 1;
        {
            sync::MutexLock lock(worker.mutex);
            worker.publish.store(round, std::memory_order_release);
        }
        worker.cv_work.notify_one();
    }

    // Collect: acquire each worker's `done`, spinning briefly before
    // sleeping. After this loop every handler side effect of the round
    // happens-before the coordinator's next step (the timing replay).
    for (auto& wp : workers_) {
        Worker& worker = *wp;
        std::uint64_t target =
            worker.publish.load(std::memory_order_relaxed);
        if (worker.done.load(std::memory_order_acquire) == target) {
            continue;
        }
        for (int spin = 0; spin < kSpinRounds; ++spin) {
            if (worker.done.load(std::memory_order_acquire) == target) {
                break;
            }
            std::this_thread::yield();
        }
        if (worker.done.load(std::memory_order_acquire) != target) {
            sync::MutexLock lock(worker.mutex);
            worker.cv_done.wait(worker.mutex, [&] {
                return worker.done.load(std::memory_order_acquire) ==
                       target;
            });
        }
    }
}

void
ThreadedExecutor::workerLoop(Worker& worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        // Wait for a new round (publish != seen) or stop, spinning
        // briefly before sleeping on cv_work.
        bool ready = false;
        for (int spin = 0; spin < kSpinRounds && !ready; ++spin) {
            ready = worker.publish.load(std::memory_order_acquire) !=
                        seen ||
                    worker.stop.load(std::memory_order_acquire);
            if (!ready) std::this_thread::yield();
        }
        if (!ready) {
            sync::MutexLock lock(worker.mutex);
            worker.cv_work.wait(worker.mutex, [&] {
                return worker.publish.load(std::memory_order_acquire) !=
                           seen ||
                       worker.stop.load(std::memory_order_acquire);
            });
        }
        std::uint64_t target =
            worker.publish.load(std::memory_order_acquire);
        if (target == seen) break; // stop, nothing published

        // Execute this round's batches in enqueue (= global arrival)
        // order. This is the only place handler code runs off the
        // coordinator thread; every engine here is pinned to this
        // worker, so its lifeguard state is touched by one thread at a
        // time, ordered by the publish/done chain.
        for (const Run& run : worker.runs) {
            // This worker owns the engine's functional side for the
            // round: the engine is pinned here, and the publish/done
            // chain hands its lifeguard state over exclusively.
            run.engine->assumeFunctionalOwner();
            run.engine->consumeBatchDeferred(run.records, run.count,
                                             *run.out);
        }
        worker.runs.clear();
        seen = target;
        {
            sync::MutexLock lock(worker.mutex);
            worker.done.store(seen, std::memory_order_release);
        }
        worker.cv_done.notify_one();
    }
}

} // namespace lba::core
