#pragma once
/**
 * @file
 * Clang Thread Safety Analysis (TSA) vocabulary for the LBA runtime,
 * plus the *thread-role* capabilities built on top of it.
 *
 * The threaded runtime (docs/ARCHITECTURE.md "Threaded execution") has
 * a strict ownership model: the *coordinator* thread owns the timing
 * engine, the shared cache hierarchy and every cycle counter; one
 * *worker* thread per lane owns lifeguard state between flush barriers.
 * Until this header existed those rules lived in
 * runtime `assertCoordinator()` traps and prose. The macros below
 * express them in types, so a clang build with `-Wthread-safety
 * -Wthread-safety-beta -Werror` rejects an ownership violation at
 * compile time (the `static-analysis` CI job, and the negative-compile
 * harness in tests/static_analysis/).
 *
 * Vocabulary (all no-ops on compilers without the TSA attributes, so
 * gcc builds are byte-identical):
 *
 *  - LBA_CAPABILITY / LBA_GUARDED_BY / LBA_PT_GUARDED_BY /
 *    LBA_REQUIRES / LBA_ACQUIRE / LBA_RELEASE / ... — thin aliases of
 *    the standard clang attributes, for mutex-style data.
 *  - Thread roles: `threading::coordinator_role` and
 *    `threading::worker_role` are zero-state capabilities. A function
 *    that may only run on the coordinating thread is annotated
 *    LBA_COORDINATOR_ONLY; the analysis then demands every caller hold
 *    the role. Roles are *assumed*, not acquired: the thread that is
 *    the coordinator by construction (it built the PipelineTimer; see
 *    PipelineTimer::coordinator_) calls assumeCoordinatorRole() once,
 *    which tells the analysis "this code path holds the role" the same
 *    way assertCoordinator() proves it at runtime. Assumption sites
 *    are therefore exactly the places that *define* a thread's role:
 *    the run() drivers and the worker-thread entry lambda. The lint
 *    (tools/lba_lint.py) checks that static annotations and runtime
 *    asserts stay in agreement.
 *  - Per-object sides: a capability member such as
 *    lifeguard::DispatchEngine::functional_side_, held by whichever
 *    thread currently runs that object's work and adopted through an
 *    ASSERT_CAPABILITY function (DispatchEngine::assumeFunctionalOwner).
 *  - sync::Mutex / sync::MutexLock / sync::CondVar — annotated
 *    wrappers over the std primitives (libstdc++'s std::mutex carries
 *    no TSA attributes), used where the runtime really blocks
 *    (core::ThreadedExecutor's sleep path).
 *
 * docs/STATIC_ANALYSIS.md documents the whole scheme and how to run
 * the gate locally.
 */

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LBA_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef LBA_THREAD_ANNOTATION
#define LBA_THREAD_ANNOTATION(x) // no-op outside clang TSA
#endif

/** Marks a type as a capability (lockable or pure role). */
#define LBA_CAPABILITY(name) LBA_THREAD_ANNOTATION(capability(name))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define LBA_SCOPED_CAPABILITY LBA_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding the capability. */
#define LBA_GUARDED_BY(cap) LBA_THREAD_ANNOTATION(guarded_by(cap))

/** Pointer member whose *pointee* is guarded by the capability. */
#define LBA_PT_GUARDED_BY(cap) LBA_THREAD_ANNOTATION(pt_guarded_by(cap))

/** Function callable only while holding the capabilities (exclusive). */
#define LBA_REQUIRES(...)                                                   \
    LBA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function callable only while holding the capabilities (shared). */
#define LBA_REQUIRES_SHARED(...)                                            \
    LBA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function that acquires the capabilities (no arg: `this`). */
#define LBA_ACQUIRE(...)                                                    \
    LBA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases the capabilities (no arg: `this`). */
#define LBA_RELEASE(...)                                                    \
    LBA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that acquires on a true (or given) return value. */
#define LBA_TRY_ACQUIRE(...)                                                \
    LBA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function callable only while NOT holding the capabilities. */
#define LBA_EXCLUDES(...) LBA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/**
 * Function that *proves* the capability is held (a runtime check or a
 * by-construction argument) rather than acquiring it — the static
 * counterpart of an assert. This is how thread roles are adopted.
 */
#define LBA_ASSERT_CAPABILITY(x)                                            \
    LBA_THREAD_ANNOTATION(assert_capability(x))

/** Function returning a reference to the named capability. */
#define LBA_RETURN_CAPABILITY(x) LBA_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: body intentionally not analyzed (say why in a comment). */
#define LBA_NO_THREAD_SAFETY_ANALYSIS                                       \
    LBA_THREAD_ANNOTATION(no_thread_safety_analysis)

#include <mutex>              // IWYU pragma: keep (sync::Mutex)
#include <condition_variable> // IWYU pragma: keep (sync::CondVar)

namespace lba::threading {

/**
 * A zero-state capability naming a thread role. Roles are never locked
 * or unlocked — a thread *is* the coordinator (it constructed the
 * engine) or *is* a worker (it runs workerLoop) — so the only way to
 * hold one is an assume function below, placed where the role is true
 * by construction.
 */
struct LBA_CAPABILITY("thread_role") ThreadRole
{
};

/** The thread driving the timing engine (built the PipelineTimer). */
inline ThreadRole coordinator_role;

/** A core::ThreadedExecutor worker-lane thread. */
inline ThreadRole worker_role;

/**
 * Statically adopt the coordinator role. Call only where the current
 * thread is the coordinator by construction: the top of a platform
 * run() driver, or a PipelineTimer constructor (which records the
 * coordinator's thread id for the matching runtime check,
 * PipelineTimer::assertCoordinator()).
 */
inline void
assumeCoordinatorRole() LBA_ASSERT_CAPABILITY(coordinator_role)
{
}

/**
 * Statically adopt the worker role. Call only from a worker thread's
 * entry function (core::ThreadedExecutor's thread lambda).
 */
inline void
assumeWorkerRole() LBA_ASSERT_CAPABILITY(worker_role)
{
}

} // namespace lba::threading

/** Entry point runnable only on the coordinating thread. Pair with
 *  assertCoordinator() (or an equivalent runtime trap) in the body —
 *  tools/lba_lint.py enforces the parity for core::PipelineTimer. */
#define LBA_COORDINATOR_ONLY                                                \
    LBA_REQUIRES(::lba::threading::coordinator_role)

/** Entry point runnable only on an executor worker thread. */
#define LBA_WORKER_ONLY LBA_REQUIRES(::lba::threading::worker_role)

namespace lba::sync {

/**
 * std::mutex with TSA attributes (libstdc++'s has none). Prefer
 * MutexLock for scoped holds; lock()/unlock() exist for the
 * condition-variable dance and deliberate split acquire/release.
 */
class LBA_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() LBA_ACQUIRE() { mutex_.lock(); }
    void unlock() LBA_RELEASE() { mutex_.unlock(); }
    bool try_lock() LBA_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  private:
    std::mutex mutex_;
};

/** Scoped lock over sync::Mutex (std::lock_guard analogue). */
class LBA_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mutex) LBA_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() LBA_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex& mutex_;
};

/**
 * Condition variable waiting on sync::Mutex. Built on
 * std::condition_variable_any, which takes any BasicLockable — so the
 * annotated mutex is used directly and the wait keeps its usual
 * unlock/re-lock semantics.
 */
class CondVar
{
  public:
    /** Wait until @p pred; @p mutex must be held (it is released while
     *  blocked and re-held when this returns, like std::condition_
     *  variable::wait — the analysis sees it as held throughout, which
     *  matches what the caller may assume before and after). */
    template <typename Pred>
    void
    wait(Mutex& mutex, Pred pred) LBA_REQUIRES(mutex)
    {
        cv_.wait(mutex, pred);
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

} // namespace lba::sync
