#pragma once
/**
 * @file
 * The two-thread schedule of the LBA drive without containment
 * (sched::LifeguardPool, which core::Experiment::runLba drives with one
 * tenant): the calling thread produces a stream of entries, and one
 * worker thread consumes them in order, a window at a time.
 *
 * The results are those of consuming each entry as soon as it is made,
 * on the calling thread: the driver puts in an entry everything the
 * consumer half needs, and the producer half reads nothing the consumer
 * half writes. In the LBA drive the producer half also writes the
 * application cores' L1 caches, which nothing on the worker touches
 * (core/pipeline_timer.h), and the worker writes the lanes' L1Ds and
 * the shared L2. So the threads need only one release/acquire handoff
 * per window each way: the producer publishes a filled window, and the
 * worker hands back the one it consumed. State one thread writes and
 * the other reads sits on cache lines of its own. docs/ARCHITECTURE.md
 * ("Two host threads") describes both halves.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

namespace lba::core {

/** Entries per window: the worker takes the stream in windows of this
 *  many (records and scheduler steps). */
inline constexpr std::size_t kWindowRecords = 2048;
/** Windows in flight between the threads: how far the simulator may
 *  run ahead of the lifeguards. */
inline constexpr std::size_t kWindows = 4;

/**
 * The ring between the two threads. The calling thread fills each
 * entry in place (slot()) and commit()s it; the worker calls @p Consume
 * on each, in commit order. The worker starts in the constructor;
 * finish() or the destructor closes the ring and joins it.
 *
 * @tparam Entry   What one commit hands over (default-constructible and
 *                 copy-assignable: the windows hold entries by value).
 * @tparam Consume Callable as `consume(const Entry&)` on the worker.
 */
template <typename Entry, typename Consume>
class TwoThreadRun
{
  public:
    /** Start the worker, which passes every entry to @p consume. */
    explicit TwoThreadRun(Consume consume)
        : consume_(std::move(consume)),
          windows_(std::make_unique<Window[]>(kWindows)),
          worker_([this] { work(); })
    {
    }

    /** Close the ring and join the worker, if finish() did not. */
    ~TwoThreadRun() { close(); }

    TwoThreadRun(const TwoThreadRun&) = delete;
    TwoThreadRun& operator=(const TwoThreadRun&) = delete;

    /** The entry the next commit() hands over, to fill in place. */
    Entry&
    slot()
    {
        return windows_[published_windows_ % kWindows].entries[fill_];
    }

    /** Hand slot() to the worker; waits only while the ring is full. */
    void
    commit()
    {
        if (++fill_ == kWindowRecords) publish(false);
    }

    /**
     * Hand over the last partial window, close the ring and join the
     * worker. Rethrows what the worker threw.
     */
    void
    finish()
    {
        close();
        if (error_) std::rethrow_exception(error_);
    }

  private:
    /** Host cache line size. */
    static constexpr std::size_t kLine = 64;

    struct alignas(kLine) Window
    {
        /** Entries the producer filled, set before it publishes. */
        std::size_t count = 0;
        alignas(kLine) std::array<Entry, kWindowRecords> entries;
    };

    /**
     * Publish the window being filled, if it holds any entries; with
     * @p closing, mark the ring closed in the same store, so the worker
     * cannot see the mark without the final window. Otherwise wait
     * until the next window's slot is free: the worker consumed the
     * window that used it kWindows ago, or failed.
     */
    void
    publish(bool closing)
    {
        if (fill_ > 0) {
            windows_[published_windows_ % kWindows].count = fill_;
            ++published_windows_;
            fill_ = 0;
        }
        published_.store(published_windows_ << 1 | (closing ? 1 : 0),
                         std::memory_order_release);
        published_.notify_one();
        if (closing) return;
        std::uint64_t consumed = consumed_.load(std::memory_order_acquire);
        while (!(consumed & 1) &&
               (consumed >> 1) + kWindows <= published_windows_) {
            consumed_.wait(consumed, std::memory_order_acquire);
            consumed = consumed_.load(std::memory_order_acquire);
        }
    }

    /** The worker: consume published windows until the ring closes. */
    void
    work()
    {
        std::uint64_t done = 0;
        try {
            for (;;) {
                std::uint64_t word =
                    published_.load(std::memory_order_acquire);
                if (word >> 1 == done) {
                    if (word & 1) return;
                    published_.wait(word, std::memory_order_acquire);
                    continue;
                }
                for (; done < word >> 1; ++done) {
                    const Window& window = windows_[done % kWindows];
                    for (std::size_t i = 0; i < window.count; ++i) {
                        consume_(window.entries[i]);
                    }
                    consumed_.store((done + 1) << 1,
                                    std::memory_order_release);
                    consumed_.notify_one();
                }
            }
        } catch (...) {
            // Forwarded to finish(); the failed bit stops the producer
            // from waiting on a worker that is gone.
            error_ = std::current_exception();
            consumed_.store(done << 1 | 1, std::memory_order_release);
            consumed_.notify_one();
        }
    }

    void
    close()
    {
        if (!worker_.joinable()) return;
        publish(true);
        worker_.join();
    }

    Consume consume_;
    std::unique_ptr<Window[]> windows_;

    /** Producer thread only: windows published, entries in the one
     *  being filled. */
    alignas(kLine) std::uint64_t published_windows_ = 0;
    std::size_t fill_ = 0;

    /** (windows published << 1) | ring closed. */
    alignas(kLine) std::atomic<std::uint64_t> published_{0};
    /** (windows consumed << 1) | worker failed. */
    alignas(kLine) std::atomic<std::uint64_t> consumed_{0};
    /** What the worker threw (read after the join). */
    std::exception_ptr error_;
    /** Last member: it starts once everything it uses exists. */
    std::thread worker_;
};

} // namespace lba::core
