#pragma once
/**
 * @file
 * The three-stage schedule of the LBA drive without containment
 * (sched::LifeguardPool, which core::Experiment::runLba drives with one
 * tenant): the calling thread makes a stream of entries, an encoder
 * thread completes each in place, and a worker thread consumes them in
 * order, a window at a time.
 *
 * The results are those of encoding and consuming each entry as soon
 * as it is made, on the calling thread: the driver puts in an entry
 * everything the later stages need, the encoder reads nothing the
 * worker writes, and neither later stage reads what the driver keeps.
 * In the LBA drive the driver runs the simulator and capture, the
 * encoder writes the application cores' L1 caches and the log sizers,
 * which nothing on the worker touches (core/pipeline_timer.h), and the
 * worker writes the lanes' L1Ds and the shared L2. So each stage
 * boundary needs only one release/acquire handoff per window: the
 * driver publishes a filled window, the encoder passes it on once it
 * has encoded it, and the worker hands back the one it consumed. State
 * one thread writes and another reads sits on cache lines of its own.
 * docs/ARCHITECTURE.md ("Three host threads") describes the stages.
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

/** Entries per window: the later stages take the stream in windows of
 *  this many (records and scheduler steps). */
inline constexpr std::size_t kWindowRecords = 2048;
/** Windows in flight between the driver and the worker: how far the
 *  simulator may run ahead of the lifeguards. */
inline constexpr std::size_t kWindows = 4;

/**
 * The ring between the three threads. The calling thread fills each
 * entry in place (slot()) and commit()s it; the encoder thread calls
 * @p Encode on each, and then the worker calls @p Consume on each, in
 * commit order. Both threads start in the constructor; finish() or the
 * destructor closes the ring and joins them.
 *
 * @tparam Entry   What one commit hands over (default-constructible and
 *                 copy-assignable: the windows hold entries by value).
 * @tparam Encode  Callable as `encode(Entry&)` on the encoder thread.
 * @tparam Consume Callable as `consume(const Entry&)` on the worker.
 */
template <typename Entry, typename Encode, typename Consume>
class ThreeStageRun
{
  public:
    /** Start the encoder and the worker. */
    ThreeStageRun(Encode encode, Consume consume)
        : encode_(std::move(encode)), consume_(std::move(consume)),
          windows_(std::make_unique<Window[]>(kWindows))
    {
        encoder_ = std::thread([this] { encodeWindows(); });
        try {
            worker_ = std::thread([this] { consumeWindows(); });
        } catch (...) {
            close();
            throw;
        }
    }

    /** Close the ring and join both threads, if finish() did not. */
    ~ThreeStageRun() { close(); }

    ThreeStageRun(const ThreeStageRun&) = delete;
    ThreeStageRun& operator=(const ThreeStageRun&) = delete;

    /** The entry the next commit() hands over, to fill in place. */
    Entry&
    slot()
    {
        return windows_[published_windows_ % kWindows].entries[fill_];
    }

    /**
     * Hand slot() on; waits only while the ring is full.
     * @return False once the encoder or the worker has failed, which
     *         the driver learns when it hands over a window. The ring
     *         is then closed and both threads joined: later entries go
     *         nowhere, and finish() rethrows the failure.
     */
    bool
    commit()
    {
        if (++fill_ < kWindowRecords) return true;
        return nextWindow();
    }

    /**
     * Hand over the last partial window, close the ring and join both
     * threads. Rethrows the failure of the earliest entry: a worker's
     * exception comes from an entry the encoder had finished, so it
     * comes before the encoder's.
     */
    void
    finish()
    {
        close();
        if (worker_error_) std::rethrow_exception(worker_error_);
        if (encoder_error_) std::rethrow_exception(encoder_error_);
    }

  private:
    /** Host cache line size. */
    static constexpr std::size_t kLine = 64;

    struct alignas(kLine) Window
    {
        /** Entries the driver filled, set before it publishes. */
        std::size_t count = 0;
        alignas(kLine) std::array<Entry, kWindowRecords> entries;
    };

    /**
     * Publish the full window, then wait until the next window's slot
     * is free: the worker consumed the window that used it kWindows
     * ago. On a failure, close the ring instead, so the driver's
     * windows are its own again.
     */
    bool
    nextWindow()
    {
        if (closed_) {
            fill_ = 0;
            return false;
        }
        publish(false);
        std::uint64_t consumed = consumed_.load(std::memory_order_acquire);
        while (!(consumed & 1) &&
               (consumed >> 1) + kWindows <= published_windows_) {
            consumed_.wait(consumed, std::memory_order_acquire);
            consumed = consumed_.load(std::memory_order_acquire);
        }
        if (!(consumed & 1)) return true;
        close();
        return false;
    }

    /**
     * The encoder: encode published windows until the ring closes,
     * passing each on to the worker. Its last store carries the closed
     * mark with the count of windows encoded, so the worker cannot see
     * the mark without them; after a failure that count stops short.
     */
    void
    encodeWindows()
    {
        std::uint64_t done = 0;
        try {
            for (;;) {
                std::uint64_t word =
                    published_.load(std::memory_order_acquire);
                if (word >> 1 == done) {
                    if (word & 1) break;
                    published_.wait(word, std::memory_order_acquire);
                    continue;
                }
                for (; done < word >> 1; ++done) {
                    Window& window = windows_[done % kWindows];
                    for (std::size_t i = 0; i < window.count; ++i) {
                        encode_(window.entries[i]);
                    }
                    encoded_.store((done + 1) << 1,
                                   std::memory_order_release);
                    encoded_.notify_one();
                }
            }
        } catch (...) {
            // Read by the worker once it acquires the store below.
            encoder_error_ = std::current_exception();
        }
        encoded_.store(done << 1 | 1, std::memory_order_release);
        encoded_.notify_one();
    }

    /**
     * The worker: consume encoded windows until the encoder stops,
     * handing each back to the driver. A failure here or in the encoder
     * sets the failed bit, which stops the driver from waiting on
     * windows that will not come back.
     */
    void
    consumeWindows()
    {
        std::uint64_t done = 0;
        try {
            for (;;) {
                std::uint64_t word = encoded_.load(std::memory_order_acquire);
                if (word >> 1 == done) {
                    if (word & 1) break;
                    encoded_.wait(word, std::memory_order_acquire);
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
            if (!encoder_error_) return;
        } catch (...) {
            // Forwarded to finish() after the join.
            worker_error_ = std::current_exception();
        }
        consumed_.store(done << 1 | 1, std::memory_order_release);
        consumed_.notify_one();
    }

    /**
     * Publish the window being filled, if it holds any entries; with
     * @p closing, mark the ring closed in the same store, so the
     * encoder cannot see the mark without the final window.
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
    }

    /** Publish the last window closed and join both threads. */
    void
    close()
    {
        if (closed_) return;
        closed_ = true;
        publish(true);
        encoder_.join();
        if (worker_.joinable()) worker_.join();
    }

    Encode encode_;
    Consume consume_;
    std::unique_ptr<Window[]> windows_;

    /** Driver thread only: windows published, entries in the one being
     *  filled, and whether the ring is closed. */
    alignas(kLine) std::uint64_t published_windows_ = 0;
    std::size_t fill_ = 0;
    bool closed_ = false;

    /** (windows published << 1) | ring closed: driver to encoder. */
    alignas(kLine) std::atomic<std::uint64_t> published_{0};
    /** (windows encoded << 1) | encoder stopped: encoder to worker. */
    alignas(kLine) std::atomic<std::uint64_t> encoded_{0};
    /** What the encoder threw. */
    std::exception_ptr encoder_error_;
    /** (windows consumed << 1) | a later stage failed: worker to
     *  driver. */
    alignas(kLine) std::atomic<std::uint64_t> consumed_{0};
    /** What the worker threw (read after the join). */
    std::exception_ptr worker_error_;

    std::thread encoder_;
    std::thread worker_;
};

} // namespace lba::core
