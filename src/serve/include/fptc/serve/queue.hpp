// Bounded producer/consumer queue for the serve pipeline stages.
//
// Both hand-offs in the streaming classifier — batches of stream events
// into the assembler and window-closed flows into the classifier — run
// through this queue.  It is deliberately *bounded* and *non-blocking on the
// producer side*: a full queue makes try_push return false immediately, so
// overload surfaces as an explicit typed shed decision at the producer
// instead of unbounded memory growth or head-of-line blocking.  The consumer
// side blocks with a timeout so threads wind down promptly after close().
//
// Plain mutex + condition_variable, so the hops stay simple to check under
// tsan; what a hop costs is how often it locks and wakes.  An ingest batch
// is a view of up to 256 events of the immutable stream, not a copy.  One
// event per push woke a caught-up assembler for nearly every event (batches
// took perfbench serve_cnn from 1.2 to 7.8 M events/s on a 4-vCPU host), and
// copied events let a stream-sized queue hold ~92 MB.  The ready hop moves
// one window-closed flow per push, each worth a flowpic rasterization.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace fptc::serve {

template <typename T>
class BoundedQueue {
public:
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

    /// Non-blocking push; false when the queue is full or closed.  The
    /// caller owns the shed decision for a refused item.
    [[nodiscard]] bool try_push(T value)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || items_.size() >= capacity_) {
                return false;
            }
            items_.push_back(std::move(value));
        }
        consumer_cv_.notify_one();
        return true;
    }

    /// Push that waits up to `timeout` for space (the end-of-stream flush
    /// path, where the consumer is known to be draining).  False when the
    /// queue stayed full for the whole timeout or was closed.
    [[nodiscard]] bool push_wait(T value, std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!producer_cv_.wait_for(lock, timeout, [this] {
                return closed_ || items_.size() < capacity_;
            })) {
            return false;
        }
        if (closed_) {
            return false;
        }
        items_.push_back(std::move(value));
        lock.unlock();
        consumer_cv_.notify_one();
        return true;
    }

    /// Pop one item, waiting up to `timeout`.  nullopt on timeout, or
    /// immediately once the queue is closed and drained.
    [[nodiscard]] std::optional<T> pop(std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        consumer_cv_.wait_for(lock, timeout, [this] { return closed_ || !items_.empty(); });
        if (items_.empty()) {
            return std::nullopt;
        }
        T value = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        producer_cv_.notify_one();
        return value;
    }

    /// Move up to `max_items` into `out` (appended), waiting up to `timeout`
    /// for the first one.  Returns the number taken; 0 means timeout or
    /// closed-and-drained — disambiguate with closed().
    std::size_t drain(std::vector<T>& out, std::size_t max_items, std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        consumer_cv_.wait_for(lock, timeout, [this] { return closed_ || !items_.empty(); });
        std::size_t taken = 0;
        while (taken < max_items && !items_.empty()) {
            out.push_back(std::move(items_.front()));
            items_.pop_front();
            ++taken;
        }
        if (taken > 0) {
            lock.unlock();
            producer_cv_.notify_all();
        }
        return taken;
    }

    /// Close the queue: producers are refused from now on, consumers drain
    /// the remaining items and then see emptiness immediately.
    void close()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        consumer_cv_.notify_all();
        producer_cv_.notify_all();
    }

    [[nodiscard]] bool closed() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    [[nodiscard]] std::size_t size() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable consumer_cv_;
    std::condition_variable producer_cv_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace fptc::serve
