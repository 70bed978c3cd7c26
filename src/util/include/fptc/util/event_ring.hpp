// One single-producer, overwrite-oldest event ring.
//
// EventRing<Event> is a non-owning view over caller-owned u64 words: a head
// word (events ever pushed), then `capacity` slots of kSlotWords words.  The
// owner decides where the words live — a per-thread heap vector (trace
// spans) or one mmap'd file region (the serve flight recorder, whose rings
// outlive a SIGKILLed process in the page cache) — and a copy of the words
// taken after the producer died decodes like the live ring.
//
// Memory-order contract.  Exactly one thread pushes: relaxed atomic_ref
// stores of the slot's words, then a release store of head + 1.  A reader
// acquires the head and loads the newest min(head, capacity) slots relaxed.
// A snapshot taken while the producer runs is race-free (tsan-clean), but
// its oldest slots may already hold newer events, even mixed word by word;
// once the producer has stopped, the window is exact.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace fptc::util {

template <class Event>
class EventRing {
    static_assert(std::is_trivially_copyable_v<Event>, "slots are copied word by word");
    static_assert(alignof(Event) <= alignof(std::uint64_t), "slots are u64-aligned");

public:
    /// Words one event occupies in a slot.
    static constexpr std::size_t kSlotWords =
        (sizeof(Event) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

    /// Words a ring of `capacity` slots needs: the head, then the slots.
    [[nodiscard]] static constexpr std::size_t words(std::size_t capacity) noexcept
    {
        return 1 + capacity * kSlotWords;
    }

    EventRing() = default;

    /// View `words(capacity)` words at `base`; capacity must be > 0.  The
    /// words are not cleared: zeroed storage is an empty ring, and storage
    /// a dead producer left behind is its last window.
    EventRing(std::uint64_t* base, std::size_t capacity) noexcept
        : base_(base), capacity_(capacity)
    {
        next_ = static_cast<std::size_t>(recorded() % capacity_);
    }

    /// Overwrite the oldest slot.  Only the producer calls this, always
    /// through the same view.
    void push(const Event& event) noexcept
    {
        std::uint64_t raw[kSlotWords] = {};
        std::memcpy(raw, &event, sizeof(Event));
        std::uint64_t* slot = base_ + 1 + next_ * kSlotWords;
#pragma GCC unroll 16
        for (std::size_t w = 0; w < kSlotWords; ++w) {
            std::atomic_ref<std::uint64_t>(slot[w]).store(raw[w], std::memory_order_relaxed);
        }
        next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
        const std::uint64_t head = head_ref().load(std::memory_order_relaxed);
        head_ref().store(head + 1, std::memory_order_release);
    }

    /// The surviving window, oldest first.
    [[nodiscard]] std::vector<Event> snapshot() const
    {
        const std::uint64_t head = head_ref().load(std::memory_order_acquire);
        const std::uint64_t count = std::min<std::uint64_t>(head, capacity_);
        std::vector<Event> out;
        out.reserve(static_cast<std::size_t>(count));
        std::size_t index = static_cast<std::size_t>((head - count) % capacity_);
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t* slot = base_ + 1 + index * kSlotWords;
            index = index + 1 == capacity_ ? 0 : index + 1;
            std::uint64_t raw[kSlotWords] = {};
            for (std::size_t w = 0; w < kSlotWords; ++w) {
                raw[w] = std::atomic_ref<std::uint64_t>(slot[w]).load(std::memory_order_relaxed);
            }
            Event event;
            std::memcpy(&event, raw, sizeof(Event));
            out.push_back(event);
        }
        return out;
    }

    /// Events ever pushed.
    [[nodiscard]] std::uint64_t recorded() const noexcept
    {
        return head_ref().load(std::memory_order_acquire);
    }

    /// Events overwritten by wrap-around.
    [[nodiscard]] std::uint64_t dropped() const noexcept
    {
        const std::uint64_t head = recorded();
        return head > capacity_ ? head - capacity_ : 0;
    }

    /// Empty the ring.  Only while no thread pushes.
    void reset() noexcept
    {
        next_ = 0;
        head_ref().store(0, std::memory_order_release);
    }

private:
    [[nodiscard]] std::atomic_ref<std::uint64_t> head_ref() const noexcept
    {
        return std::atomic_ref<std::uint64_t>(*base_);
    }

    std::uint64_t* base_ = nullptr;
    std::size_t capacity_ = 1;
    std::size_t next_ = 0;  ///< the slot push writes: head % capacity, kept without a division
};

} // namespace fptc::util
