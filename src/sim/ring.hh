/**
 * @file
 * A double-ended FIFO over one power-of-two circular buffer.
 *
 * std::deque allocates a block whenever its tail crosses a block
 * boundary and frees one whenever its head does, so a short queue
 * that is pushed and popped forever costs a heap allocation every few
 * elements. A Ring reuses its buffer: it allocates only when it grows
 * past its largest size so far.
 */

#ifndef AFA_SIM_RING_HH
#define AFA_SIM_RING_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace afa::sim {

/** FIFO with back removal; elements must be default-constructible. */
template <typename T>
class Ring
{
  public:
    bool empty() const { return count == 0; }

    T &
    front()
    {
        assert(count && "front() of an empty ring");
        return buf[head];
    }

    T &
    back()
    {
        assert(count && "back() of an empty ring");
        return buf[(head + count - 1) & (buf.size() - 1)];
    }

    void
    push_back(T value)
    {
        if (count == buf.size())
            grow();
        buf[(head + count) & (buf.size() - 1)] = std::move(value);
        ++count;
    }

    void
    pop_front()
    {
        assert(count && "pop_front() of an empty ring");
        buf[head] = T{};
        head = (head + 1) & (buf.size() - 1);
        --count;
    }

    void
    pop_back()
    {
        assert(count && "pop_back() of an empty ring");
        --count;
        buf[(head + count) & (buf.size() - 1)] = T{};
    }

  private:
    void
    grow()
    {
        std::vector<T> next(std::max<std::size_t>(8, buf.size() * 2));
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move(buf[(head + i) & (buf.size() - 1)]);
        buf.swap(next);
        head = 0;
    }

    std::vector<T> buf; ///< capacity: zero or a power of two
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace afa::sim

#endif // AFA_SIM_RING_HH
