/**
 * @file
 * Index-addressed record pool for in-flight state.
 *
 * The IO path keeps each in-flight IO, packet, interrupt and device
 * command in a record owned by the layer that creates it; the events
 * and callbacks that continue its work capture the owner's pointer
 * plus the record's index, which fits every inline closure buffer
 * (DESIGN.md §9, "Allocation budget"). Records are recycled LIFO; the
 * pool grows on demand and never shrinks, so in steady state taking
 * and returning a record costs no heap traffic.
 *
 * Touching a free record is a program bug; every access checks the
 * record is live (in assert builds). acquire() may move every record,
 * so no reference into the pool survives it.
 */

#ifndef AFA_SIM_POOL_HH
#define AFA_SIM_POOL_HH

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace afa::sim {

/** Pool of default-constructible records addressed by index. */
template <typename T>
class Pool
{
  public:
    /** Take a free record (in its default state); returns its index. */
    std::uint32_t
    acquire()
    {
        std::uint32_t idx;
        if (!freeList.empty()) {
            idx = freeList.back();
            freeList.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back();
        }
        assert(!slots[idx].live && "acquired a live record");
        slots[idx].live = true;
        return idx;
    }

    /** Reset record @p idx to its default state and free it. */
    void
    release(std::uint32_t idx)
    {
        assert(live(idx) && "released a free record");
        slots[idx].value = T{};
        slots[idx].live = false;
        freeList.push_back(idx);
    }

    /** Move record @p idx out and free it: the caller may then run a
     *  callback that takes records itself. */
    T
    take(std::uint32_t idx)
    {
        assert(live(idx) && "took a free record");
        T value = std::move(slots[idx].value);
        release(idx);
        return value;
    }

    T &
    operator[](std::uint32_t idx)
    {
        assert(live(idx) && "access to a free record");
        return slots[idx].value;
    }

    /** True when @p idx names a record in use. */
    bool
    live(std::uint32_t idx) const
    {
        return idx < slots.size() && slots[idx].live;
    }

    /** Records ever created (in use or free): the high-water mark. */
    std::size_t capacity() const { return slots.size(); }

  private:
    struct Slot
    {
        T value{};
        bool live = false;
    };

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeList;
};

} // namespace afa::sim

#endif // AFA_SIM_POOL_HH
