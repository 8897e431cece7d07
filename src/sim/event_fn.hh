/**
 * @file
 * The event closure type: a small-buffer-optimized, move-only
 * replacement for std::function<void()> on the simulator hot path.
 *
 * Every simulated I/O schedules dozens of events. EventFn stores
 * callables up to kInlineSize bytes inline; trivially copyable
 * captures (pointers and integers) move by memcpy and destroy for
 * free. Larger or over-aligned callables fall back to a heap slot, so
 * any `void()` callable is still accepted -- which is why the IO path
 * keeps to one capture rule (DESIGN.md §9, "Allocation budget"): a
 * per-IO closure captures an object pointer plus record indices, with
 * the IO's state parked in a pooled record (sim/pool.hh), and never
 * captures another callback. Such a closure always fits inline; the
 * heap fallback is left to setup, fault and GC paths.
 *
 * Invoking an empty EventFn is a precondition violation (checked in
 * debug builds); the EventQueue rejects null callbacks at schedule
 * time, so an EventFn that fires is never empty.
 */

#ifndef AFA_SIM_EVENT_FN_HH
#define AFA_SIM_EVENT_FN_HH

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace afa::sim {

/** Move-only type-erased `void()` callable with inline storage. */
class EventFn
{
  public:
    /** Inline capture budget: an object pointer plus up to three
     *  words of indices or ticks, while keeping the EventQueue's
     *  per-event record within one cache line. */
    static constexpr std::size_t kInlineSize = 32;

    EventFn() noexcept = default;
    EventFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventFn> &&
                  std::is_invocable_r_v<void, D &>>>
    EventFn(F &&f)
    {
        init(std::forward<F>(f));
    }

    /**
     * Replace the stored callable, constructing @p f in place -- one
     * construction instead of the construct + move of `fn = F{...}`.
     * Accepts an EventFn as well (plain move assignment).
     */
    template <typename F, typename D = std::decay_t<F>>
    void
    assign(F &&f)
    {
        if constexpr (std::is_same_v<D, EventFn>) {
            *this = std::forward<F>(f);
        } else {
            reset();
            init(std::forward<F>(f));
        }
    }

    EventFn(EventFn &&other) noexcept { moveFrom(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const noexcept { return ops != nullptr; }

    friend bool
    operator==(const EventFn &fn, std::nullptr_t) noexcept
    {
        return fn.ops == nullptr;
    }

    /** Invoke the stored callable (must not be empty). */
    void
    operator()()
    {
        assert(ops && "invoking an empty EventFn");
        ops->invoke(storage);
    }

  private:
    template <typename F, typename D = std::decay_t<F>>
    void
    init(F &&f)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(storage)) D(std::forward<F>(f));
            ops = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(storage) = new D(std::forward<F>(f));
            ops = &heapOps<D>;
        }
    }

    struct OpsTable
    {
        void (*invoke)(void *self);
        /** Move-construct dst from src, then destroy src; nullptr
         *  means "relocate by memcpy of the whole buffer". */
        void (*relocate)(void *dst, void *src);
        /** Destroy the stored callable; nullptr means trivial. */
        void (*destroy)(void *self);
    };

    /** Inline requires fitting storage, pointer alignment, and a
     *  noexcept move (relocation must not fail mid-flight). */
    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= kInlineSize && alignof(D) <= alignof(void *) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    static D *
    inlinePtr(void *s) noexcept
    {
        return std::launder(reinterpret_cast<D *>(s));
    }

    template <typename D>
    static void
    inlineInvoke(void *s)
    {
        (*inlinePtr<D>(s))();
    }

    template <typename D>
    static void
    inlineRelocate(void *dst, void *src)
    {
        D *p = inlinePtr<D>(src);
        ::new (dst) D(std::move(*p));
        p->~D();
    }

    template <typename D>
    static void
    inlineDestroy(void *s)
    {
        inlinePtr<D>(s)->~D();
    }

    template <typename D>
    static constexpr OpsTable
    makeInlineOps()
    {
        // Trivially copyable captures (the common case: pointers and
        // integers) relocate by memcpy and need no destructor.
        if constexpr (std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>) {
            return {&inlineInvoke<D>, nullptr, nullptr};
        } else {
            return {&inlineInvoke<D>, &inlineRelocate<D>,
                    &inlineDestroy<D>};
        }
    }

    template <typename D>
    static constexpr OpsTable inlineOps = makeInlineOps<D>();

    template <typename D>
    static void
    heapInvoke(void *s)
    {
        (**reinterpret_cast<D **>(s))();
    }

    template <typename D>
    static void
    heapDestroy(void *s)
    {
        delete *reinterpret_cast<D **>(s);
    }

    // Heap slots relocate by memcpy too (only the pointer is live;
    // copying the rest of the buffer is harmless).
    template <typename D>
    static constexpr OpsTable heapOps = {
        &heapInvoke<D>, nullptr, &heapDestroy<D>};

    void
    moveFrom(EventFn &other) noexcept
    {
        ops = other.ops;
        if (ops) {
            if (ops->relocate)
                ops->relocate(storage, other.storage);
            else
                std::memcpy(storage, other.storage, kInlineSize);
            other.ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

    const OpsTable *ops = nullptr;
    alignas(void *) unsigned char storage[kInlineSize];
};

} // namespace afa::sim

#endif // AFA_SIM_EVENT_FN_HH
