/**
 * @file
 * Move-only callables with inline storage, and a pool of per-operation
 * records.
 *
 * The event kernel and the timing chains above it (flash phases, FTL
 * command handling, PCIe transfers, the NDP page pipeline) hand one
 * continuation per simulated event down the stack. `std::function`
 * would heap-allocate every capture bigger than two pointers and
 * demands copyable captures. `InlineFunction` stores captures up to
 * `kInlineCallbackBytes` inside the object itself; bigger ones spill
 * into a per-thread pool of size-classed blocks that is reused, so a
 * warmed simulation makes no heap allocation per event either way.
 * Copying is not supported: every continuation has exactly one owner.
 *
 * `RecordPool` holds the per-operation state of a multi-phase chain
 * (a page read's command, tR and transfer phases, say). The chain's
 * continuations capture only `this` and a record index, so they always
 * fit inline, and the user's own continuation is moved exactly once
 * into the record and once out of it.
 */

#ifndef RECSSD_COMMON_INLINE_FUNCTION_H
#define RECSSD_COMMON_INLINE_FUNCTION_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace recssd
{

/** Capture bytes an InlineFunction holds without spilling (the whole
 *  object is then one 64-byte cache line). */
inline constexpr std::size_t kInlineCallbackBytes = 56;

namespace detail
{

/** @{ Spill pool: size-classed free lists, one set per thread. Blocks
 *  are returned to their class list, never to the system, until the
 *  thread exits, so a warmed run allocates nothing here. */
void *spillAlloc(std::size_t bytes);
void spillFree(void *block, std::size_t bytes) noexcept;
/** @} */

template <typename T>
struct IsStdFunction : std::false_type
{
};
template <typename S>
struct IsStdFunction<std::function<S>> : std::true_type
{
};

/** Targets whose "empty" state must map to an empty InlineFunction. */
template <typename D>
inline constexpr bool nullableTarget =
    IsStdFunction<D>::value || std::is_pointer_v<D>;

}  // namespace detail

template <typename Sig>
class InlineFunction;

/**
 * A move-only `void(Args...)` callable. Captures of at most
 * `kInlineCallbackBytes` bytes (and at most max_align_t alignment,
 * nothrow-movable) live inline; larger ones live in a pooled spill
 * block that the function owns and frees exactly once. A moved-from
 * function is empty.
 */
template <typename... Args>
class InlineFunction<void(Args...)>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>>
        requires(!std::is_same_v<D, InlineFunction> &&
                 std::is_invocable_v<D &, Args...>)
    InlineFunction(F &&f)
    {
        if constexpr (detail::nullableTarget<D>) {
            if (!f)
                return;  // an empty std::function stays empty
        }
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            void *block = detail::spillAlloc(sizeof(D));
            D *target;
            try {
                target = ::new (block) D(std::forward<F>(f));
            } catch (...) {
                detail::spillFree(block, sizeof(D));
                throw;
            }
            std::memcpy(buf_, &target, sizeof target);
            ops_ = &kSpilledOps<D>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    template <typename F, typename D = std::decay_t<F>>
        requires(!std::is_same_v<D, InlineFunction> &&
                 std::is_invocable_v<D &, Args...>)
    InlineFunction &
    operator=(F &&f)
    {
        return *this = InlineFunction(std::forward<F>(f));
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Invoke the target; the function must not be empty. Like
     *  std::function, a const function may call a mutable target. */
    void
    operator()(Args... args) const
    {
        ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    friend bool
    operator==(const InlineFunction &f, std::nullptr_t) noexcept
    {
        return !f;
    }

    /** Destroy the target (returning a spill block to its pool). */
    void
    reset() noexcept
    {
        if (ops_ == nullptr)
            return;
        if (ops_->destroy)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

    /** True when the target lives in a spill block, not inline. */
    bool spilled() const noexcept { return ops_ != nullptr && ops_->spilled; }

  private:
    /** True when a target of type D is stored inline. */
    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineCallbackBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    struct Ops
    {
        void (*invoke)(void *self, Args &&...args);
        /** Move the target from `src` to `dst` and end it at `src`. */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null for trivially destructible inline targets. */
        void (*destroy)(void *self) noexcept;
        bool spilled;
    };

    template <typename D>
    static D *
    spilledTarget(void *self) noexcept
    {
        D *target;
        std::memcpy(&target, self, sizeof target);
        return target;
    }

    template <typename D>
    static constexpr Ops kInlineOps = {
        [](void *self, Args &&...args) {
            (*static_cast<D *>(self))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            if constexpr (std::is_trivially_copyable_v<D> &&
                          !std::is_empty_v<D>) {
                std::memcpy(dst, src, sizeof(D));
            } else {
                D *from = static_cast<D *>(src);
                ::new (dst) D(std::move(*from));
                from->~D();
            }
        },
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](void *self) noexcept { static_cast<D *>(self)->~D(); },
        false,
    };

    /** A spilled target is a pointer in `buf_`: relocation copies the
     *  pointer, destruction ends the target and frees its block. */
    template <typename D>
    static constexpr Ops kSpilledOps = {
        [](void *self, Args &&...args) {
            (*spilledTarget<D>(self))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            std::memcpy(dst, src, sizeof(D *));
        },
        [](void *self) noexcept {
            D *target = spilledTarget<D>(self);
            target->~D();
            detail::spillFree(target, sizeof(D));
        },
        true,
    };

    void
    take(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ == nullptr)
            return;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineCallbackBytes];
    const Ops *ops_ = nullptr;
};

/**
 * Pool of per-operation records addressed by a 32-bit index. Records
 * live in fixed-size chunks, so a live record never moves: a
 * reference stays valid while continuations add records. Chunks are
 * added on demand (the pool grows to the in-flight high-water mark)
 * and freed with the pool. Freed indices are reused LIFO.
 */
template <typename T>
class RecordPool
{
  public:
    /** Store a record; @return its index. */
    template <typename U>
    std::uint32_t
    put(U &&value)
    {
        std::uint32_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
        } else {
            index = size_++;
            if ((index & kChunkMask) == 0)
                chunks_.push_back(std::make_unique<T[]>(kChunkSize));
        }
        (*this)[index] = std::forward<U>(value);
        return index;
    }

    T &operator[](std::uint32_t index)
    {
        return chunks_[index >> kChunkBits][index & kChunkMask];
    }

    /** Move a record out and free its index. */
    T
    take(std::uint32_t index)
    {
        T value = std::move((*this)[index]);
        release(index);
        return value;
    }

    /** Reset a record to its default state and free its index. */
    void
    release(std::uint32_t index)
    {
        (*this)[index] = T{};
        free_.push_back(index);
    }

  private:
    static constexpr unsigned kChunkBits = 6;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
};

}  // namespace recssd

#endif  // RECSSD_COMMON_INLINE_FUNCTION_H
