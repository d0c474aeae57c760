/**
 * @file
 * Unit tests for the move-only callback type and the per-operation
 * record pool (src/common/inline_function.h).
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/common/event_queue.h"
#include "src/common/inline_function.h"

namespace recssd
{
namespace
{

using Callback = EventQueue::Callback;

/** Counts destructions of live (not moved-from) copies. */
class Token
{
  public:
    explicit Token(int *destroyed) : destroyed_(destroyed) {}
    Token(Token &&other) noexcept
        : destroyed_(std::exchange(other.destroyed_, nullptr))
    {
    }
    Token &operator=(Token &&) = delete;
    ~Token()
    {
        if (destroyed_)
            ++*destroyed_;
    }

  private:
    int *destroyed_;
};

/** A callable of exactly `Bytes` bytes that reports where it lives. */
template <std::size_t Bytes>
struct Sized
{
    std::array<unsigned char, Bytes - sizeof(const void **)> pad{};
    const void **where;

    void operator()() const { *where = this; }
};

TEST(InlineFunction, EmptyStates)
{
    Callback by_default;
    Callback from_null = nullptr;
    Callback from_empty_function = std::function<void()>();
    void (*null_fn)() = nullptr;
    Callback from_null_pointer = null_fn;
    for (const Callback *cb :
         {&by_default, &from_null, &from_empty_function, &from_null_pointer}) {
        EXPECT_FALSE(*cb);
        EXPECT_TRUE(*cb == nullptr);
    }
    Callback set = []() {};
    EXPECT_TRUE(set);
    set = nullptr;
    EXPECT_FALSE(set);
}

TEST(InlineFunction, PassesArguments)
{
    int seen = 0;
    InlineFunction<void(int, const std::string &)> f =
        [base = 10, &seen](int x, const std::string &s) {
            seen = base + x + static_cast<int>(s.size());
        };
    f(5, "abc");
    EXPECT_EQ(seen, 18);
}

TEST(InlineFunction, HoldsMoveOnlyCaptures)
{
    int seen = 0;
    Callback f = [p = std::make_unique<int>(7), &seen]() { seen = *p; };
    EXPECT_FALSE(f.spilled());
    Callback g = std::move(f);
    g();
    EXPECT_EQ(seen, 7);
}

TEST(InlineFunction, MutableTargetsKeepStateAcrossCalls)
{
    int seen = 0;
    Callback counter = [n = 0, &seen]() mutable { seen = ++n; };
    counter();
    counter();
    EXPECT_EQ(seen, 2);
}

TEST(InlineFunction, CaptureOfExactlyInlineCapacityStaysInline)
{
    const void *where = nullptr;
    Callback fits = Sized<kInlineCallbackBytes>{{}, &where};
    EXPECT_FALSE(fits.spilled());
    fits();
    EXPECT_EQ(where, static_cast<const void *>(&fits))
        << "an inline target lives inside the function object";

    Callback spills = Sized<kInlineCallbackBytes + 8>{{}, &where};
    EXPECT_TRUE(spills.spilled());
    spills();
    EXPECT_NE(where, static_cast<const void *>(&spills));
}

TEST(InlineFunction, InlineCaptureIsDestroyedExactlyOnce)
{
    int destroyed = 0;
    {
        Callback f = [t = Token(&destroyed)]() {};
        EXPECT_FALSE(f.spilled());
        Callback g = std::move(f);
        Callback h;
        h = std::move(g);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, SpilledCaptureIsDestroyedExactlyOnce)
{
    int destroyed = 0;
    {
        std::array<char, 3 * kInlineCallbackBytes> big{};
        Callback f = [t = Token(&destroyed), big]() { (void)big; };
        EXPECT_TRUE(f.spilled());
        Callback g = std::move(f);  // moves the block pointer only
        Callback h;
        h = std::move(g);
        EXPECT_TRUE(h.spilled());
        EXPECT_EQ(destroyed, 0);
        h.reset();
        EXPECT_EQ(destroyed, 1);
        h.reset();  // already empty: no second destruction
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, SpillBlocksAreReused)
{
    const void *first = nullptr;
    const void *second = nullptr;
    {
        Callback f = Sized<200>{{}, &first};
        f();
    }
    {
        Callback g = Sized<200>{{}, &second};
        g();
    }
    EXPECT_EQ(first, second) << "a freed spill block serves the next spill";
}

TEST(InlineFunction, MovedFromIsEmpty)
{
    int calls = 0;
    Callback f = [&calls]() { ++calls; };
    Callback g = std::move(f);
    EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): tests the state
    EXPECT_TRUE(g);
    g();
    EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, SelfMoveAssignmentKeepsTheTarget)
{
    int calls = 0;
    Callback f = [&calls]() { ++calls; };
    Callback &alias = f;
    f = std::move(alias);
    ASSERT_TRUE(f);
    f();
    EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, WrapsCopyableStdFunction)
{
    int calls = 0;
    std::function<void()> fn = [&calls]() { ++calls; };
    Callback a = fn;  // copies; fn stays usable
    Callback b = fn;
    a();
    b();
    fn();
    EXPECT_EQ(calls, 3);
}

TEST(RecordPool, ReusesFreedIndicesLifo)
{
    RecordPool<int> pool;
    std::uint32_t a = pool.put(1);
    std::uint32_t b = pool.put(2);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.take(a), 1);
    pool.release(b);
    EXPECT_EQ(pool.put(3), b);
    EXPECT_EQ(pool.put(4), a);
}

TEST(RecordPool, RecordsDoNotMoveAsThePoolGrows)
{
    RecordPool<int> pool;
    std::uint32_t first = pool.put(42);
    int *where = &pool[first];
    for (int i = 0; i < 1000; ++i)
        pool.put(i);
    EXPECT_EQ(&pool[first], where);
    EXPECT_EQ(*where, 42);
}

TEST(RecordPool, TakeMovesTheRecordOut)
{
    RecordPool<Callback> pool;
    int calls = 0;
    std::uint32_t op = pool.put(Callback([&calls]() { ++calls; }));
    Callback cb = pool.take(op);
    cb();
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(pool[op]) << "a freed record is reset";
}

}  // namespace
}  // namespace recssd
