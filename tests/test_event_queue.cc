/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <queue>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/random.h"

namespace recssd
{
namespace
{

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleAfter(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 0u);  // empty queue: time does not jump
    eq.schedule(100, []() {});
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "schedule in the past");
}

TEST(EventQueue, PendingCountsQueuedEvents)
{
    EventQueue eq;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t, []() {});
    EXPECT_EQ(eq.pending(), 10u);
    eq.runOne();
    EXPECT_EQ(eq.pending(), 9u);
}

/* ------------------------------------------------------------------ */
/* Differential check of the kernel against a std::priority_queue     */
/* model of the same (when, seq) order.                               */
/* ------------------------------------------------------------------ */

/**
 * Seeded random schedule. Firing event `id` records it and spawns up
 * to two children; their count and delays are a pure function of
 * (seed, id), so two queues take identical actions for as long as
 * their pop orders agree. 40% of delays are zero: same-tick bursts
 * scheduled re-entrantly from inside a callback.
 */
struct Workload
{
    std::uint64_t seed;
    std::uint64_t cap;  ///< events ever spawned (initial ones included)
    std::uint64_t spawned = 0;
    std::vector<std::uint64_t> order;  ///< ids in pop order

    template <typename Spawn>
    void
    fire(std::uint64_t id, Tick now, Spawn &&spawn)
    {
        order.push_back(id);
        Rng rng(seed * 0x9E3779B97F4A7C15ull + id);
        std::uint64_t kids = rng.uniformInt(3);
        for (std::uint64_t k = 0; k < kids && spawned < cap; ++k) {
            Tick delay = rng.bernoulli(0.4) ? 0 : 1 + rng.uniformInt(50);
            spawn(now + delay, spawned++);
        }
    }

    /** A burst of initial events on a coarse tick grid (many ties). */
    template <typename Spawn>
    void
    seedBurst(Tick base, std::uint64_t count, Spawn &&spawn)
    {
        Rng rng(seed);
        for (std::uint64_t i = 0; i < count && spawned < cap; ++i)
            spawn(base + 10 * rng.uniformInt(20), spawned++);
    }
};

/** The reference: std::priority_queue over (when, seq). */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, std::uint64_t id)
    {
        queue_.push(Ev{when, seq_++, id});
    }

    bool
    runOne(Workload &w)
    {
        if (queue_.empty())
            return false;
        Ev ev = queue_.top();
        queue_.pop();
        now_ = ev.when;
        w.fire(ev.id, now_,
               [this](Tick t, std::uint64_t c) { schedule(t, c); });
        return true;
    }

    void
    runUntil(Tick limit, Workload &w)
    {
        if (queue_.empty())
            return;
        while (!queue_.empty() && queue_.top().when <= limit)
            runOne(w);
        if (now_ < limit)
            now_ = limit;
    }

    Tick now() const { return now_; }
    std::size_t pending() const { return queue_.size(); }
    Tick nextWhen() const { return queue_.top().when; }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t id;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

void
scheduleReal(EventQueue &eq, Workload &w, Tick when, std::uint64_t id)
{
    eq.schedule(when, [&eq, &w, id]() {
        w.fire(id, eq.now(), [&eq, &w](Tick t, std::uint64_t c) {
            scheduleReal(eq, w, t, c);
        });
    });
}

/** Run one seeded schedule through both queues; `stepped` drives them
 *  with runUntil limits at and between ticks instead of run(). */
void
expectSamePopOrder(std::uint64_t seed, bool stepped)
{
    EventQueue eq;
    ReferenceQueue ref;
    Workload real_w{seed, 3000, 0, {}};
    Workload ref_w{seed, 3000, 0, {}};
    // Two waves: the second is scheduled after the first drained, so
    // it runs entirely on reused callback slots.
    for (Tick wave = 0; wave < 2; ++wave) {
        Tick base = eq.now();
        real_w.seedBurst(base, 200, [&](Tick t, std::uint64_t id) {
            scheduleReal(eq, real_w, t, id);
        });
        ref_w.seedBurst(base, 200, [&](Tick t, std::uint64_t id) {
            ref.schedule(t, id);
        });
        real_w.cap += 3000;
        ref_w.cap += 3000;
        if (!stepped) {
            eq.run();
            while (ref.runOne(ref_w)) {
            }
        } else {
            Rng rng(seed ^ 0x5157);
            while (ref.pending() > 0) {
                // At a pending tick, or somewhere between ticks.
                Tick limit = rng.bernoulli(0.5)
                                 ? ref.nextWhen()
                                 : ref.now() + rng.uniformInt(40);
                eq.runUntil(limit);
                ref.runUntil(limit, ref_w);
                ASSERT_EQ(real_w.order, ref_w.order) << "seed " << seed;
                ASSERT_EQ(eq.now(), ref.now()) << "seed " << seed;
                ASSERT_EQ(eq.pending(), ref.pending()) << "seed " << seed;
            }
        }
        ASSERT_TRUE(eq.empty());
        ASSERT_EQ(real_w.order, ref_w.order) << "seed " << seed;
        ASSERT_EQ(eq.now(), ref.now()) << "seed " << seed;
    }
    EXPECT_EQ(eq.executed(), real_w.order.size());
    EXPECT_GT(real_w.order.size(), 1000u) << "schedule too small to test";
}

/** Sets RECSSD_AUDIT for its lifetime (queues read it at construction). */
class ScopedAudit
{
  public:
    ScopedAudit() { ::setenv("RECSSD_AUDIT", "1", 1); }
    ~ScopedAudit() { ::unsetenv("RECSSD_AUDIT"); }
    ScopedAudit(const ScopedAudit &) = delete;
    ScopedAudit &operator=(const ScopedAudit &) = delete;
};

TEST(EventQueueDifferential, RunMatchesPriorityQueueModel)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        expectSamePopOrder(seed, false);
}

TEST(EventQueueDifferential, RunUntilMatchesPriorityQueueModel)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        expectSamePopOrder(seed, true);
}

TEST(EventQueueDifferential, AuditedRunsMatchPriorityQueueModel)
{
    // The audit arms the strictly-increasing (when, seq) pop check.
    ScopedAudit audit;
    for (std::uint64_t seed = 21; seed <= 30; ++seed) {
        expectSamePopOrder(seed, false);
        expectSamePopOrder(seed, true);
    }
}

TEST(EventQueue, PendingCallbacksAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.schedule(10, [token]() {});
        eq.schedule(20, [token]() {});
        eq.runOne();
        EXPECT_EQ(token.use_count(), 2) << "ran callback freed at once";
    }
    EXPECT_EQ(token.use_count(), 1) << "pending callback leaked";
}

}  // namespace
}  // namespace recssd
