/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
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

/* ------------------------------------------------------------------ */
/* Lazy series: differential against eager scheduling of every item.  */
/* ------------------------------------------------------------------ */

/** A series over a tick vector known up front: the body reports each
 *  successor's tick from the vector, then runs `fire(i)`. */
void
scheduleSeries(EventQueue &eq, std::vector<Tick> ticks,
               std::function<void(std::size_t)> fire)
{
    const Tick first = ticks.empty() ? 0 : ticks.front();
    const std::size_t count = ticks.size();
    eq.scheduleSeries(first, count,
                      [ticks = std::move(ticks),
                       fire = std::move(fire)](std::size_t i, Tick &next) {
                          if (i + 1 < ticks.size())
                              next = ticks[i + 1];
                          fire(i);
                      });
}

TEST(EventQueueSeries, ItemsFireInOrderAtTheirTicks)
{
    EventQueue eq;
    std::vector<std::pair<Tick, std::size_t>> fired;
    scheduleSeries(eq, {5, 5, 9, 20}, [&](std::size_t i) {
        fired.emplace_back(eq.now(), i);
    });
    eq.run();
    std::vector<std::pair<Tick, std::size_t>> want{
        {5, 0}, {5, 1}, {9, 2}, {20, 3}};
    EXPECT_EQ(fired, want);
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueSeries, PendingStaysPositiveUntilTheLastItem)
{
    EventQueue eq;
    constexpr std::size_t n = 6;
    std::size_t fired = 0;
    scheduleSeries(eq, {1, 2, 2, 3, 7, 7}, [&](std::size_t i) {
        EXPECT_EQ(i, fired);
        ++fired;
    });
    EXPECT_EQ(eq.pending(), 1u) << "only the next item sits in the heap";
    while (fired < n) {
        ASSERT_GT(eq.pending(), 0u) << fired << " of " << n << " fired";
        ASSERT_TRUE(eq.runOne());
    }
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueueSeries, EmptySeriesSchedulesNothing)
{
    EventQueue eq;
    scheduleSeries(eq, {}, [](std::size_t) { FAIL(); });
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueueSeriesDeathTest, RejectsUnsortedOrPastTicks)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            scheduleSeries(eq, {4, 3}, [](std::size_t) {});
            eq.run();
        },
        "non-decreasing");
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(10, []() {});
            eq.run();
            scheduleSeries(eq, {9, 12}, [](std::size_t) {});
        },
        "series starts in the past");
}

/**
 * One seeded run, with series either lazy (scheduleSeries) or eager
 * (one schedule() per item, at the same point in program order).
 * Every fired event records (tick, audit seq, id) and spawns ordinary
 * children -- 40% at the same tick -- and now and then a new series
 * starting at the current tick; all of it is a pure function of
 * (seed, id), so two runs act identically while their pop orders agree.
 */
class SeriesRun
{
  public:
    struct Pop
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t id;
        bool operator==(const Pop &) const = default;
    };

    SeriesRun(std::uint64_t seed, bool lazy) : seed_(seed), lazy_(lazy) {}

    /** Ordinary events on a coarse grid, two series over the same
     *  range, then more ordinary events: every series item ties with
     *  ordinary events scheduled both before and after it. */
    void
    seed()
    {
        Rng rng(seed_);
        for (int i = 0; i < 60; ++i)
            event(10 * rng.uniformInt(40));
        series(ticks(rng, 0, 150));
        for (int i = 0; i < 60; ++i)
            event(10 * rng.uniformInt(40));
        series(ticks(rng, 0, 150));
        for (int i = 0; i < 60; ++i)
            event(10 * rng.uniformInt(40));
    }

    EventQueue eq;
    std::vector<Pop> pops;
    std::size_t itemsLeft = 0;  ///< series items not yet fired

  private:
    static constexpr std::uint64_t kSeriesBit = 1ull << 62;

    /** Sorted ticks from `start`, many repeated, on the event grid. */
    static std::vector<Tick>
    ticks(Rng &rng, Tick start, std::size_t n)
    {
        std::vector<Tick> out;
        Tick t = start;
        for (std::size_t i = 0; i < n; ++i) {
            t += rng.bernoulli(0.4) ? 0 : 10 * (1 + rng.uniformInt(3));
            out.push_back(t);
        }
        return out;
    }

    void
    event(Tick when)
    {
        std::uint64_t id = nextEvent_++;
        eq.schedule(when, [this, id]() { fire(id); });
    }

    void
    series(std::vector<Tick> at)
    {
        std::uint64_t base = kSeriesBit | (nextSeries_++ << 32);
        itemsLeft += at.size();
        if (lazy_) {
            scheduleSeries(eq, std::move(at), [this, base](std::size_t i) {
                --itemsLeft;
                fire(base | i);
            });
            return;
        }
        for (std::size_t i = 0; i < at.size(); ++i) {
            eq.schedule(at[i], [this, base, i]() {
                --itemsLeft;
                fire(base | i);
            });
        }
    }

    void
    fire(std::uint64_t id)
    {
        pops.push_back({eq.now(), eq.auditLastSeq(), id});
        Rng rng(seed_ * 0x9E3779B97F4A7C15ull + id);
        std::uint64_t kids = rng.uniformInt(3);
        for (std::uint64_t k = 0; k < kids && nextEvent_ < 4000; ++k) {
            Tick delay = rng.bernoulli(0.4) ? 0 : 10 * rng.uniformInt(4);
            event(eq.now() + delay);
        }
        if (nextSeries_ < 5 && rng.bernoulli(0.01))
            series(ticks(rng, eq.now(), 40));
    }

    std::uint64_t seed_;
    bool lazy_;
    std::uint64_t nextEvent_ = 0;
    std::uint64_t nextSeries_ = 0;
};

/** Run one seed lazily and eagerly; `stepped` drives both with the
 *  same runUntil limits (many inside a series) instead of run(). */
void
expectSeriesMatchesEager(std::uint64_t seed, bool stepped)
{
    SeriesRun lazy(seed, true);
    SeriesRun eager(seed, false);
    lazy.seed();
    eager.seed();
    ASSERT_LT(lazy.eq.pending(), eager.eq.pending())
        << "series items must not sit in the heap ahead of time";
    if (!stepped) {
        lazy.eq.run();
        eager.eq.run();
    } else {
        Rng rng(seed ^ 0x5E41E5);
        while (!eager.eq.empty()) {
            Tick limit = eager.eq.now() + rng.uniformInt(25);
            lazy.eq.runUntil(limit);
            eager.eq.runUntil(limit);
            ASSERT_EQ(lazy.pops, eager.pops) << "seed " << seed;
            ASSERT_EQ(lazy.eq.now(), eager.eq.now()) << "seed " << seed;
            ASSERT_EQ(lazy.itemsLeft, eager.itemsLeft) << "seed " << seed;
            // pending() > 0 exactly when eager scheduling has work left
            // (MetricSampler relies on it to stop re-arming).
            ASSERT_EQ(lazy.eq.pending() > 0, eager.eq.pending() > 0)
                << "seed " << seed;
            if (lazy.itemsLeft > 0) {
                ASSERT_GT(lazy.eq.pending(), 0u) << "seed " << seed;
            }
        }
    }
    EXPECT_TRUE(lazy.eq.empty());
    EXPECT_EQ(lazy.itemsLeft, 0u);
    EXPECT_EQ(lazy.pops, eager.pops) << "seed " << seed;
    EXPECT_EQ(lazy.eq.executed(), eager.eq.executed());
    EXPECT_GT(lazy.pops.size(), 1000u) << "schedule too small to test";
}

TEST(EventQueueSeries, RunMatchesEagerScheduling)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        expectSeriesMatchesEager(seed, false);
}

TEST(EventQueueSeries, RunUntilInsideSeriesMatchesEagerScheduling)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        expectSeriesMatchesEager(seed, true);
}

TEST(EventQueueSeries, AuditedPopTraceMatchesEagerWhenAndSeq)
{
    // Under the audit each pop records its real (when, seq) key, so
    // the traces compare the reserved sequence numbers themselves.
    ScopedAudit audit;
    for (std::uint64_t seed = 21; seed <= 30; ++seed) {
        expectSeriesMatchesEager(seed, false);
        expectSeriesMatchesEager(seed, true);
    }
    SeriesRun probe(21, true);
    probe.seed();
    probe.eq.run();
    ASSERT_GT(probe.pops.size(), 2u);
    EXPECT_NE(probe.pops[1].seq, probe.pops[2].seq)
        << "the audit must expose real sequence numbers";
}

}  // namespace
}  // namespace recssd
