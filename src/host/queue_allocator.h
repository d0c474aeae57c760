/**
 * @file
 * Allocator of driver I/O queues.
 *
 * The UNVMe sync API carries one command per queue at a time; SLS
 * workers are matched to queues (§4.2). Backends acquire a queue per
 * operation (or per command) and park in FIFO order when all queues
 * are busy.
 *
 * Two grant policies: `Fifo` recycles the longest-idle queue (the
 * free list naturally rotates), `LeastUsed` grants the free queue
 * with the fewest lifetime grants, keeping the round-robin balanced
 * even when operations release queues out of order — the serving
 * path's multi-queue dispatch. Per-queue grant counts are kept either
 * way so experiments can report the spread.
 */

#ifndef RECSSD_HOST_QUEUE_ALLOCATOR_H
#define RECSSD_HOST_QUEUE_ALLOCATOR_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/logging.h"

namespace recssd
{

class QueueAllocator
{
  public:
    using Grant = InlineFunction<void(unsigned queue)>;

    enum class Policy
    {
        Fifo,       ///< longest-idle queue first (seed behaviour)
        LeastUsed,  ///< fewest lifetime grants first (balanced RR)
    };

    explicit QueueAllocator(unsigned queues, Policy policy = Policy::Fifo)
        : policy_(policy)
    {
        recssd_assert(queues > 0, "need at least one I/O queue");
        for (unsigned q = 0; q < queues; ++q)
            free_.push_back(q);
        total_ = queues;
        grants_.assign(queues, 0);
    }

    unsigned total() const { return total_; }
    unsigned available() const { return static_cast<unsigned>(free_.size()); }
    Policy policy() const { return policy_; }

    /** Lifetime grants handed out on one queue. */
    std::uint64_t grantsOn(unsigned queue) const
    {
        return grants_.at(queue);
    }

    /** Callers parked waiting for a queue right now. */
    std::size_t waiters() const { return waiting_.size(); }

    /** Grant a queue now, or when one frees (FIFO wait order). */
    void
    acquire(Grant grant)
    {
        if (!free_.empty()) {
            auto it = free_.begin();
            if (policy_ == Policy::LeastUsed) {
                it = std::min_element(free_.begin(), free_.end(),
                                      [this](unsigned a, unsigned b) {
                                          return grants_[a] < grants_[b];
                                      });
            }
            unsigned q = *it;
            free_.erase(it);
            ++grants_[q];
            grant(q);
        } else {
            waiting_.push_back(std::move(grant));
        }
    }

    /** Return a queue; wakes the longest waiter if any. */
    void
    release(unsigned queue)
    {
        recssd_assert(queue < total_, "bogus queue id");
        if (!waiting_.empty()) {
            Grant grant = std::move(waiting_.front());
            waiting_.pop_front();
            ++grants_[queue];
            grant(queue);
        } else {
            free_.push_back(queue);
        }
    }

  private:
    Policy policy_;
    unsigned total_;
    std::deque<unsigned> free_;
    std::deque<Grant> waiting_;
    std::vector<std::uint64_t> grants_;
};

}  // namespace recssd

#endif  // RECSSD_HOST_QUEUE_ALLOCATOR_H
