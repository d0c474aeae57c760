/**
 * @file
 * Fully associative LRU cache template.
 *
 * Backs the host-side software embedding cache (§4.2: "for host DRAM
 * caching, it is entirely feasible to use a large fully associative
 * LRU software cache"). O(1) get/put over flat arrays sized once at
 * construction, so a warmed cache never allocates:
 *
 *  - `capacity` entry slots, each a key, a value, and prev/next slot
 *    indices that thread the recency list (head = MRU, tail = LRU);
 *  - an open-addressing index of slot numbers, at least twice the
 *    capacity and a power of two, probed linearly from a key's home
 *    bucket. Removal shifts the rest of the probe run back, so the
 *    index needs no tombstones and never degrades.
 *
 * A new key takes a never-used slot until the cache is full, then the
 * LRU entry's slot. The slot's value is left as the previous occupant
 * had it, so a caller can refill it in place (see `insert`).
 */

#ifndef RECSSD_CACHE_LRU_CACHE_H
#define RECSSD_CACHE_LRU_CACHE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stats.h"

namespace recssd
{

template <typename Key, typename Value>
class LruCache
{
  public:
    explicit LruCache(std::size_t capacity)
        : capacity_(capacity),
          indexBits_(std::bit_width(std::max<std::size_t>(capacity, 1) * 2 - 1)),
          index_(std::size_t{1} << indexBits_, kNone), keys_(capacity),
          values_(capacity), prev_(capacity), next_(capacity)
    {
        recssd_assert(capacity > 0, "LRU cache needs capacity");
        recssd_assert(capacity < kNone, "LRU cache capacity too large");
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }

    /** Fetch and promote to MRU. @return nullptr on miss. */
    Value *
    get(const Key &key)
    {
        std::uint32_t s = index_[find(key)];
        if (s == kNone) {
            misses_.inc();
            return nullptr;
        }
        promote(s);
        hits_.inc();
        return &values_[s];
    }

    /** Probe without promoting or counting. */
    bool contains(const Key &key) const { return index_[find(key)] != kNone; }

    /** Probe without promoting or counting. @return nullptr on miss. */
    Value *
    peek(const Key &key)
    {
        std::uint32_t s = index_[find(key)];
        return s == kNone ? nullptr : &values_[s];
    }

    /** Insert/overwrite; evicts the LRU entry at capacity. */
    void put(const Key &key, Value value) { insert(key) = std::move(value); }

    /**
     * Make `key` the MRU entry, evicting the LRU entry if the key is
     * new and the cache is full. @return the key's value slot: its
     * current value if the key was cached, otherwise whatever the
     * slot last held (a default value for a never-used slot), for the
     * caller to overwrite.
     */
    Value &
    insert(const Key &key)
    {
        std::size_t b = find(key);
        std::uint32_t s = index_[b];
        if (s != kNone) {
            promote(s);
            return values_[s];
        }
        if (size_ < capacity_) {
            s = static_cast<std::uint32_t>(size_++);
        } else {
            s = tail_;
            unlink(s);
            erase(find(keys_[s]));
            evictions_.inc();
            // The removal may have shifted the probe run `b` sits in.
            b = find(key);
        }
        keys_[s] = key;
        index_[b] = s;
        pushFront(s);
        return values_[s];
    }

    /** Index bucket a key probes first (tests use it to build keys
     *  that collide). */
    std::size_t
    homeOf(const Key &key) const
    {
        // Fibonacci hashing: take the top bits of the multiplied hash,
        // so keys that differ only in high bits still spread.
        std::uint64_t h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
        return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ull) >>
                                        (64 - indexBits_));
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
        evictions_.reset();
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::size_t mask() const { return index_.size() - 1; }

    /** Bucket holding `key`, or the empty bucket ending its probe run. */
    std::size_t
    find(const Key &key) const
    {
        std::size_t b = homeOf(key);
        while (index_[b] != kNone && !(keys_[index_[b]] == key))
            b = (b + 1) & mask();
        return b;
    }

    /** Empty bucket `b`, shifting later members of its probe run back
     *  so every key stays reachable from its home bucket. */
    void
    erase(std::size_t b)
    {
        std::size_t next = b;
        for (;;) {
            next = (next + 1) & mask();
            std::uint32_t s = index_[next];
            if (s == kNone)
                break;
            // The entry at `next` may move to `b` unless its home lies
            // cyclically in (b, next]: then `b` is before its home.
            std::size_t home = homeOf(keys_[s]);
            if (((next - home) & mask()) >= ((next - b) & mask())) {
                index_[b] = s;
                b = next;
            }
        }
        index_[b] = kNone;
    }

    void
    unlink(std::uint32_t s)
    {
        if (prev_[s] != kNone)
            next_[prev_[s]] = next_[s];
        else
            head_ = next_[s];
        if (next_[s] != kNone)
            prev_[next_[s]] = prev_[s];
        else
            tail_ = prev_[s];
    }

    void
    pushFront(std::uint32_t s)
    {
        prev_[s] = kNone;
        next_[s] = head_;
        if (head_ != kNone)
            prev_[head_] = s;
        else
            tail_ = s;
        head_ = s;
    }

    void
    promote(std::uint32_t s)
    {
        if (s == head_)
            return;
        unlink(s);
        pushFront(s);
    }

    std::size_t capacity_;
    unsigned indexBits_;
    std::vector<std::uint32_t> index_;
    std::vector<Key> keys_;
    std::vector<Value> values_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::size_t size_ = 0;
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
    Counter hits_;
    Counter misses_;
    Counter evictions_;
};

}  // namespace recssd

#endif  // RECSSD_CACHE_LRU_CACHE_H
