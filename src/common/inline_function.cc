#include "src/common/inline_function.h"

#include <array>

namespace recssd
{

namespace detail
{

namespace
{

/** Smallest class holds 64 bytes; each next class doubles. Spills
 *  larger than the biggest class go straight to operator new. */
constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kNumClasses = 5;  // 64 .. 1024 bytes

/** A free block's first word links to the next free block. */
struct FreeBlock
{
    FreeBlock *next;
};

/** Set once this thread's pool is destroyed: a function that outlives
 *  it (a static holding a spilled target) then bypasses the pool. */
thread_local bool poolGone = false;

/** Per-thread free lists; the blocks go back to the system when the
 *  thread exits. */
struct SpillPool
{
    std::array<FreeBlock *, kNumClasses> heads{};

    ~SpillPool()
    {
        poolGone = true;
        for (FreeBlock *&head : heads) {
            while (head != nullptr) {
                FreeBlock *next = head->next;
                ::operator delete(head);
                head = next;
            }
        }
    }
};

thread_local SpillPool pool;

/** Size class of a spill, or kNumClasses when it has none. */
std::size_t
classOf(std::size_t bytes)
{
    std::size_t cls = 0;
    std::size_t cap = kMinClassBytes;
    while (cls < kNumClasses && bytes > cap) {
        ++cls;
        cap *= 2;
    }
    return cls;
}

}  // namespace

void *
spillAlloc(std::size_t bytes)
{
    std::size_t cls = classOf(bytes);
    if (cls == kNumClasses || poolGone)
        return ::operator new(bytes);
    if (FreeBlock *block = pool.heads[cls]) {
        pool.heads[cls] = block->next;
        return block;
    }
    return ::operator new(kMinClassBytes << cls);
}

void
spillFree(void *block, std::size_t bytes) noexcept
{
    std::size_t cls = classOf(bytes);
    if (cls == kNumClasses || poolGone) {
        ::operator delete(block);
        return;
    }
    auto *free_block = static_cast<FreeBlock *>(block);
    free_block->next = pool.heads[cls];
    pool.heads[cls] = free_block;
}

}  // namespace detail

}  // namespace recssd
