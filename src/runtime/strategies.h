/**
 * @file
 * Ctx-generic parallelization strategies (Table I of the paper).
 *
 * These helpers express the three CRONO parallelization idioms in
 * terms of the ExecutionContext concept so that the same kernel code
 * is accounted correctly on both the native and the simulated paths:
 *
 *  - vertex capture: threads compete for work items through an atomic
 *    counter (modeled as an RMW on the counter's cache line);
 *  - graph division: static partitioning (see partition.h, pure index
 *    arithmetic, no shared memory traffic);
 *  - branch & bound: a global best-cost bound guarded by a lock.
 */

#ifndef CRONO_RUNTIME_STRATEGIES_H_
#define CRONO_RUNTIME_STRATEGIES_H_

#include <cstdint>

#include "common/aligned.h"

namespace crono::rt {

/**
 * Frontier representation used by the frontier-driven kernels (SSSP,
 * BFS and the betweenness/APSP forward pass). Connected components
 * reads only kFlagScan vs the rest: every other mode runs its
 * hook-and-compress kernel, which has no frontier.
 *
 *  - kFlagScan: the paper's structure — per-vertex active flags,
 *    every thread rescans its full static vertex block each round.
 *    O(V) per round regardless of front size; this is what CRONO's
 *    released kernels do, so it stays the default for every
 *    paper-figure experiment (fidelity preserved bit-for-bit).
 *  - kSparse: per-thread chunked work-lists (see rt::FrontierEngine)
 *    with chunk-granularity work-stealing; O(front) per round.
 *  - kAdaptive: per-round choice between the representations based on
 *    front occupancy — dense when front_size * avg_degree > V / k,
 *    sparse again once the front shrinks below that threshold. BFS
 *    runs its own queue kernel in kSparse and kAdaptive and, in
 *    kAdaptive only, consumes a level pull-side (direction-optimized)
 *    once its front exceeds core::pullFrontThreshold. This is the
 *    only mode with pull rounds.
 */
enum class FrontierMode : int {
    kFlagScan = 0,
    kSparse = 1,
    kAdaptive = 2,
};

/**
 * Human-readable name of @p mode
 * ("flagscan" / "sparse" / "adaptive").
 */
const char* frontierModeName(FrontierMode mode);

/**
 * Shared counter for vertex capture. Lives on its own cache line:
 * every capture is an RMW that ping-pongs the line between threads,
 * which is exactly the fine-grain communication the paper measures.
 */
struct CaptureCounter {
    alignas(kCacheLineBytes) std::uint64_t next = 0;
};

/** Sentinel returned by captureNext when the range is exhausted. */
inline constexpr std::uint64_t kCaptureDone = ~std::uint64_t{0};

/**
 * Atomically claim the next work item below @p limit.
 *
 * @return the claimed index, or kCaptureDone when exhausted.
 */
template <class Ctx>
std::uint64_t
captureNext(Ctx& ctx, CaptureCounter& counter, std::uint64_t limit)
{
    const std::uint64_t claimed =
        ctx.fetchAdd(counter.next, std::uint64_t{1});
    return claimed < limit ? claimed : kCaptureDone;
}

/**
 * Global bound for branch & bound (TSP, DFS pruning).
 *
 * The value is read without the lock on the fast path (a stale-high
 * read only delays pruning, never breaks correctness) and improved
 * under the lock.
 */
template <class Ctx>
struct GlobalBound {
    alignas(kCacheLineBytes) std::uint64_t value;
    typename Ctx::Mutex mutex;

    explicit GlobalBound(std::uint64_t initial = ~std::uint64_t{0})
        : value(initial)
    {
    }

    /** Racy read of the current bound (monotone non-increasing). */
    std::uint64_t
    current(Ctx& ctx)
    {
        // Declared-racy probe: unordered with the locked improvement
        // write. The bound only decreases, so a stale (higher) value
        // merely delays pruning; it never prunes a viable branch.
        return ctx.readAtomic(value);
    }

    /**
     * Install @p candidate if it improves the bound.
     * @return true if the bound was improved by this call.
     */
    bool
    tryImprove(Ctx& ctx, std::uint64_t candidate)
    {
        // Declared-racy probe: unlocked filter before taking the
        // mutex. A stale (higher) value admits at worst a wasted lock
        // acquisition; the locked compare below decides.
        if (ctx.readAtomic(value) <= candidate) {
            return false;
        }
        ctx.lock(mutex);
        const bool improved = ctx.read(value) > candidate;
        if (improved) {
            ctx.write(value, candidate);
        }
        ctx.unlock(mutex);
        return improved;
    }
};

} // namespace crono::rt

#endif // CRONO_RUNTIME_STRATEGIES_H_
