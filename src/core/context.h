/**
 * @file
 * The ExecutionContext concept and shared kernel helpers.
 *
 * Every CRONO kernel is a template over a context type `Ctx` so the
 * identical algorithm runs (a) natively on real threads and (b) inside
 * the multicore simulator with every shared-memory access modeled.
 *
 * Required `Ctx` interface (see rt::NativeCtx and sim::SimCtx):
 *
 *   int tid();  int nthreads();
 *   T    read(const T& ref);          // shared load; must not race
 *   void write(T& ref, T value);      // shared store
 *   T    fetchAdd(T& ref, T delta);   // atomic RMW, returns old
 *   bool compareExchange(T& ref, T expected, T desired);
 *                                     // atomic CAS, true iff stored;
 *                                     // an RMW publish win or lose
 *   T    readAtomic(const T& ref);    // declared-racy probe load
 *
 * readAtomic is the kernel's annotation that a load is *intended* to
 * race and any value it can observe is correctness-neutral: the
 * monotone-filter probe before a locked re-check (SSSP/CC label
 * improvement, TSP's branch-and-bound bound), or a claim-protected
 * first-touch filter (BFS's level check before activateClaim). It is
 * modeled and costed exactly like read(). Natively it is the only racy
 * load: readAtomic() is a relaxed atomic load, while read() is a plain
 * load, so a read() that races with a write is undefined behaviour.
 * TSan reports such a race natively, and the race detector
 * (src/analysis) reports it in the simulator; the detector orders
 * readAtomic() after atomic publishes to the same address and excludes
 * it from race checks. A plain load may also be hoisted out of a loop,
 * so a loop that polls shared state must poll it with readAtomic()
 * (crono_analyze's read-poll rule flags ctx.read( in a loop
 * condition). Never use readAtomic() on a value whose staleness could
 * change the result — only on probes whose misses are retried,
 * re-checked under a lock, or absorbed by a monotone fixpoint.
 *   void work(std::uint64_t n);       // n single-cycle compute ops
 *   using Mutex = ...;                // default-constructible
 *   void lock(Mutex&); void unlock(Mutex&);
 *   void barrier();                   // region-wide
 *   std::uint64_t ops();              // instruction-count proxy
 *   std::uint64_t timestamp();        // telemetry clock (native: ns,
 *                                     // sim: local cycles); must not
 *                                     // model work or memory traffic
 *   static constexpr bool kSimulated; // telemetry track domain
 *
 * And the Executor concept used by the kernel drivers:
 *
 *   using Ctx = ...;
 *   rt::RunInfo parallel(int nthreads, std::function<void(Ctx&)>);
 */

#ifndef CRONO_CORE_CONTEXT_H_
#define CRONO_CORE_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "graph/graph.h"
#include "runtime/instrumentation.h"

namespace crono::core {

/**
 * Striped per-vertex lock array.
 *
 * The paper's kernels lock individual vertices ("atomic locks") when
 * updating shared per-vertex values. A full lock per vertex would
 * dominate the footprint of large graphs, so vertices hash onto a
 * power-of-two pool of locks; contention behaviour is preserved while
 * memory stays bounded.
 */
template <class Ctx>
class LockStripe {
  public:
    /** Pool sized to min(next_pow2(n), max_stripes). */
    explicit LockStripe(std::uint64_t n, std::uint64_t max_stripes = 1024)
    {
        std::uint64_t size = 1;
        while (size < n && size < max_stripes) {
            size <<= 1;
        }
        mask_ = size - 1;
        locks_ = std::vector<typename Ctx::Mutex>(size);
    }

    typename Ctx::Mutex&
    of(std::uint64_t key)
    {
        return locks_[key & mask_];
    }

    /**
     * Stripe index of @p key, for deadlock-free ordered acquisition
     * of two locks (lock the smaller index first).
     */
    std::uint64_t indexOf(std::uint64_t key) const { return key & mask_; }

    std::size_t size() const { return locks_.size(); }

  private:
    std::vector<typename Ctx::Mutex> locks_;
    std::uint64_t mask_;
};

/**
 * RAII critical section over a Ctx mutex.
 */
template <class Ctx>
class ScopedLock {
  public:
    ScopedLock(Ctx& ctx, typename Ctx::Mutex& m) : ctx_(ctx), mutex_(m)
    {
        ctx_.lock(mutex_);
    }
    ~ScopedLock() { ctx_.unlock(mutex_); }

    ScopedLock(const ScopedLock&) = delete;
    ScopedLock& operator=(const ScopedLock&) = delete;

  private:
    Ctx& ctx_;
    typename Ctx::Mutex& mutex_;
};

/** Null-safe active-vertex instrumentation. */
inline void
trackAdd(rt::ActiveTracker* tracker, std::int64_t delta)
{
    if (tracker != nullptr && delta != 0) {
        tracker->add(delta);
    }
}

} // namespace crono::core

#endif // CRONO_CORE_CONTEXT_H_
