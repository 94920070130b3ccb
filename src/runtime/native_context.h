/**
 * @file
 * Native (real-threads) implementation of the ExecutionContext
 * concept that all CRONO kernels are templated over.
 *
 * The concept (see core/context.h for the full contract):
 *   - tid() / nthreads()
 *   - read(ref) / write(ref, v) / fetchAdd(ref, d) /
 *     compareExchange(ref, expected, desired): shared-memory accesses.
 *     Native: read() is a plain load; write(), fetchAdd(),
 *     compareExchange() and the declared-racy readAtomic() are atomic.
 *     Simulator: routed through the modeled memory hierarchy.
 *   - work(n): n units of pure compute.
 *   - Mutex, lock(), unlock(), barrier(): synchronization.
 *   - ops(): per-thread instruction-count proxy for the Variability
 *     load-imbalance metric.
 *   - timestamp(): monotonic time in the context's clock domain
 *     (native: steady-clock ns; simulator: the thread's local cycle
 *     clock), used only by the telemetry layer.
 *   - kSimulated: constexpr bool routing telemetry to the right
 *     track domain.
 */

#ifndef CRONO_RUNTIME_NATIVE_CONTEXT_H_
#define CRONO_RUNTIME_NATIVE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "obs/telemetry.h"
#include "runtime/barrier.h"
#include "runtime/spinlock.h"

namespace crono::rt {

/** ExecutionContext over real threads; one instance per thread. */
class NativeCtx {
  public:
    using Mutex = Spinlock;

    /** Telemetry routes native contexts to the worker track domain. */
    static constexpr bool kSimulated = false;

    NativeCtx(int tid, int nthreads, Barrier* barrier)
        : barrier_(barrier), tid_(tid), nthreads_(nthreads)
    {
    }

    int tid() const { return tid_; }
    int nthreads() const { return nthreads_; }

    /**
     * Shared read: a plain load. The Ctx contract forbids a read()
     * that races with a write (readAtomic() is the only racy load), so
     * the load needs no atomicity, and with no atomic in a hot loop
     * the compiler keeps ops_ in a register. A read() that does race
     * is undefined behaviour; TSan reports it. A plain load may also
     * be hoisted out of a loop, so never poll a flag with read()
     * (crono_analyze's read-poll rule).
     */
    template <class T>
    T
    read(const T& ref)
    {
        ++ops_;
        return ref;
    }

    /** Shared write. Atomic (relaxed) for scalar T, plain otherwise. */
    template <class T>
    void
    write(T& ref, T value)
    {
        ++ops_;
        if constexpr (atomicCapable<T>) {
            std::atomic_ref<T>(ref).store(value, std::memory_order_relaxed);
        } else {
            ref = value;
        }
    }

    /**
     * Declared-racy atomic load: a probe the kernel *intends* to race
     * (monotone convergence filters, claim-protected re-checks, B&B
     * bound pruning — see core/context.h for the contract). Unlike
     * read(), a relaxed atomic load for scalar T, because it may run
     * concurrently with write(); the analysis layer's happens-before
     * race detector excludes these probes from race checks instead of
     * flagging intended races.
     */
    template <class T>
    T
    readAtomic(const T& ref)
    {
        ++ops_;
        if constexpr (atomicCapable<T>) {
            return std::atomic_ref<const T>(ref).load(
                std::memory_order_relaxed);
        } else {
            return ref;
        }
    }

    /** Atomic fetch-add on a shared counter; returns the old value. */
    template <class T>
    T
    fetchAdd(T& ref, T delta)
    {
        static_assert(atomicCapable<T>, "fetchAdd needs an atomic scalar");
        ++ops_;
        return std::atomic_ref<T>(ref).fetch_add(
            delta, std::memory_order_acq_rel);
    }

    /**
     * Atomic compare-and-swap: stores @p desired iff @p ref holds
     * @p expected. Returns whether it stored. One op, win or lose.
     */
    template <class T>
    bool
    compareExchange(T& ref, T expected, T desired)
    {
        static_assert(atomicCapable<T>,
                      "compareExchange needs an atomic scalar");
        ++ops_;
        return std::atomic_ref<T>(ref).compare_exchange_strong(
            expected, desired, std::memory_order_acq_rel);
    }

    /** Account @p n units of pure computation. */
    void work(std::uint64_t n) { ops_ += n; }

    void
    lock(Mutex& m)
    {
        ++ops_;
        m.lock();
        // Pairing note: reads of data written under the lock are
        // ordered by the lock's acquire/release.
    }

    void
    unlock(Mutex& m)
    {
        ++ops_;
        m.unlock();
    }

    void
    barrier()
    {
        ++ops_;
        // Telemetry: the dominant sync cost is waiting here, so the
        // barrier hook lives on the context rather than in every
        // kernel. Idle-sink cost: one relaxed load + branch.
        obs::Track* const t =
            obs::trackFor(obs::sink(), obs::TrackKind::kWorker, tid_);
        if (t != nullptr) {
            const std::uint64_t begin = obs::nowNs();
            barrier_->arriveAndWait();
            obs::spanRecord(t, {begin, obs::nowNs(), "barrier", 0,
                                obs::SpanCat::kBarrierWait});
            obs::counterBump(t, obs::Counter::kBarrierWaits, 1);
            return;
        }
        barrier_->arriveAndWait();
    }

    /** Instruction-count proxy accumulated by this thread. */
    std::uint64_t ops() const { return ops_; }

    /** Monotonic steady-clock nanoseconds (telemetry clock domain). */
    std::uint64_t timestamp() const { return obs::nowNs(); }

  private:
    template <class T>
    static constexpr bool atomicCapable =
        std::is_trivially_copyable_v<T> && (sizeof(T) <= 8) &&
        std::atomic_ref<std::remove_const_t<T>>::is_always_lock_free;

    Barrier* barrier_;
    // unsigned long long, not std::uint64_t: on LP64 the latter is
    // unsigned long, the type of graph::EdgeId, so a load through an
    // EdgeId* (ctx.read(offsets[v])) could read the counter, and the
    // compiler would have to store it to memory before every such
    // load. Distinct types cannot alias, so ops_ stays in a register.
    unsigned long long ops_ = 0;
    int tid_;
    int nthreads_;
};

} // namespace crono::rt

#endif // CRONO_RUNTIME_NATIVE_CONTEXT_H_
