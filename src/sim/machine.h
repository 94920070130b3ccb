/**
 * @file
 * The simulated multicore: fibers + scheduler + memory system.
 *
 * Machine executes a parallel region the way Graphite does — direct
 * execution with per-thread local clocks and lax synchronization —
 * but on cooperative fibers multiplexed over one host thread, which
 * makes every simulation bit-for-bit deterministic:
 *
 *  - each software thread runs on its own fiber, pinned to physical
 *    core (tid % num_cores);
 *  - the scheduler always resumes the ready fiber with the smallest
 *    local clock; a running fiber yields whenever it gets more than
 *    `scheduler_quantum` cycles ahead of the next ready fiber, so
 *    accesses hit the shared memory model in near-timestamp order;
 *  - every read/write/RMW goes through MemorySystem and advances the
 *    thread's CoreModel clock; lock/barrier blocking charges the
 *    Synchronization component;
 *  - when more threads than cores exist (the i7-style configuration),
 *    fibers sharing a core serialize on the core's clock and pay a
 *    context-switch penalty, reproducing the >8-thread slowdown of
 *    the paper's Figure 9.
 */

#ifndef CRONO_SIM_MACHINE_H_
#define CRONO_SIM_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

// crono-lint: allow(include-layering): Machine embeds the Executor to schedule SPMD fibers over simulated cores — the sim→runtime coupling is the simulator's entry point and is documented in DESIGN.md
#include "runtime/executor.h"
#include "sim/config.h"
#include "sim/core_model.h"
#include "sim/energy.h"
#include "sim/fiber.h"
#include "sim/memory_system.h"
#include "sim/observer.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace crono::sim {

class Machine;

/**
 * ExecutionContext over the simulated machine (see
 * runtime/native_context.h for the concept). One per software thread.
 */
class SimCtx {
  public:
    using Mutex = SimMutex;

    /** Telemetry routes simulated contexts to the sim track domain. */
    static constexpr bool kSimulated = true;

    SimCtx(Machine* machine, int tid, int nthreads)
        : machine_(machine), tid_(tid), nthreads_(nthreads)
    {
    }

    int tid() const { return tid_; }
    int nthreads() const { return nthreads_; }

    template <class T>
    T read(const T& ref);

    template <class T>
    void write(T& ref, T value);

    template <class T>
    T fetchAdd(T& ref, T delta);

    /**
     * Compare-and-swap, modeled like fetchAdd: one store access and
     * one atomic-RMW event whether it stores or not.
     */
    template <class T>
    bool compareExchange(T& ref, T expected, T desired);

    /**
     * Declared-racy atomic load: modeled exactly like read() (same
     * cache/NoC traffic, same cycles), but classified as an atomic
     * probe for the analysis layer — the race detector orders it
     * after atomic publishes to the same address and excludes it
     * from race checks. Use only where core/context.h's contract
     * holds (a stale value must be correctness-neutral).
     */
    template <class T>
    T readAtomic(const T& ref);

    void work(std::uint64_t n);
    void lock(SimMutex& m);
    void unlock(SimMutex& m);
    void barrier();
    std::uint64_t ops() const;

    /**
     * This thread's local simulated clock in cycles (telemetry clock
     * domain). Does NOT model any instruction or memory access.
     */
    std::uint64_t timestamp() const;

  private:
    Machine* machine_;
    int tid_;
    int nthreads_;
};

/** A simulated multicore processor. */
class Machine {
  public:
    using Ctx = SimCtx;

    explicit Machine(const Config& cfg);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    const Config& config() const { return cfg_; }

    /**
     * Simulate one parallel region of @p nthreads software threads
     * executing @p body. Machine state (caches, clocks, statistics)
     * is reset at the start of each run.
     */
    SimRunStats run(int nthreads, std::function<void(SimCtx&)> body);

    /**
     * Executor-concept adapter (same shape as NativeExecutor): runs
     * the region and reports completion cycles as RunInfo::time.
     * Detailed statistics stay available via lastStats().
     */
    rt::RunInfo parallel(int nthreads, std::function<void(SimCtx&)> body);

    /** Full statistics of the most recent run. */
    const SimRunStats& lastStats() const { return lastStats_; }

    /** Energy constants used to fold counters into Figure 6 buckets. */
    EnergyParams& energyParams() { return energyParams_; }

    /**
     * Install (or, with nullptr, remove) an analysis observer. The
     * observer sees every shared access and sync event of subsequent
     * run() calls; it is charged no cycles, so the modeled statistics
     * are identical with or without one (see sim/observer.h).
     */
    void setObserver(AccessObserver* observer) { observer_ = observer; }

    AccessObserver* observer() const { return observer_; }

    // ---- Interface used by SimCtx (one fiber active at a time) ----

    /** Model a data access of the running thread. */
    void modelAccess(int tid, std::uintptr_t addr, std::uint32_t size,
                     bool is_store);
    /** Model @p n pure-compute instructions. */
    void modelWork(int tid, std::uint64_t n);
    void mutexLock(int tid, SimMutex& m);
    void mutexUnlock(int tid, SimMutex& m);
    void regionBarrier(int tid);
    std::uint64_t threadOps(int tid) const;
    /** Thread @p tid's local clock (telemetry; no modeling effect). */
    std::uint64_t threadNow(int tid) const
    {
        return threads_[tid].core->now();
    }

    // Analysis-observer forwarding (no modeling effect; see
    // sim/observer.h). Inline so the no-observer case is one
    // predictable branch on the access path.

    void
    observeRead(int tid, std::uintptr_t addr, std::uint32_t size)
    {
        if (observer_ != nullptr) {
            observer_->onSharedRead(tid, addr, size);
        }
    }

    void
    observeWrite(int tid, std::uintptr_t addr, std::uint32_t size)
    {
        if (observer_ != nullptr) {
            observer_->onSharedWrite(tid, addr, size);
        }
    }

    void
    observeRmw(int tid, std::uintptr_t addr, std::uint32_t size)
    {
        if (observer_ != nullptr) {
            observer_->onAtomicRmw(tid, addr, size);
        }
    }

    void
    observeAtomicLoad(int tid, std::uintptr_t addr, std::uint32_t size)
    {
        if (observer_ != nullptr) {
            observer_->onAtomicLoad(tid, addr, size);
        }
    }

  private:
    struct ThreadState {
        std::unique_ptr<CoreModel> core;
        std::unique_ptr<Fiber> fiber;
        std::uint64_t ops = 0;
        std::uint64_t wakeTime = 0;
        int physCore = 0;
        bool blocked = false;
    };

    struct PhysCore {
        std::uint64_t clock = 0;
        int lastThread = -1;
    };

    /** Yield if this thread ran past the lax-synchronization skew. */
    void maybeYield(int tid);
    /** Block the running thread until another calls wake(). */
    void blockCurrent(int tid);
    /** Make @p tid runnable again at simulated time @p when. */
    void wake(int tid, std::uint64_t when);
    /** Scheduler main loop; returns when every fiber finished. */
    void schedule();

    using ReadyEntry = std::pair<std::uint64_t, int>; // (time, tid)

    Config cfg_;
    EnergyParams energyParams_;
    AccessObserver* observer_ = nullptr;
    std::unique_ptr<MemorySystem> mem_;
    std::vector<ThreadState> threads_;
    std::vector<PhysCore> phys_;
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                        std::greater<ReadyEntry>>
        ready_;
    SimRunStats lastStats_;

    // Region-wide barrier state.
    struct alignas(kCacheLineBytes) BarrierWord {
        std::uint64_t word = 0;
    };
    BarrierWord barrierWord_;
    std::vector<int> barrierWaiters_;
    int barrierArrived_ = 0;
    int nthreads_ = 0;
};

// ---- SimCtx inline implementations ----

// Observer calls come after modelAccess (whose maybeYield is the only
// scheduling point), adjacent to the actual data operation, so the
// observer sees events in the exact order the fibers perform them.

template <class T>
T
SimCtx::read(const T& ref)
{
    machine_->modelAccess(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                          sizeof(T), /*is_store=*/false);
    machine_->observeRead(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                          sizeof(T));
    return ref;
}

template <class T>
void
SimCtx::write(T& ref, T value)
{
    machine_->modelAccess(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                          sizeof(T), /*is_store=*/true);
    machine_->observeWrite(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                           sizeof(T));
    ref = value;
}

template <class T>
T
SimCtx::fetchAdd(T& ref, T delta)
{
    machine_->modelAccess(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                          sizeof(T), /*is_store=*/true);
    machine_->observeRmw(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                         sizeof(T));
    // Functionally atomic: fibers cannot interleave between these two
    // statements (the model call above is the only yield point).
    const T old = ref;
    ref = static_cast<T>(old + delta);
    return old;
}

template <class T>
bool
SimCtx::compareExchange(T& ref, T expected, T desired)
{
    machine_->modelAccess(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                          sizeof(T), /*is_store=*/true);
    machine_->observeRmw(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                         sizeof(T));
    // Functionally atomic for the same reason as fetchAdd.
    if (ref != expected) {
        return false;
    }
    ref = desired;
    return true;
}

template <class T>
T
SimCtx::readAtomic(const T& ref)
{
    machine_->modelAccess(tid_, reinterpret_cast<std::uintptr_t>(&ref),
                          sizeof(T), /*is_store=*/false);
    machine_->observeAtomicLoad(
        tid_, reinterpret_cast<std::uintptr_t>(&ref), sizeof(T));
    return ref;
}

inline void
SimCtx::work(std::uint64_t n)
{
    machine_->modelWork(tid_, n);
}

inline void
SimCtx::lock(SimMutex& m)
{
    machine_->mutexLock(tid_, m);
}

inline void
SimCtx::unlock(SimMutex& m)
{
    machine_->mutexUnlock(tid_, m);
}

inline void
SimCtx::barrier()
{
    machine_->regionBarrier(tid_);
}

inline std::uint64_t
SimCtx::ops() const
{
    return machine_->threadOps(tid_);
}

inline std::uint64_t
SimCtx::timestamp() const
{
    return machine_->threadNow(tid_);
}

} // namespace crono::sim

#endif // CRONO_SIM_MACHINE_H_
