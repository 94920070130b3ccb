/**
 * @file
 * Observation interface over the simulated machine's shared-memory
 * and synchronization events.
 *
 * Every shared access in a simulated build already flows through
 * SimCtx::read/write/fetchAdd/compareExchange and the Machine's
 * lock/barrier primitives — a free, complete interception point for
 * dynamic analyses that host-level tools cannot provide (TSan cannot
 * see fibers multiplexed on one host thread; it observes a single OS
 * thread whose stack "jumps"). An AccessObserver installed via
 * Machine::setObserver receives one callback per modeled event, in
 * the exact order the fibers execute them.
 *
 * Contract (both sides):
 *  - Callbacks fire on the host thread, never concurrently.
 *  - The observer must not touch the machine: it sees addresses and
 *    thread ids only, and the Machine charges no cycles for the
 *    callbacks, so SimRunStats stays bit-for-bit identical with an
 *    observer installed or not (race_detector_test pins this).
 *  - onRegionBegin is raised by Machine::run before any fiber runs;
 *    per-region analyses reset there. Thread start/finish edges need
 *    no callbacks of their own: the host forks and joins the region
 *    sequentially, so nothing an analysis could race with exists
 *    outside [onRegionBegin, run() returning].
 *  - Lock identity is the SimMutex object's address; atomic events
 *    (fetchAdd, compareExchange, readAtomic) carry the data word's
 *    address.
 *
 * The interface lives in sim (not analysis) so the Machine depends
 * only on its own layer; crono_analysis implements it one level up.
 */

#ifndef CRONO_SIM_OBSERVER_H_
#define CRONO_SIM_OBSERVER_H_

#include <cstdint>

namespace crono::sim {

/** Receiver for the simulated machine's shared-memory event stream. */
class AccessObserver {
  public:
    virtual ~AccessObserver() = default;

    /** A parallel region of @p nthreads software threads is starting. */
    virtual void onRegionBegin(int nthreads) = 0;

    /** Plain shared load by thread @p tid (SimCtx::read). */
    virtual void onSharedRead(int tid, std::uintptr_t addr,
                              std::uint32_t size) = 0;

    /** Plain shared store by thread @p tid (SimCtx::write). */
    virtual void onSharedWrite(int tid, std::uintptr_t addr,
                               std::uint32_t size) = 0;

    /**
     * Atomic read-modify-write by thread @p tid (SimCtx::fetchAdd, or
     * SimCtx::compareExchange whether it stores or not).
     */
    virtual void onAtomicRmw(int tid, std::uintptr_t addr,
                             std::uint32_t size) = 0;

    /**
     * Declared-racy atomic load by thread @p tid (SimCtx::readAtomic):
     * an intentional unordered probe whose raciness the kernel
     * tolerates by construction (see core/context.h).
     */
    virtual void onAtomicLoad(int tid, std::uintptr_t addr,
                              std::uint32_t size) = 0;

    /** Thread @p tid acquired the SimMutex at @p lock. */
    virtual void onLockAcquire(int tid, std::uintptr_t lock) = 0;

    /** Thread @p tid is releasing the SimMutex at @p lock. */
    virtual void onLockRelease(int tid, std::uintptr_t lock) = 0;

    /**
     * Thread @p tid arrived at the region barrier. The Machine raises
     * exactly nthreads arrivals per barrier episode; the observer can
     * count them itself to find the release point.
     */
    virtual void onBarrierArrive(int tid) = 0;
};

} // namespace crono::sim

#endif // CRONO_SIM_OBSERVER_H_
