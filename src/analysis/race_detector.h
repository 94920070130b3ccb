/**
 * @file
 * Dynamic happens-before race detector for the simulated machine.
 *
 * A FastTrack-style vector-clock detector (Flanagan & Freund, PLDI
 * 2009) with an Eraser-style lockset cross-check (Savage et al.,
 * SOSP 1997), implementing sim::AccessObserver so it rides the
 * SimCtx interception point every shared access in a simulated build
 * already flows through. TSan cannot provide this: the simulator
 * multiplexes all software threads onto cooperative fibers of one
 * host thread, so to TSan there is no concurrency at all. The
 * detector instead checks the *logical* concurrency of the program —
 * two accesses race iff no chain of sim synchronization (SimMutex
 * acquire/release, region barriers, atomic fetchAdd/CAS publishes, the
 * region fork) orders them, regardless of how the deterministic
 * fiber schedule happened to serialize them.
 *
 * Event semantics (C_t = thread t's vector clock; every shared
 * access ticks C_t[t], so each access owns a unique epoch):
 *
 *  - plain read/write: classic FastTrack — reads kept as an epoch
 *    while totally ordered, promoted to a read vector only for
 *    genuinely concurrent readers; writes check against the last
 *    write and all unordered reads.
 *  - lock acquire m:  C_t ⊔= L_m.   release m: L_m := C_t; tick.
 *  - barrier: when all nthreads arrive, every C_t := ⊔ all clocks,
 *    then each ticks — a full synchronization point, exactly the
 *    Machine's semantics.
 *  - fetchAdd / compareExchange a: C_t ⊔= S_a, then the plain-write
 *    checks (silent for atomic-after-atomic because the join already
 *    ordered them), then S_a := C_t; tick. So RMWs act as
 *    release-acquire publishes that still conflict with unordered
 *    *plain* accesses. A CAS is such an RMW whether it stores or not:
 *    a losing CAS still reads the word, with acquire order natively.
 *  - readAtomic a: C_t ⊔= S_a only. The probe is the kernel's
 *    declaration of an intended race (core/context.h); it neither
 *    checks nor updates the plain shadow state.
 *
 * The lockset side never *causes* a report; it annotates each
 * happens-before race with whether Eraser agrees (candidate lockset
 * empty). A race with a non-empty lockset usually means a lock the
 * model didn't order (suspect the tool); an empty one corroborates
 * a real synchronization hole (suspect the code).
 *
 * Reports are attributed through the obs telemetry recorder's live
 * spans (the kernel's ScopedHostSpan gives the kernel name) and
 * emitted as a `crono.races.v1` JSON document via analysis/report.h.
 */

#ifndef CRONO_ANALYSIS_RACE_DETECTOR_H_
#define CRONO_ANALYSIS_RACE_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/suppressions.h"
#include "analysis/vector_clock.h"
#include "sim/observer.h"

namespace crono::analysis {

/** How one side of a race accessed the address. */
enum class AccessKind : std::uint8_t {
    kRead = 0,
    kWrite,
    kAtomicRmw,
};

/** Printable kind name ("read" / "write" / "atomic-rmw"). */
const char* accessKindName(AccessKind kind);

/** One detected race (the first per address per region). */
struct RaceRecord {
    std::uintptr_t addr = 0;
    std::uint32_t size = 0;
    AccessKind prior_kind = AccessKind::kRead;
    AccessKind current_kind = AccessKind::kRead;
    int prior_tid = -1;
    int current_tid = -1;
    std::uint64_t prior_clock = 0;
    std::uint64_t current_clock = 0;
    /** Eraser cross-check: no common lock covered both accesses. */
    bool lockset_empty = true;
    std::string kernel; ///< host track's live span (kernel driver)
    std::string span;   ///< racing thread's live sim span, if any
    std::string region; ///< harness-set label (setRegionLabel)
    std::string suppressed_by; ///< matching allowlist pattern, or ""
};

/**
 * The detector. Install on a Machine (machine.setObserver(&det)),
 * run kernels, then inspect races() / unsuppressedCount() or emit a
 * report (analysis/report.h). State resets at every region begin, so
 * one detector can watch many runs; records accumulate across
 * regions until clear().
 */
class RaceDetector final : public sim::AccessObserver {
  public:
    /** Cap on retained RaceRecords (more races still count totals). */
    static constexpr std::size_t kMaxRecords = 256;

    RaceDetector() = default;
    explicit RaceDetector(Suppressions suppressions)
        : suppressions_(std::move(suppressions))
    {
    }

    RaceDetector(const RaceDetector&) = delete;
    RaceDetector& operator=(const RaceDetector&) = delete;

    /** Label attached to subsequent records (e.g. benchmark name). */
    void setRegionLabel(std::string label) { region_ = std::move(label); }

    // sim::AccessObserver
    void onRegionBegin(int nthreads) override;
    void onSharedRead(int tid, std::uintptr_t addr,
                      std::uint32_t size) override;
    void onSharedWrite(int tid, std::uintptr_t addr,
                       std::uint32_t size) override;
    void onAtomicRmw(int tid, std::uintptr_t addr,
                     std::uint32_t size) override;
    void onAtomicLoad(int tid, std::uintptr_t addr,
                      std::uint32_t size) override;
    void onLockAcquire(int tid, std::uintptr_t lock) override;
    void onLockRelease(int tid, std::uintptr_t lock) override;
    void onBarrierArrive(int tid) override;

    /** Retained race records, oldest first (capped at kMaxRecords). */
    const std::vector<RaceRecord>& races() const { return races_; }

    /** Races observed in total, including beyond-cap and suppressed. */
    std::uint64_t totalRaces() const { return total_; }

    /** Races not matched by the allowlist (the CI gate). */
    std::uint64_t unsuppressedCount() const { return unsuppressed_; }

    const Suppressions& suppressions() const { return suppressions_; }

    /** Drop accumulated records and counters (shadow state stays). */
    void clear();

  private:
    /** Per-address FastTrack shadow word plus Eraser lockset state. */
    struct VarState {
        Epoch w;                          ///< last write
        AccessKind w_kind = AccessKind::kWrite; ///< how w accessed it
        Epoch r;                          ///< last read (ordered phase)
        std::unique_ptr<VectorClock> rv;  ///< concurrent-reader clocks
        std::uint32_t size = 0;
        // Eraser candidate lockset: locks held at *every* access so
        // far (after the first sharing thread), empty = no consistent
        // discipline. Kept sorted.
        std::vector<std::uintptr_t> lockset;
        bool lockset_valid = false; ///< becomes true at first access
        bool shared = false;        ///< accessed by a second thread
        int first_tid = -1;
        bool reported = false; ///< one report per address per region
    };

    std::uint64_t epochOf(int tid) const;
    void tick(int tid);
    void report(VarState& vs, std::uintptr_t addr, AccessKind prior,
                AccessKind current, int prior_tid, int cur_tid,
                std::uint64_t prior_clock);
    void eraserUpdate(VarState& vs, int tid);
    void writeChecksAndUpdate(int tid, std::uintptr_t addr,
                              std::uint32_t size, AccessKind kind);

    int nthreads_ = 0;
    std::vector<VectorClock> clocks_;                 // C_t
    std::vector<std::vector<std::uintptr_t>> held_;   // per-thread locks
    std::unordered_map<std::uintptr_t, VectorClock> lockClocks_; // L_m
    std::unordered_map<std::uintptr_t, VectorClock> syncClocks_; // S_a
    std::unordered_map<std::uintptr_t, VarState> shadow_;
    VectorClock barrierJoin_;
    int barrierArrived_ = 0;

    Suppressions suppressions_;
    std::string region_;
    std::vector<RaceRecord> races_;
    std::uint64_t total_ = 0;
    std::uint64_t unsuppressed_ = 0;
};

} // namespace crono::analysis

#endif // CRONO_ANALYSIS_RACE_DETECTOR_H_
