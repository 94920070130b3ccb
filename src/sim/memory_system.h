/**
 * @file
 * The full simulated memory hierarchy: per-core private L1-D caches,
 * address-interleaved shared NUCA L2 slices with an integrated
 * ACKwise-4 MESI invalidation directory, the 2-D mesh, and DRAM.
 *
 * access() executes one coherence transaction and returns the latency
 * decomposed into the paper's four memory components (Section IV-D):
 * L1Cache-L2Home, L2Home-Waiting, L2Home-Sharers, L2Home-OffChip.
 *
 * Modeling notes (documented simplifications, see DESIGN.md):
 *  - L1 evictions notify the directory (non-silent), keeping sharer
 *    sets precise; the notification's messages and energy are counted
 *    but add no latency to any requester.
 *  - Inclusive-L2 back-invalidations and dirty write-backs likewise
 *    happen off the critical path (counted, not charged).
 *  - A store hit on a Shared line (upgrade) performs the full
 *    invalidation transaction but is not counted as an L1 miss, per
 *    the paper's definition of sharing misses (the line was present).
 */

#ifndef CRONO_SIM_MEMORY_SYSTEM_H_
#define CRONO_SIM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/core_model.h"
#include "sim/directory.h"
#include "sim/dram.h"
#include "sim/noc.h"
#include "sim/stats.h"

namespace crono::sim {

/** Coherent multi-level memory hierarchy shared by all cores. */
class MemorySystem {
  public:
    explicit MemorySystem(const Config& cfg);

    /**
     * Return to the freshly constructed state: cold caches, no lines
     * translated, zeroed counters. Reuses the allocated tables.
     */
    void reset();

    /**
     * Model one data access.
     *
     * @param core     issuing core id
     * @param addr     virtual (host) byte address
     * @param size     access size in bytes; accesses spanning a line
     *                 boundary are split
     * @param is_store write (or atomic RMW) semantics
     * @param start    core-local cycle the access issues
     */
    AccessLatency access(int core, std::uintptr_t addr, std::uint32_t size,
                         bool is_store, std::uint64_t start);

    /**
     * Translate a host cache-line address into the deterministic
     * simulated line space (first-touch assignment). Because the
     * fiber scheduler is deterministic, lines are first touched in a
     * fixed order, making simulated timing independent of ASLR and
     * host heap history.
     */
    LineAddr translateLine(std::uintptr_t host_line);

    /** Account @p count instruction fetches (L1-I hits). */
    void instructionFetch(std::uint64_t count) { l1iAccesses_ += count; }

    /** Home L2 slice of a line (static address interleaving). */
    int
    homeOf(LineAddr line) const
    {
        return static_cast<int>(line % numCores_);
    }

    /** L1-D state visible to tests. */
    LineState l1State(int core, LineAddr line) const;
    /** Directory state visible to tests. */
    DirState dirState(LineAddr line) const;

    const CacheStats& l1dStats() const { return l1d_; }
    const CacheStats& l2Stats() const { return l2_; }
    const DirectoryStats& directoryStats() const { return dirStats_; }
    const NetworkStats& networkStats() const { return mesh_.stats(); }
    const DramStats& dramStats() const { return dram_.stats(); }
    std::uint64_t l1iAccesses() const { return l1iAccesses_; }
    const Mesh& mesh() const { return mesh_; }

  private:
    struct Node {
        Node(const Config& cfg)
            : l1d(cfg.l1d, cfg.line_bytes), l2(cfg.l2, cfg.line_bytes)
        {
        }

        Cache l1d;
        Cache l2;
    };

    /** Coherence state of one line, kept at its home slice. */
    struct LineInfo {
        explicit LineInfo(int k) : dir(k) {}

        /** Meaningful only while inL2. */
        DirEntry dir;
        /** In-flight transaction serialization. */
        std::uint64_t busyUntil = 0;
        /** Resident in its home slice, so the directory entry exists. */
        bool inL2 = false;
        /** Ever resident in its home slice (cold/capacity split). */
        bool l2Seen = false;
    };

    /**
     * Per-(line, core) L1 byte meaning "resident in this L1"; any other
     * value is the MissClass of the line's last departure from it.
     */
    static constexpr std::uint8_t kResident = 0xff;

    std::uint8_t*
    l1Bytes(LineAddr line)
    {
        return &l1Lines_[line * static_cast<std::size_t>(numCores_)];
    }

    AccessLatency accessLine(int core, LineAddr line, bool is_store,
                             std::uint64_t start);

    /**
     * Send @p core's request to @p line's home slice and look the line
     * up there, fetching it from DRAM on an L2 miss. @return the time
     * the home holds the line and its directory entry.
     */
    std::uint64_t reachHome(int core, LineAddr line, std::uint64_t start,
                            AccessLatency& lat);

    /** Home-only service path used when Config::l1_allocation is off. */
    AccessLatency remoteAccessLine(int core, LineAddr line, bool is_store,
                                   std::uint64_t start);

    /**
     * Invalidate every sharer of @p line except @p except, in
     * parallel. @return the last-ack arrival time at @p home.
     */
    std::uint64_t invalidateSharers(DirEntry& de, LineAddr line,
                                    int home, int except, std::uint64_t t,
                                    MissClass reason);

    /**
     * Fetch (and invalidate or downgrade) the exclusive owner's copy.
     * @return time the write-back data reaches @p home.
     */
    std::uint64_t recallOwner(DirEntry& de, LineAddr line, int home,
                              bool invalidate_owner, std::uint64_t t);

    /** Handle eviction of @p victim from the home slice @p home. */
    void evictL2Line(int home, const Cache::Victim& victim,
                     std::uint64_t t);

    /** Victim handling for an L1 insertion by @p core. */
    void evictL1Line(int core, const Cache::Victim& victim,
                     std::uint64_t t);

    Config cfg_; // for reset()
    std::vector<Node> nodes_;
    std::unordered_map<std::uintptr_t, LineAddr> lineMap_;
    /** [line]; line 0 is reserved (never mapped), so size = next line. */
    std::vector<LineInfo> lines_;
    std::vector<std::uint8_t> l1Lines_; // [line][core]
    /**
     * Locality tracking (adaptive mode): per-line, per-core access
     * counts observed at the line's home slice.
     */
    std::unordered_map<LineAddr, std::unordered_map<int, std::uint32_t>>
        reuse_;
    Mesh mesh_;
    Dram dram_;
    CacheStats l1d_;
    CacheStats l2_;
    DirectoryStats dirStats_;
    std::uint64_t l1iAccesses_ = 0;
    int numCores_;
    int ackwiseK_;
    bool l1Allocation_ = true;
    std::uint32_t localityThreshold_ = 0;
    std::uint32_t lineBytes_;
    std::uint32_t l2Cycles_;
    std::uint32_t ctlBits_;
    std::uint32_t dataBits_;
};

} // namespace crono::sim

#endif // CRONO_SIM_MEMORY_SYSTEM_H_
