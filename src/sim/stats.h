/**
 * @file
 * Simulation statistics: the completion-time breakdown, cache miss
 * classification, network/DRAM counters and energy breakdown the
 * paper's characterization (Section IV-D/F) is built on.
 */

#ifndef CRONO_SIM_STATS_H_
#define CRONO_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace crono::sim {

/** Completion-time components (Section IV-D of the paper). */
enum class Component : int {
    compute = 0,       ///< pipeline + L1 hits
    l1ToL2Home,        ///< L1 miss round trip to L2 home (net + L2)
    l2HomeWaiting,     ///< queueing on a busy line at the home slice
    l2HomeSharers,     ///< invalidation / write-back round trips
    l2HomeOffChip,     ///< DRAM access incl. controller queueing
    synchronization,   ///< lock and barrier wait
};

/** Number of Component values. */
inline constexpr int kNumComponents = 6;

/** Printable component name. */
const char* componentName(Component c);

/** Per-core (or aggregated) cycle breakdown. */
struct Breakdown {
    std::array<double, kNumComponents> cycles{};

    double& operator[](Component c) { return cycles[static_cast<int>(c)]; }
    double operator[](Component c) const
    {
        return cycles[static_cast<int>(c)];
    }

    double total() const;
    Breakdown& operator+=(const Breakdown& other);
    /** Each component divided by total (all zero if total is 0). */
    Breakdown normalized() const;
};

/** L1 miss classification (Section IV-D). */
enum class MissClass : int {
    cold = 0,      ///< line never previously cached here
    capacity,      ///< line evicted earlier by replacement
    sharing,       ///< line invalidated/downgraded by another core
};

/** Cache access counters with miss classification. */
struct CacheStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::array<std::uint64_t, 3> misses{}; // by MissClass

    std::uint64_t totalMisses() const
    {
        return misses[0] + misses[1] + misses[2];
    }
    double missRate() const
    {
        return accesses ? static_cast<double>(totalMisses()) / accesses : 0.0;
    }
    CacheStats& operator+=(const CacheStats& o);
    bool operator==(const CacheStats&) const = default;
};

/** On-chip network counters. */
struct NetworkStats {
    std::uint64_t messages = 0;
    std::uint64_t flits = 0;
    std::uint64_t flit_hops = 0;     ///< flits x links traversed
    std::uint64_t contention_cycles = 0;
    NetworkStats& operator+=(const NetworkStats& o);
    bool operator==(const NetworkStats&) const = default;
};

/** DRAM counters. */
struct DramStats {
    std::uint64_t accesses = 0;
    std::uint64_t queue_cycles = 0;
    DramStats& operator+=(const DramStats& o);
    bool operator==(const DramStats&) const = default;
};

/** Directory protocol counters. */
struct DirectoryStats {
    std::uint64_t lookups = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t broadcasts = 0;      ///< ACKwise overflow broadcasts
    std::uint64_t write_backs = 0;
    DirectoryStats& operator+=(const DirectoryStats& o);
    bool operator==(const DirectoryStats&) const = default;
};

/** Dynamic energy, one bucket per Figure 6 bar segment. */
struct EnergyBreakdown {
    double l1i = 0, l1d = 0, l2 = 0, directory = 0;
    double router = 0, link = 0, dram = 0;

    double total() const
    {
        return l1i + l1d + l2 + directory + router + link + dram;
    }
    EnergyBreakdown& operator+=(const EnergyBreakdown& o);
};

/** Everything measured in one simulated parallel region. */
struct SimRunStats {
    /** Simulated completion time of the region (max over threads). */
    std::uint64_t completion_cycles = 0;
    /** Cycle breakdown summed over all threads. */
    Breakdown breakdown;
    /** Per-thread instruction-count proxies (for Variability). */
    std::vector<std::uint64_t> thread_ops;

    CacheStats l1d;                   ///< all cores combined
    std::uint64_t l1i_accesses = 0;
    CacheStats l2;                    ///< all slices combined
    NetworkStats network;
    DramStats dram;
    DirectoryStats directory;
    EnergyBreakdown energy;

    /**
     * Paper's "cache hierarchy miss rate": L2 misses / L1-D accesses
     * (in percent when multiplied by 100).
     */
    double cacheHierarchyMissRate() const
    {
        return l1d.accesses
                   ? static_cast<double>(l2.totalMisses()) / l1d.accesses
                   : 0.0;
    }

    /** Multi-line report of the run. */
    std::string describe() const;
};

} // namespace crono::sim

#endif // CRONO_SIM_STATS_H_
