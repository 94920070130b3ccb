/**
 * @file
 * Electrical 2-D mesh network-on-chip with XY dimension-ordered
 * routing, per Table II: 2-cycle hops (1 router + 1 link), 64-bit
 * flits, link contention only (infinite input buffers).
 */

#ifndef CRONO_SIM_NOC_H_
#define CRONO_SIM_NOC_H_

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"

namespace crono::sim {

/** 2-D mesh interconnect. Core i sits at (i % width, i / width). */
class Mesh {
  public:
    explicit Mesh(const Config& cfg);

    /** Hop count of the XY route from @p src to @p dst. */
    int hops(int src, int dst) const;

    /**
     * Send a message, modeling per-link serialization and contention.
     *
     * @param src/dst     node ids
     * @param payload_bits message size excluding the header flit
     * @param depart_time  cycle the message leaves @p src
     * @return arrival cycle at @p dst (== depart_time if src == dst)
     */
    std::uint64_t send(int src, int dst, std::uint32_t payload_bits,
                       std::uint64_t depart_time);

    /** Counters accumulated by send(). */
    const NetworkStats& stats() const { return stats_; }
    NetworkStats& stats() { return stats_; }

    /** Contention window width in cycles (== flit capacity). */
    static constexpr std::uint64_t kWindowCycles = 64;
    /** Number of windows retained per link. */
    static constexpr std::size_t kWindowRing = 32;

  private:
    /** Link directions; a window plane holds one direction's links. */
    enum Dir : int { kEast = 0, kWest, kSouth, kNorth, kNumDirs };

    /** One time-window of flit occupancy on a link. */
    struct Window {
        std::uint64_t epoch = ~std::uint64_t{0};
        std::uint64_t flits = 0;
    };

    /** Mesh position of a node. */
    struct Coord {
        int x;
        int y;
    };

    /**
     * Record @p flits crossing the link of @p w in @p epoch.
     * @return the queueing delay they see.
     */
    static std::uint64_t occupy(Window& w, std::uint64_t epoch,
                                std::uint32_t flits);

    /**
     * Cross @p hops links in direction @p dir, starting at @p node and
     * moving @p stride node ids per hop; @return the time after the
     * last hop.
     */
    std::uint64_t walk(Dir dir, int node, int stride, int hops,
                       std::uint32_t flits, std::uint64_t t);

    /**
     * [epoch % kWindowRing][dir][node]: time-major, so consecutive
     * hops along a row touch adjacent windows.
     */
    std::vector<Window> windows_;
    std::vector<Coord> coords_; // [node]
    NetworkStats stats_;
    Routing routing_;
    std::uint64_t messageParity_ = 0; // O1TURN alternation
    int width_;
    int numNodes_; // width_ * width_, phantom nodes included
    int numCores_;
    std::uint32_t hopCycles_;
    std::uint32_t flitBits_;
};

} // namespace crono::sim

#endif // CRONO_SIM_NOC_H_
