/**
 * @file
 * Routing-policy tests: XY vs YX vs O1TURN produce identical minimal
 * hop counts, take the expected paths, and O1TURN spreads hotspot
 * traffic over both dimension orders. A differential test replays
 * random traffic through Mesh::send and a reference copy of the
 * original per-hop walk and compares every arrival and counter.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/noc.h"

namespace crono::sim {
namespace {

Config
withRouting(Routing r)
{
    Config cfg = Config::futuristic256();
    cfg.routing = r;
    return cfg;
}

TEST(Routing, AllPoliciesDeliverWithMinimalLatencyWhenIdle)
{
    for (Routing r : {Routing::xy, Routing::yx, Routing::o1turn}) {
        Mesh mesh(withRouting(r));
        // 0 -> 255: 30 hops x 2 cycles + 8 tail flits = 68.
        EXPECT_EQ(mesh.send(0, 255, 512, 0), 68u)
            << static_cast<int>(r);
        EXPECT_EQ(mesh.hops(0, 255), 30);
    }
}

TEST(Routing, XyAndYxUseDisjointLinksOffDiagonal)
{
    // 0 -> 17 (one right, one down). XY uses east(0) then south(1);
    // YX uses south(0) then east(16). Saturate the XY path and show
    // YX traffic does not queue behind it.
    Mesh xy(withRouting(Routing::xy));
    for (std::uint64_t t = 0; t < 64; ++t) {
        xy.send(0, 17, 512, t);
    }
    const std::uint64_t xy_contention = xy.stats().contention_cycles;
    EXPECT_GT(xy_contention, 0u);

    Mesh both(withRouting(Routing::xy));
    for (std::uint64_t t = 0; t < 64; ++t) {
        both.send(0, 17, 512, t);
    }
    // YX-routed messages between the same endpoints avoid the hot
    // east(0) link entirely.
    Mesh yx(withRouting(Routing::yx));
    for (std::uint64_t t = 0; t < 64; ++t) {
        yx.send(0, 17, 512, t);
    }
    EXPECT_EQ(yx.stats().contention_cycles, xy_contention);
    // (Same pattern mirrored: each alone saturates its own path.)
}

TEST(Routing, O1TurnHalvesHotspotContention)
{
    // A single saturated source-destination pair: XY funnels all
    // messages down one path; O1TURN alternates over two disjoint
    // minimal paths and should see roughly half the queueing.
    Mesh xy(withRouting(Routing::xy));
    Mesh o1(withRouting(Routing::o1turn));
    for (std::uint64_t t = 0; t < 256; ++t) {
        xy.send(0, 17, 512, t);
        o1.send(0, 17, 512, t);
    }
    EXPECT_LT(o1.stats().contention_cycles,
              xy.stats().contention_cycles / 2 + 1000);
}

/**
 * Reference mesh: the original per-hop walk, which derives each hop's
 * coordinates by division and its link by the node-id difference,
 * over link-major contention windows. Mesh::send must reproduce its
 * arrival times and counters exactly.
 */
class ReferenceMesh {
  public:
    explicit ReferenceMesh(const Config& cfg)
        : routing_(cfg.routing), width_(cfg.meshWidth()),
          hopCycles_(cfg.hop_cycles), flitBits_(cfg.flit_bits),
          windows_(static_cast<std::size_t>(width_) * width_ * 4 *
                   Mesh::kWindowRing)
    {
    }

    std::uint64_t
    send(int src, int dst, std::uint32_t payload_bits,
         std::uint64_t depart_time)
    {
        if (src == dst) {
            return depart_time;
        }
        const std::uint32_t total_bits = payload_bits + flitBits_;
        const std::uint32_t flits = (total_bits + flitBits_ - 1) / flitBits_;
        ++stats.messages;
        stats.flits += flits;
        bool x_first = routing_ != Routing::yx;
        if (routing_ == Routing::o1turn) {
            x_first = (parity_++ % 2) == 0;
        }
        std::uint64_t t = depart_time;
        int node = src;
        const int dx = dst % width_, dy = dst / width_;
        while (node != dst) {
            const int nx = node % width_, ny = node / width_;
            const bool move_x = nx != dx && (x_first || ny == dy);
            const int next = move_x ? node + (dx > nx ? 1 : -1)
                                    : node + (dy > ny ? width_ : -width_);
            const std::uint64_t queue = linkDelay(linkIndex(node, next), t,
                                                  flits);
            stats.contention_cycles += queue;
            t += queue + hopCycles_;
            stats.flit_hops += flits;
            node = next;
        }
        return t + (flits - 1);
    }

    NetworkStats stats;

  private:
    struct Window {
        std::uint64_t epoch = ~std::uint64_t{0};
        std::uint64_t flits = 0;
    };

    std::size_t
    linkIndex(int node, int next) const
    {
        const int diff = next - node;
        const int dir = diff == 1 ? 0 : diff == -1 ? 1 : diff == width_ ? 2 : 3;
        return static_cast<std::size_t>(node) * 4 + dir;
    }

    std::uint64_t
    linkDelay(std::size_t link, std::uint64_t t, std::uint32_t flits)
    {
        const std::uint64_t epoch = t / Mesh::kWindowCycles;
        Window& w = windows_[link * Mesh::kWindowRing +
                             epoch % Mesh::kWindowRing];
        if (w.epoch != epoch) {
            w.epoch = epoch;
            w.flits = 0;
        }
        const std::uint64_t occupied = w.flits;
        w.flits += flits;
        return occupied + flits <= Mesh::kWindowCycles
                   ? 0
                   : occupied + flits - Mesh::kWindowCycles;
    }

    Routing routing_;
    int width_;
    std::uint32_t hopCycles_;
    std::uint32_t flitBits_;
    std::uint64_t parity_ = 0;
    std::vector<Window> windows_;
};

void
expectSameNetworkStats(const NetworkStats& got, const NetworkStats& want)
{
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.flits, want.flits);
    EXPECT_EQ(got.flit_hops, want.flit_hops);
    EXPECT_EQ(got.contention_cycles, want.contention_cycles);
}

/**
 * Random traffic on a mesh and on the reference: a hot spot whose
 * links overflow their windows, local (src == dst) messages, and departures
 * more than kWindowRing windows in the past, which alias a ring slot
 * still holding a newer epoch.
 */
void
checkAgainstReference(const Config& cfg)
{
    Mesh mesh(cfg);
    ReferenceMesh ref(cfg);
    std::mt19937_64 rng(0xC0FFEEu + static_cast<unsigned>(cfg.routing));
    const std::uint32_t payloads[] = {0, 64, 100, 512};
    const std::uint64_t ring_span = Mesh::kWindowCycles * Mesh::kWindowRing;
    std::uint64_t base = ring_span * 4;
    std::uint64_t aliased = 0, local = 0;
    for (int i = 0; i < 10000; ++i) {
        int src = static_cast<int>(rng() % cfg.num_cores);
        int dst = static_cast<int>(rng() % cfg.num_cores);
        if (rng() % 2 == 0) {
            // Corner-to-corner hot spot: its links overflow windows.
            src = static_cast<int>(rng() % 4);
            dst = cfg.num_cores - 1 - static_cast<int>(rng() % 4);
        }
        if (rng() % 16 == 0) {
            dst = src;
            ++local;
        }
        std::uint64_t t = base + rng() % 128;
        if (rng() % 16 == 0) {
            t -= ring_span + rng() % (3 * ring_span);
            ++aliased;
        }
        const std::uint32_t bits = payloads[rng() % 4];
        ASSERT_EQ(mesh.send(src, dst, bits, t), ref.send(src, dst, bits, t))
            << "message " << i << ": " << src << " -> " << dst << " at "
            << t;
        if (i % 256 == 255) {
            base += Mesh::kWindowCycles;
        }
    }
    EXPECT_GT(aliased, 0u);
    EXPECT_GT(local, 0u);
    EXPECT_GT(ref.stats.contention_cycles, 0u);
    expectSameNetworkStats(mesh.stats(), ref.stats);
}

TEST(Routing, SendMatchesReferenceWalk)
{
    for (Routing r : {Routing::xy, Routing::yx, Routing::o1turn}) {
        SCOPED_TRACE(static_cast<int>(r));
        checkAgainstReference(withRouting(r));
    }
}

TEST(Routing, SendMatchesReferenceWalkOnPhantomNodeMesh)
{
    // 8 cores on a 3x3 mesh: node 8 exists only as a routing position.
    for (Routing r : {Routing::xy, Routing::yx, Routing::o1turn}) {
        SCOPED_TRACE(static_cast<int>(r));
        Config cfg = Config::realMachine();
        cfg.routing = r;
        ASSERT_EQ(cfg.meshWidth(), 3);
        checkAgainstReference(cfg);
    }
}

TEST(Routing, O1TurnDeterministicAlternation)
{
    Mesh a(withRouting(Routing::o1turn));
    Mesh b(withRouting(Routing::o1turn));
    std::uint64_t arr_a = 0, arr_b = 0;
    for (std::uint64_t t = 0; t < 100; ++t) {
        arr_a += a.send(3, 200, 512, t * 7);
        arr_b += b.send(3, 200, 512, t * 7);
    }
    EXPECT_EQ(arr_a, arr_b);
}

} // namespace
} // namespace crono::sim
