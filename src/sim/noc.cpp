#include "sim/noc.h"

#include <cstdlib>

#include "common/macros.h"

namespace crono::sim {

Mesh::Mesh(const Config& cfg)
    : routing_(cfg.routing), width_(cfg.meshWidth()),
      numNodes_(width_ * width_), numCores_(cfg.num_cores),
      hopCycles_(cfg.hop_cycles), flitBits_(cfg.flit_bits)
{
    // 4 outgoing links per node (E/W/S/N); each link carries a ring of
    // time-windowed flit counters for contention.
    windows_.assign(kWindowRing * kNumDirs * numNodes_, Window{});
    coords_.reserve(numNodes_);
    for (int node = 0; node < numNodes_; ++node) {
        coords_.push_back({node % width_, node / width_});
    }
}

int
Mesh::hops(int src, int dst) const
{
    const Coord s = coords_[src], d = coords_[dst];
    return std::abs(s.x - d.x) + std::abs(s.y - d.y);
}

std::uint64_t
Mesh::occupy(Window& w, std::uint64_t epoch, std::uint32_t flits)
{
    // Windowed contention: each link serializes one flit per cycle, so
    // a W-cycle window carries at most W flits. A crossing records its
    // flits in the window of its timestamp; flits beyond the window's
    // capacity are delayed past the end of the window. This stays
    // causally stable under the scheduler's bounded timestamp skew
    // (unlike a next-free-time reservation, which lets a future-dated
    // message starve earlier-dated ones).
    if (w.epoch != epoch) {
        w.epoch = epoch;
        w.flits = 0;
    }
    const std::uint64_t occupied = w.flits;
    w.flits += flits;
    if (occupied + flits <= kWindowCycles) {
        return 0;
    }
    // Overflow: this message queues behind the window's excess.
    return occupied + flits - kWindowCycles;
}

std::uint64_t
Mesh::walk(Dir dir, int node, int stride, int hops, std::uint32_t flits,
           std::uint64_t t)
{
    // t only grows, so the window plane of the current epoch is looked
    // up again only when t crosses the epoch's end.
    std::uint64_t epoch = 0, epoch_end = 0;
    Window* plane = nullptr;
    std::uint64_t contention = 0;
    for (int h = 0; h < hops; ++h, node += stride) {
        if (t >= epoch_end) {
            epoch = t / kWindowCycles;
            epoch_end = (epoch + 1) * kWindowCycles;
            plane = &windows_[((epoch % kWindowRing) * kNumDirs + dir) *
                              numNodes_];
        }
        const std::uint64_t queue = occupy(plane[node], epoch, flits);
        contention += queue;
        t += queue + hopCycles_;
    }
    stats_.contention_cycles += contention;
    stats_.flit_hops += std::uint64_t{flits} * hops;
    return t;
}

std::uint64_t
Mesh::send(int src, int dst, std::uint32_t payload_bits,
           std::uint64_t depart_time)
{
    CRONO_ASSERT(src >= 0 && src < numCores_ && dst >= 0 &&
                     dst < numCores_,
                 "mesh endpoint out of range");
    if (src == dst) {
        return depart_time; // local: never enters the network
    }
    const std::uint32_t total_bits = payload_bits + flitBits_; // + header
    const std::uint32_t flits = (total_bits + flitBits_ - 1) / flitBits_;

    ++stats_.messages;
    stats_.flits += flits;

    // Dimension-ordered walk; O1TURN alternates the leading
    // dimension per message, spreading load over both minimal routes.
    bool x_first = routing_ != Routing::yx;
    if (routing_ == Routing::o1turn) {
        x_first = (messageParity_++ % 2) == 0;
    }
    const Coord s = coords_[src], d = coords_[dst];
    const Dir x_dir = d.x > s.x ? kEast : kWest;
    const Dir y_dir = d.y > s.y ? kSouth : kNorth;
    const int x_stride = d.x > s.x ? 1 : -1;
    const int y_stride = d.y > s.y ? width_ : -width_;
    const int x_hops = std::abs(d.x - s.x), y_hops = std::abs(d.y - s.y);
    // Each dimension is one straight run; the second starts at the
    // corner node where the route turns.
    std::uint64_t t = depart_time;
    if (x_first) {
        t = walk(x_dir, src, x_stride, x_hops, flits, t);
        t = walk(y_dir, s.y * width_ + d.x, y_stride, y_hops, flits, t);
    } else {
        t = walk(y_dir, src, y_stride, y_hops, flits, t);
        t = walk(x_dir, d.y * width_ + s.x, x_stride, x_hops, flits, t);
    }
    // Tail flits arrive behind the head.
    return t + (flits - 1);
}

} // namespace crono::sim
