#include "sim/memory_system.h"

#include <algorithm>

#include "common/macros.h"

namespace crono::sim {

MemorySystem::MemorySystem(const Config& cfg)
    : cfg_(cfg), mesh_(cfg), dram_(cfg), numCores_(cfg.num_cores),
      ackwiseK_(cfg.ackwise_pointers), l1Allocation_(cfg.l1_allocation),
      localityThreshold_(cfg.locality_threshold),
      lineBytes_(cfg.line_bytes), l2Cycles_(cfg.l2.access_cycles),
      ctlBits_(cfg.control_message_bits), dataBits_(cfg.line_bytes * 8)
{
    nodes_.reserve(numCores_);
    for (int i = 0; i < numCores_; ++i) {
        nodes_.emplace_back(cfg);
    }
    // Line 0 is never mapped; its entries keep the tables line-indexed.
    lines_.emplace_back(ackwiseK_);
    l1Lines_.resize(numCores_, static_cast<std::uint8_t>(MissClass::cold));
}

void
MemorySystem::reset()
{
    for (Node& n : nodes_) {
        n.l1d.reset();
        n.l2.reset();
    }
    lineMap_.clear();
    lines_.erase(lines_.begin() + 1, lines_.end());
    l1Lines_.resize(numCores_);
    reuse_.clear();
    mesh_ = Mesh(cfg_);
    dram_ = Dram(cfg_);
    l1d_ = {};
    l2_ = {};
    dirStats_ = {};
    l1iAccesses_ = 0;
}

LineState
MemorySystem::l1State(int core, LineAddr line) const
{
    return nodes_[core].l1d.peek(line);
}

DirState
MemorySystem::dirState(LineAddr line) const
{
    if (line >= lines_.size() || !lines_[line].inL2) {
        return DirState::uncached;
    }
    return lines_[line].dir.state;
}

LineAddr
MemorySystem::translateLine(std::uintptr_t host_line)
{
    auto [it, inserted] = lineMap_.try_emplace(host_line, lines_.size());
    if (inserted) {
        lines_.emplace_back(ackwiseK_);
        l1Lines_.resize(l1Lines_.size() + numCores_,
                        static_cast<std::uint8_t>(MissClass::cold));
    }
    return it->second;
}

AccessLatency
MemorySystem::access(int core, std::uintptr_t host_addr, std::uint32_t size,
                     bool is_store, std::uint64_t start)
{
    CRONO_ASSERT(size >= 1, "zero-size access");
    // Translate each touched host line independently.
    const std::uintptr_t host_first = host_addr / lineBytes_;
    const std::uintptr_t host_last = (host_addr + size - 1) / lineBytes_;
    AccessLatency total;
    for (std::uintptr_t host_line = host_first; host_line <= host_last;
         ++host_line) {
        const LineAddr line = translateLine(host_line);
        const AccessLatency part = accessLine(core, line, is_store, start);
        total.l1_to_l2 += part.l1_to_l2;
        total.waiting += part.waiting;
        total.sharers += part.sharers;
        total.offchip += part.offchip;
    }
    return total;
}

AccessLatency
MemorySystem::accessLine(int core, LineAddr line, bool is_store,
                         std::uint64_t start)
{
    Node& me = nodes_[core];
    ++l1d_.accesses;

    if (!l1Allocation_) {
        return remoteAccessLine(core, line, is_store, start);
    }
    std::uint8_t& l1 = l1Bytes(line)[core];
    if (localityThreshold_ > 0 && l1 != kResident) {
        // Locality-aware adaptation: stay in remote-access mode until
        // the home has seen enough reuse from this core to justify a
        // private copy (low-locality data never thrashes the L1 or
        // generates invalidation storms).
        std::uint32_t& count = reuse_[line][core];
        if (++count <= localityThreshold_) {
            return remoteAccessLine(core, line, is_store, start);
        }
        count = 0; // granted: restart the observation window
    }

    bool upgrade = false;
    if (l1 == kResident) {
        const LineState l1_state = me.l1d.lookup(line);
        CRONO_ASSERT(l1_state != LineState::invalid,
                     "resident L1 line not cached");
        if (!is_store || l1_state == LineState::modified ||
            l1_state == LineState::exclusive) {
            if (is_store && l1_state == LineState::exclusive) {
                me.l1d.setState(line, LineState::modified);
            }
            ++l1d_.hits;
            return {};
        }
        // Store to a Shared line: coherence upgrade, counted as a hit.
        ++l1d_.hits;
        upgrade = true;
    } else {
        ++l1d_.misses[l1];
    }

    const int home = homeOf(line);
    AccessLatency lat;
    std::uint64_t t = reachHome(core, line, start, lat);
    CRONO_ASSERT(lines_[line].inL2, "L2 line without directory entry");
    DirEntry& de = lines_[line].dir;

    LineState grant;
    switch (de.state) {
      case DirState::uncached:
        CRONO_ASSERT(!upgrade, "upgrade on uncached line");
        grant = is_store ? LineState::modified : LineState::exclusive;
        de.state = DirState::exclusive;
        de.owner = core;
        break;

      case DirState::shared:
        if (!is_store) {
            CRONO_ASSERT(!upgrade, "read upgrade is impossible");
            de.sharers.add(core);
            grant = LineState::shared;
        } else {
            const std::uint64_t done = invalidateSharers(
                de, line, home, core, t, MissClass::sharing);
            lat.sharers += done - t;
            t = done;
            de.sharers.clear();
            de.state = DirState::exclusive;
            de.owner = core;
            grant = LineState::modified;
        }
        break;

      case DirState::exclusive: {
        CRONO_ASSERT(de.owner != core,
                     "requester cannot be the registered owner");
        const std::uint64_t done =
            recallOwner(de, line, home, /*invalidate_owner=*/is_store, t);
        lat.sharers += done - t;
        t = done;
        if (is_store) {
            de.owner = core;
            grant = LineState::modified;
        } else {
            const int prev_owner = de.owner;
            de.state = DirState::shared;
            de.owner = -1;
            de.sharers.clear();
            de.sharers.add(prev_owner);
            de.sharers.add(core);
            grant = LineState::shared;
        }
        break;
      }

      default:
        CRONO_ASSERT(false, "bad directory state");
        grant = LineState::shared;
    }

    // Home is busy with this line until it sends the reply.
    lines_[line].busyUntil = t;

    // Reply to the requester (data, or just an ack for upgrades).
    const std::uint64_t t_reply =
        mesh_.send(home, core, upgrade ? ctlBits_ : dataBits_, t);
    lat.l1_to_l2 += t_reply - t;

    if (upgrade) {
        me.l1d.setState(line, LineState::modified);
    } else {
        const Cache::Victim victim = me.l1d.insert(line, grant);
        l1 = kResident;
        evictL1Line(core, victim, t_reply);
    }
    return lat;
}

std::uint64_t
MemorySystem::reachHome(int core, LineAddr line, std::uint64_t start,
                        AccessLatency& lat)
{
    const int home = homeOf(line);
    Node& h = nodes_[home];
    LineInfo& info = lines_[line];

    std::uint64_t t = mesh_.send(core, home, ctlBits_, start);
    lat.l1_to_l2 += t - start;

    // Serialize against an in-flight transaction on the same line.
    if (info.busyUntil > t) {
        lat.waiting += info.busyUntil - t;
        t = info.busyUntil;
    }

    // First access to the L2 slice (tag + data + directory).
    ++dirStats_.lookups;
    ++l2_.accesses;
    t += l2Cycles_;
    lat.l1_to_l2 += l2Cycles_;

    if (info.inL2) {
        const LineState l2_state = h.l2.lookup(line);
        CRONO_ASSERT(l2_state != LineState::invalid,
                     "directory entry without L2 line");
        ++l2_.hits;
        return t;
    }
    // Fetch the line from DRAM through this slice's controller.
    ++l2_.misses[static_cast<int>(info.l2Seen ? MissClass::capacity
                                              : MissClass::cold)];
    info.l2Seen = true;
    const int ctrl = dram_.controllerNode(line);
    const std::uint64_t t_req = mesh_.send(home, ctrl, ctlBits_, t);
    const std::uint64_t t_mem = dram_.access(line, t_req);
    const std::uint64_t t_back = mesh_.send(ctrl, home, dataBits_, t_mem);
    lat.offchip += t_back - t;
    const Cache::Victim victim = h.l2.insert(line, LineState::shared);
    evictL2Line(home, victim, t_back);
    info.dir = DirEntry(ackwiseK_);
    info.inL2 = true;
    return t_back;
}

AccessLatency
MemorySystem::remoteAccessLine(int core, LineAddr line, bool is_store,
                               std::uint64_t start)
{
    // Remote-access mode: no private caching, every reference is a
    // round trip to the home slice; the directory never tracks
    // sharers, so there is no invalidation traffic at all.
    (void)is_store;
    ++l1d_.misses[static_cast<int>(MissClass::cold)];
    const int home = homeOf(line);
    AccessLatency lat;
    const std::uint64_t t = reachHome(core, line, start, lat);
    lines_[line].busyUntil = t;
    const std::uint64_t t_reply = mesh_.send(home, core, ctlBits_, t);
    lat.l1_to_l2 += t_reply - t;
    return lat;
}

std::uint64_t
MemorySystem::invalidateSharers(DirEntry& de, LineAddr line,
                                int home, int except, std::uint64_t t,
                                MissClass reason)
{
    std::uint64_t done = t;
    std::uint8_t* const l1 = l1Bytes(line);
    auto invalidate_one = [&](int s) {
        if (s == except) {
            return;
        }
        if (l1[s] == kResident) {
            nodes_[s].l1d.invalidate(line);
            l1[s] = static_cast<std::uint8_t>(reason);
            ++dirStats_.invalidations;
        }
        const std::uint64_t t_inv = mesh_.send(home, s, ctlBits_, t);
        const std::uint64_t t_ack = mesh_.send(s, home, ctlBits_, t_inv + 1);
        done = std::max(done, t_ack);
    };

    if (de.sharers.overflowed()) {
        // Identities lost: broadcast to every core and collect acks.
        ++dirStats_.broadcasts;
        for (int s = 0; s < numCores_; ++s) {
            invalidate_one(s);
        }
    } else {
        de.sharers.forEachPointer(invalidate_one);
    }
    return done;
}

std::uint64_t
MemorySystem::recallOwner(DirEntry& de, LineAddr line, int home,
                          bool invalidate_owner, std::uint64_t t)
{
    const int owner = de.owner;
    Node& o = nodes_[owner];
    const std::uint64_t t_fwd = mesh_.send(home, owner, ctlBits_, t);

    const LineState owner_state = o.l1d.peek(line);
    CRONO_ASSERT(owner_state == LineState::modified ||
                     owner_state == LineState::exclusive,
                 "registered owner does not hold the line");
    if (owner_state == LineState::modified) {
        ++dirStats_.write_backs;
        // The slice copy is now dirty.
        nodes_[home].l2.setState(line, LineState::modified);
    }
    if (invalidate_owner) {
        o.l1d.invalidate(line);
        l1Bytes(line)[owner] = static_cast<std::uint8_t>(MissClass::sharing);
        ++dirStats_.invalidations;
    } else {
        o.l1d.setState(line, LineState::shared);
    }
    // Owner responds with the line (synchronous write-back).
    return mesh_.send(owner, home, dataBits_, t_fwd + 1);
}

void
MemorySystem::evictL2Line(int home, const Cache::Victim& victim,
                          std::uint64_t t)
{
    if (!victim.valid) {
        return;
    }
    LineInfo& info = lines_[victim.line];
    CRONO_ASSERT(info.inL2, "L2 victim without directory entry");
    DirEntry& de = info.dir;
    std::uint8_t* const l1 = l1Bytes(victim.line);
    const auto capacity = static_cast<std::uint8_t>(MissClass::capacity);

    bool dirty = victim.state == LineState::modified;
    if (de.state == DirState::exclusive) {
        // Pull the owner's copy back before dropping the line.
        const int owner = de.owner;
        Node& o = nodes_[owner];
        mesh_.send(home, owner, ctlBits_, t);
        mesh_.send(owner, home, dataBits_, t + 1);
        if (o.l1d.peek(victim.line) == LineState::modified) {
            dirty = true;
            ++dirStats_.write_backs;
        }
        o.l1d.invalidate(victim.line);
        l1[owner] = capacity;
        ++dirStats_.invalidations;
    } else if (de.state == DirState::shared) {
        // Inclusive L2: back-invalidate every L1 sharer.
        const bool overflowed = de.sharers.overflowed();
        for (int s = 0; s < numCores_; ++s) {
            if (l1[s] != kResident ||
                (!overflowed && !de.sharers.contains(s))) {
                continue;
            }
            nodes_[s].l1d.invalidate(victim.line);
            l1[s] = capacity;
            ++dirStats_.invalidations;
            mesh_.send(home, s, ctlBits_, t);
            mesh_.send(s, home, ctlBits_, t + 1);
        }
        if (overflowed) {
            ++dirStats_.broadcasts;
        }
    }
    if (dirty) {
        // Write the line back to memory (bandwidth occupancy only).
        mesh_.send(home, dram_.controllerNode(victim.line), dataBits_, t);
        dram_.access(victim.line, t);
    }
    info.inL2 = false;
    info.busyUntil = 0;
}

void
MemorySystem::evictL1Line(int core, const Cache::Victim& victim,
                          std::uint64_t t)
{
    if (!victim.valid) {
        return;
    }
    l1Bytes(victim.line)[core] = static_cast<std::uint8_t>(MissClass::capacity);

    const int home = homeOf(victim.line);
    LineInfo& info = lines_[victim.line];
    CRONO_ASSERT(info.inL2, "L1 victim without home directory entry");
    DirEntry& de = info.dir;

    // Non-silent eviction: tell the home so sharer sets stay precise.
    const bool dirty = victim.state == LineState::modified;
    mesh_.send(core, home, dirty ? dataBits_ : ctlBits_, t);
    if (dirty) {
        ++dirStats_.write_backs;
        nodes_[home].l2.setState(victim.line, LineState::modified);
    }

    if (de.state == DirState::exclusive) {
        CRONO_ASSERT(de.owner == core, "exclusive victim from non-owner");
        de.state = DirState::uncached;
        de.owner = -1;
    } else {
        de.sharers.remove(core);
        if (de.sharers.empty()) {
            de.state = DirState::uncached;
        }
    }
}

} // namespace crono::sim
