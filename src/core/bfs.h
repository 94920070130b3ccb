/**
 * @file
 * Breadth First Search (Section III-4).
 *
 * Parallelization: graph division with a barrier per level hop. Two
 * kernels, selected by FrontierMode:
 *
 *  - kFlagScan (the paper's structure): the level's frontier lives in
 *    an rt::FrontierEngine and is consumed through par::edgeMapPush
 *    as a flag scan of each thread's static vertex block. Discovery
 *    claims go through FrontierEngine::activateClaim, whose flag
 *    fetch-and-add doubles as the claim (the level array is the cheap
 *    already-visited filter), so the separate `claimed` array of
 *    CRONO's released kernel disappears. The simulator figures and
 *    the golden op and sim counts run this kernel.
 *  - kSparse / kAdaptive: a GAP-style level-synchronous queue kernel
 *    (Beamer et al., The GAP Benchmark Suite). All levels live in one
 *    shared queue of V entries; level d is the window [lo, hi) of it.
 *    A push level claims 256-entry chunks of the window by fetch-and-
 *    add and expands each vertex's edges: a discovery is one
 *    compare-and-swap of `level` from kNoLevel to d+1, and the winner
 *    writes the parent and appends the vertex to its own buffer. At
 *    the end of the level each thread appends its buffer to the queue
 *    with one fetch-and-add, then the level's one barrier.
 *    kAdaptive consumes a level whose window exceeds
 *    pullFrontThreshold(V) pull-side (direction optimization): every
 *    unvisited vertex of a thread's static block scans its neighbors
 *    and adopts the first one (in CSR order) whose level is d. A
 *    vertex written in that level holds d+1, so the probe needs no
 *    membership bitmap, and no fill or clear pass.
 *
 * Optionally stops early once a target vertex is reached (the paper
 * frames BFS as a search); by default traverses the whole component
 * producing BFS levels and a parent tree. "Found" means the target
 * was *consumed* from a front, so the stop level is the same in every
 * mode and the level/parent arrays always hold the completed levels'
 * full discoveries.
 */

#ifndef CRONO_CORE_BFS_H_
#define CRONO_CORE_BFS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/context.h"
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "runtime/frontier.h"
#include "runtime/par.h"

namespace crono::core {

/** Level not reached by the traversal. */
inline constexpr std::uint32_t kNoLevel = ~std::uint32_t{0};

/**
 * Pull-switch divisor d of the direction-optimizing policy: a level
 * whose front exceeds V / d is consumed pull-side (kAdaptive only).
 * The GAP-style intuition: once a sizable fraction of the graph is on
 * the front, most push edge-scans hit already-claimed destinations,
 * while a destination-side gather can stop at its first in-front
 * neighbor — on power-law inputs the heavy middle levels of a BFS put
 * 20-60% of all vertices on the front at once. Road networks sit
 * near the threshold: the widest levels of the 512^2 road lattice
 * hold about V/20, so some sources pull two to four of their ~80
 * levels.
 */
inline constexpr std::uint64_t kFrontierPullSwitchDivisor = 20;

/** Front size above which a level is consumed pull-side (>= 1). */
inline std::uint64_t
pullFrontThreshold(std::uint64_t num_vertices)
{
    const std::uint64_t threshold =
        num_vertices / kFrontierPullSwitchDivisor;
    return threshold == 0 ? 1 : threshold;
}

/** BFS traversal output. */
struct BfsResult {
    AlignedVector<std::uint32_t> level;     ///< kNoLevel if unreached
    AlignedVector<graph::VertexId> parent;  ///< kNoVertex if unreached
    std::uint64_t reached = 0;              ///< vertices visited
    bool found_target = false;
    rt::RunInfo run;
};

/** Output arrays and counters shared by both BFS kernels. */
struct BfsArrays {
    BfsArrays(const graph::Graph& graph, graph::VertexId source,
              graph::VertexId target_in, rt::ActiveTracker* tracker_in)
        : g(graph), level(graph.numVertices(), kNoLevel),
          parent(graph.numVertices(), graph::kNoVertex),
          target(target_in), tracker(tracker_in)
    {
        CRONO_REQUIRE(source < graph.numVertices(), "bad BFS source");
        level[source] = 0;
        parent[source] = source;
        trackAdd(tracker, 1);
    }

    /** Move the outputs into a BfsResult carrying @p run. */
    BfsResult
    result(rt::RunInfo run)
    {
        return BfsResult{std::move(level), std::move(parent),
                         reached.value, found.value != 0,
                         std::move(run)};
    }

    const graph::Graph& g;
    AlignedVector<std::uint32_t> level;
    AlignedVector<graph::VertexId> parent;
    Padded<std::uint64_t> reached;
    Padded<std::uint32_t> found;
    graph::VertexId target;
    rt::ActiveTracker* tracker;
};

/** Shared state of the flag-scan kernel. */
template <class Ctx>
struct BfsScanState : BfsArrays {
    BfsScanState(const graph::Graph& graph, graph::VertexId source,
                 graph::VertexId target_in, int nthreads,
                 rt::ActiveTracker* tracker_in)
        : BfsArrays(graph, source, target_in, tracker_in),
          frontier(graph.numVertices(), graph.numEdges(), nthreads,
                   rt::FrontierMode::kFlagScan)
    {
        frontier.seed(source);
    }

    rt::FrontierEngine frontier;
};

/** Kernel body of the paper's flag-scan BFS (all threads). */
template <class Ctx>
void
bfsScanKernel(Ctx& ctx, BfsScanState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());

    std::uint64_t front = s.frontier.initialFrontSize();
    std::uint64_t local_reached = 0;
    for (std::uint32_t depth = 0; front != 0; ++depth) {
        rt::par::edgeMapPush(
            ctx, csr, s.frontier, depth, /*dense=*/true,
            [&](graph::VertexId u) {
                ++local_reached;
                trackAdd(s.tracker, -1);
                if (u == s.target) {
                    ctx.write(s.found.value, 1u);
                }
                return true;
            },
            [&](graph::VertexId u, graph::VertexId v, graph::EdgeId) {
                ctx.work(1);
                // Declared-racy probe: v's level may be written by a
                // concurrent claim winner. A stale kNoLevel only costs
                // a losing activateClaim RMW; levels are written once,
                // so a stale non-kNoLevel cannot happen (set-once,
                // same round claims arbitrate).
                if (ctx.readAtomic(s.level[v]) != kNoLevel) {
                    return; // visited in an earlier level
                }
                if (s.frontier.activateClaim(ctx, depth, v)) {
                    ctx.write(s.level[v], depth + 1);
                    ctx.write(s.parent[v], u);
                    trackAdd(s.tracker, 1);
                }
            });
        bool stop = false;
        front = s.frontier.advance(ctx, depth, [&] {
            // Between the barriers the round is quiesced, so every
            // thread snapshots the same value and breaks together.
            stop = ctx.read(s.found.value) != 0;
        });
        if (stop) {
            break;
        }
    }
    if (local_reached != 0) {
        ctx.fetchAdd(s.reached.value, local_reached);
    }
    if (track != nullptr) {
        obs::counterBump(track, obs::Counter::kExpansions,
                         local_reached);
    }
}

/** Shared state of the queue kernel (kSparse / kAdaptive). */
template <class Ctx>
struct BfsQueueState : BfsArrays {
    BfsQueueState(const graph::Graph& graph, graph::VertexId source,
                  graph::VertexId target_in, int nthreads, bool pull,
                  rt::ActiveTracker* tracker_in)
        : BfsArrays(graph, source, target_in, tracker_in),
          queue(std::make_unique_for_overwrite<graph::VertexId[]>(
              graph.numVertices())),
          lanes(static_cast<std::size_t>(nthreads)),
          pull_threshold(pull ? pullFrontThreshold(graph.numVertices())
                              : ~std::uint64_t{0})
    {
        queue[0] = source;
    }

    /** Owner-private per-thread state (unmodeled, like
     *  delta-stepping's bins). */
    struct Lane {
        std::vector<graph::VertexId> buffer;  ///< this level's finds
        std::vector<std::uint64_t> ops_marks; ///< ops() per level end
    };

    /** Every level's vertices in discovery order; each vertex enters
     *  once, so V entries suffice. Left uninitialized: a level reads
     *  only the slots the previous level's flushes wrote. */
    std::unique_ptr<graph::VertexId[]> queue;
    /** Level d's flush cursor and chunk-claim cursor are slot d % 3.
     *  Thread 0 zeroes slot (d+1) % 3 at the top of level d: its last
     *  reader read it before level d-1's barrier, and its next user
     *  starts after level d's, so one barrier per level suffices. */
    Padded<std::uint64_t> appended[3];
    Padded<std::uint64_t> claimed[3];
    std::vector<Padded<Lane>> lanes;
    /** Front size above which a level pulls; never for kSparse. */
    std::uint64_t pull_threshold;
};

/** Kernel body of the GAP-style queue BFS (all threads). */
template <class Ctx>
void
bfsQueueKernel(Ctx& ctx, BfsQueueState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);
    typename BfsQueueState<Ctx>::Lane& lane =
        s.lanes[static_cast<std::size_t>(ctx.tid())].value;
    const bool has_target = s.target < csr.num_vertices;

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
    std::uint64_t consumed = 0;
    std::uint64_t discovered = 0;

    // The level's discovery: record v and queue it for the next level.
    const auto discover = [&](graph::VertexId v, graph::VertexId u) {
        ctx.write(s.parent[v], u);
        lane.buffer.push_back(v);
        trackAdd(s.tracker, 1);
    };

    std::uint64_t lo = 0;
    std::uint64_t hi = 1;
    for (std::uint32_t depth = 0; lo != hi; ++depth) {
        const std::size_t slot = depth % 3;
        const std::uint32_t next_level = depth + 1;
        if (ctx.tid() == 0) {
            const std::size_t reuse = (depth + 1) % 3;
            ctx.write(s.appended[reuse].value, std::uint64_t{0});
            ctx.write(s.claimed[reuse].value, std::uint64_t{0});
        }
        // Declared-racy probe: a thread already in this level may set
        // level[target] from kNoLevel to depth + 1 meanwhile. Only the
        // previous level writes depth, before its barrier, so every
        // thread gets the same answer.
        const bool stop =
            has_target && ctx.readAtomic(s.level[s.target]) == depth;
        const std::uint64_t front = hi - lo;
        const bool pull = front > s.pull_threshold;
        const std::uint64_t round_begin =
            track != nullptr ? ctx.timestamp() : 0;
        if (track != nullptr && ctx.tid() == 0) {
            obs::counterBump(track,
                             pull ? obs::Counter::kPullRounds
                                  : obs::Counter::kSparseRounds,
                             1);
        }

        if (pull) {
            // The whole window is consumed this level; account it once.
            if (ctx.tid() == 0) {
                consumed += front;
                trackAdd(s.tracker, -static_cast<std::int64_t>(front));
            }
            const rt::Range own = rt::blockPartition(
                csr.num_vertices, ctx.tid(), ctx.nthreads());
            for (std::uint64_t vi = own.begin; vi < own.end; ++vi) {
                const auto v = static_cast<graph::VertexId>(vi);
                // Only v's owner writes level[v] in a pull level.
                if (ctx.read(s.level[v]) != kNoLevel) {
                    continue;
                }
                const graph::EdgeId end = ctx.read(csr.offsets[v + 1]);
                for (graph::EdgeId e = ctx.read(csr.offsets[v]); e < end;
                     ++e) {
                    const graph::VertexId u = ctx.read(csr.neighbors[e]);
                    ctx.work(1);
                    // Declared-racy probe: u's owner may set level[u]
                    // from kNoLevel to depth + 1 meanwhile. A front
                    // vertex holds depth and is not written this
                    // level, so the comparison's answer cannot change.
                    if (ctx.readAtomic(s.level[u]) == depth) {
                        ctx.write(s.level[v], next_level);
                        discover(v, u); // first in CSR order wins
                        break;
                    }
                }
            }
        } else {
            for (;;) {
                const std::uint64_t first = ctx.fetchAdd(
                    s.claimed[slot].value,
                    std::uint64_t{rt::kFrontierChunkCap});
                if (first >= front) {
                    break;
                }
                const std::uint64_t last =
                    std::min<std::uint64_t>(front,
                                            first + rt::kFrontierChunkCap);
                for (std::uint64_t i = lo + first; i < lo + last; ++i) {
                    const graph::VertexId u = ctx.read(s.queue[i]);
                    ++consumed;
                    trackAdd(s.tracker, -1);
                    const graph::EdgeId end = ctx.read(csr.offsets[u + 1]);
                    for (graph::EdgeId e = ctx.read(csr.offsets[u]);
                         e < end; ++e) {
                        const graph::VertexId v =
                            ctx.read(csr.neighbors[e]);
                        ctx.work(1);
                        // Declared-racy probe: a concurrent claim may
                        // set level[v] meanwhile. A stale kNoLevel
                        // only costs a losing compareExchange, which
                        // decides; levels are written once.
                        if (ctx.readAtomic(s.level[v]) == kNoLevel &&
                            ctx.compareExchange(s.level[v], kNoLevel,
                                                next_level)) {
                            discover(v, u);
                        }
                    }
                }
            }
        }

        // Publish the level's discoveries with one fetch-and-add.
        if (!lane.buffer.empty()) {
            const std::uint64_t n = lane.buffer.size();
            const std::uint64_t base =
                hi + ctx.fetchAdd(s.appended[slot].value, n);
            CRONO_ASSERT(base + n <= csr.num_vertices,
                         "BFS queue overflow");
            for (std::uint64_t i = 0; i < n; ++i) {
                ctx.write(s.queue[base + i], lane.buffer[i]);
            }
            discovered += n;
            lane.buffer.clear();
        }
        if (track != nullptr) {
            obs::spanRecord(track, {round_begin, ctx.timestamp(),
                                    pull ? "round-pull" : "round-sparse",
                                    depth, obs::SpanCat::kRound});
        }
        lane.ops_marks.push_back(ctx.ops()); // pre-wait: imbalance
        ctx.barrier();
        if (stop) {
            if (ctx.tid() == 0) {
                ctx.write(s.found.value, 1u);
            }
            break;
        }
        lo = hi;
        hi += ctx.read(s.appended[slot].value);
    }
    if (consumed != 0) {
        ctx.fetchAdd(s.reached.value, consumed);
    }
    if (track != nullptr) {
        obs::counterBump(track, obs::Counter::kExpansions, consumed);
        obs::counterBump(track, obs::Counter::kActivations, discovered);
    }
}

/**
 * Run BFS from @p source. Pass @p target = graph::kNoVertex to
 * traverse the full component.
 *
 * @param mode frontier representation; kFlagScan (default) is the
 *             paper's structure, kSparse/kAdaptive run the GAP-style
 *             queue kernel, with kAdaptive also taking heavy levels
 *             pull-side (direction optimization)
 */
template <class Exec>
BfsResult
bfs(Exec& exec, int nthreads, const graph::Graph& g,
    graph::VertexId source, graph::VertexId target = graph::kNoVertex,
    rt::ActiveTracker* tracker = nullptr,
    rt::FrontierMode mode = rt::FrontierMode::kFlagScan)
{
    using Ctx = typename Exec::Ctx;
    obs::ScopedHostSpan kernel_span("BFS", g.numVertices());
    if (mode == rt::FrontierMode::kFlagScan) {
        BfsScanState<Ctx> state(g, source, target, nthreads, tracker);
        rt::RunInfo info = exec.parallel(
            nthreads, [&state](Ctx& ctx) { bfsScanKernel(ctx, state); });
        return state.result(std::move(info));
    }
    BfsQueueState<Ctx> state(g, source, target, nthreads,
                             mode == rt::FrontierMode::kAdaptive,
                             tracker);
    rt::RunInfo info = exec.parallel(
        nthreads, [&state](Ctx& ctx) { bfsQueueKernel(ctx, state); });
    std::vector<const std::vector<std::uint64_t>*> marks;
    for (const Padded<typename BfsQueueState<Ctx>::Lane>& lane :
         state.lanes) {
        marks.push_back(&lane.value.ops_marks);
    }
    rt::applyRoundVariability(info, marks);
    return state.result(std::move(info));
}

} // namespace crono::core

#endif // CRONO_CORE_BFS_H_
