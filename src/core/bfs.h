/**
 * @file
 * Breadth First Search (Section III-4).
 *
 * Parallelization: graph division with a barrier per level hop. The
 * current level's frontier lives in a rt::FrontierEngine; each round
 * is consumed through the rt::par edge maps in the direction the
 * engine plans for it:
 *
 *  - push (par::edgeMapPush): front vertices expand their out-edges
 *    and claim undiscovered neighbors — flag-scan of the static
 *    vertex block in the paper's kFlagScan structure, chunked work
 *    lists with stealing in kSparse/kAdaptive. Discovery claims go
 *    through FrontierEngine::activateClaim, whose flag fetch-and-add
 *    doubles as the claim (the level array is the cheap
 *    already-visited filter), so the separate `claimed` array of
 *    CRONO's released kernel disappears — one RMW replaces
 *    claim + flag read + flag write, with the same winner-takes-the-
 *    vertex race.
 *  - pull (par::edgeMapPull, kAdaptive's heavy rounds only):
 *    undiscovered vertices scan their own neighbors against the
 *    front bitmap and adopt the first in-front neighbor as parent,
 *    stopping the scan there. On the heavy middle levels of a
 *    power-law traversal (most of the graph on the front at once)
 *    that first-hit exit skips the vast majority of edge work the
 *    push direction would burn on already-claimed destinations —
 *    this is the direction-optimizing BFS of Beamer et al., keyed on
 *    rt::pullFrontThreshold.
 *
 * Optionally stops early once a target vertex is reached (the paper
 * frames BFS as a search); by default traverses the whole component
 * producing BFS levels and a parent tree. The stop decision is
 * snapshotted between the round barriers so every thread breaks
 * together, in every mode.
 */

#ifndef CRONO_CORE_BFS_H_
#define CRONO_CORE_BFS_H_

#include <utility>

#include "core/context.h"
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "runtime/frontier.h"
#include "runtime/par.h"

namespace crono::core {

/** Level not reached by the traversal. */
inline constexpr std::uint32_t kNoLevel = ~std::uint32_t{0};

/** BFS traversal output. */
struct BfsResult {
    AlignedVector<std::uint32_t> level;     ///< kNoLevel if unreached
    AlignedVector<graph::VertexId> parent;  ///< kNoVertex if unreached
    std::uint64_t reached = 0;              ///< vertices visited
    bool found_target = false;
    rt::RunInfo run;
};

/** Shared BFS state. */
template <class Ctx>
struct BfsState {
    BfsState(const graph::Graph& graph, graph::VertexId source,
             graph::VertexId target_in, int nthreads,
             rt::FrontierMode mode, rt::ActiveTracker* tracker_in)
        : g(graph), level(graph.numVertices(), kNoLevel),
          parent(graph.numVertices(), graph::kNoVertex),
          frontier(graph.numVertices(), graph.numEdges(), nthreads,
                   mode),
          target(target_in), tracker(tracker_in)
    {
        CRONO_REQUIRE(source < graph.numVertices(), "bad BFS source");
        level[source] = 0;
        parent[source] = source;
        frontier.seed(source);
        trackAdd(tracker, 1);
    }

    const graph::Graph& g;
    AlignedVector<std::uint32_t> level;
    AlignedVector<graph::VertexId> parent;
    rt::FrontierEngine frontier;
    Padded<std::uint64_t> reached;
    Padded<std::uint32_t> found;
    graph::VertexId target;
    rt::ActiveTracker* tracker;
};

/**
 * Kernel body; all threads execute this with the shared state.
 *
 * "Found" means the target was *consumed* from a front (push: its
 * expansion ran; pull: it was a member of the round's front), so the
 * stop round is the same in every mode and the level/parent arrays
 * always hold the completed rounds' full discoveries.
 */
template <class Ctx>
void
bfsKernel(Ctx& ctx, BfsState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());

    std::uint64_t front = s.frontier.initialFrontSize();
    std::uint64_t local_reached = 0;
    for (std::uint32_t depth = 0; front != 0; ++depth) {
        const rt::RoundPlan plan =
            s.frontier.planRound(front, /*allow_pull=*/true);
        if (plan == rt::RoundPlan::kPull) {
            if (ctx.tid() == 0) {
                // The whole front is consumed this round; account it
                // here since no per-vertex push expansion runs.
                local_reached += front;
                trackAdd(s.tracker,
                         -static_cast<std::int64_t>(front));
                if (s.target < s.g.numVertices() &&
                    s.frontier.inCurrent(ctx, depth, s.target)) {
                    ctx.write(s.found.value, 1u);
                }
            }
            rt::par::edgeMapPull(
                ctx, csr, s.frontier, depth,
                [&](graph::VertexId v) {
                    return ctx.read(s.level[v]) == kNoLevel;
                },
                [&](graph::VertexId v, graph::VertexId u,
                    graph::EdgeId) {
                    // First in-front neighbor wins (deterministic:
                    // CSR order). v is owner-exclusive, no claim RMW.
                    ctx.write(s.level[v], depth + 1);
                    ctx.write(s.parent[v], u);
                    s.frontier.activate(ctx, depth, v);
                    trackAdd(s.tracker, 1);
                    return true; // stop scanning v
                },
                [](graph::VertexId) {});
        } else {
            rt::par::edgeMapPush(
                ctx, csr, s.frontier, depth,
                plan == rt::RoundPlan::kDensePush,
                [&](graph::VertexId u) {
                    ++local_reached;
                    trackAdd(s.tracker, -1);
                    if (u == s.target) {
                        ctx.write(s.found.value, 1u);
                    }
                    return true;
                },
                [&](graph::VertexId u, graph::VertexId v,
                    graph::EdgeId) {
                    ctx.work(1);
                    // Declared-racy probe: v's level may be written by
                    // a concurrent claim winner. A stale kNoLevel only
                    // costs a losing activateClaim RMW; levels are
                    // written once, so a stale non-kNoLevel cannot
                    // happen (set-once, same round claims arbitrate).
                    if (ctx.readAtomic(s.level[v]) != kNoLevel) {
                        return; // visited in an earlier level
                    }
                    if (s.frontier.activateClaim(ctx, depth, v)) {
                        ctx.write(s.level[v], depth + 1);
                        ctx.write(s.parent[v], u);
                        trackAdd(s.tracker, 1);
                    }
                });
        }
        bool stop = false;
        front = s.frontier.advance(ctx, depth, [&] {
            // Between the barriers the round is quiesced, so every
            // thread snapshots the same value and breaks together.
            stop = ctx.read(s.found.value) != 0;
            if (plan == rt::RoundPlan::kPull) {
                // Pull rounds never consume their flags; wipe this
                // thread's block before the parity is reused.
                s.frontier.clearCurrentBlock(ctx, depth);
            }
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

/**
 * Run BFS from @p source. Pass @p target = graph::kNoVertex to
 * traverse the full component.
 *
 * @param mode frontier representation; kFlagScan (default) is the
 *             paper's structure, kSparse/kAdaptive run on the
 *             rt::FrontierEngine work lists, with kAdaptive also
 *             taking heavy rounds pull-side (direction optimization)
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
    BfsState<Ctx> state(g, source, target, nthreads, mode, tracker);
    rt::RunInfo info = exec.parallel(
        nthreads, [&state](Ctx& ctx) { bfsKernel(ctx, state); });
    if (mode != rt::FrontierMode::kFlagScan) {
        state.frontier.applyRoundStats(info);
    }
    return BfsResult{std::move(state.level), std::move(state.parent),
                     state.reached.value, state.found.value != 0,
                     std::move(info)};
}

} // namespace crono::core

#endif // CRONO_CORE_BFS_H_
