/**
 * @file
 * Connected Components (Section III-7).
 *
 * The paper's parallelization (kFlagScan): graph division with
 * barriered phases. Labels are initialized to vertex ids, then
 * iteratively lowered to the minimum label among each vertex's
 * neighborhood under per-vertex locks until a round makes no change;
 * vertices sharing a final label form one component. The init /
 * propagate / converge phases separated by barriers produce the
 * sinusoidal active-vertex pattern of Figure 2.
 *
 * Two kernels, selected by FrontierMode:
 *
 *  - kFlagScan (the paper's): label propagation in which every round
 *    is a full pull-style rescan (par::edgeMapPullAll) — each vertex
 *    folds the minimum label over its whole neighborhood, improving
 *    itself under its lock. O(E) per round and O(diameter) rounds,
 *    which is the structure the simulator figures measure.
 *  - every other mode (kSparse, kAdaptive): one work-efficient
 *    hook-and-compress kernel, Afforest (Sutton et al., IPDPS 2018;
 *    the GAP suite's reference CC). Labels are parent pointers. Two
 *    sampling rounds each link every vertex with one neighbor (a
 *    CAS hooks the higher root under the lower) and then compress
 *    the trees; thread 0 samples the most frequent root; every
 *    vertex outside that component links its remaining neighbors;
 *    a final compress flattens every tree. The frequent-label skip
 *    is sound only when every edge is listed at both endpoints, so
 *    this kernel needs an undirected graph.
 *
 * Both converge to the same labels: the minimum member id of each
 * component (flag-scan by construction; hook-and-compress because
 * every hook lowers a label, so comp[x] <= x and a root is its
 * tree's minimum).
 */

#ifndef CRONO_CORE_CONNECTED_COMPONENTS_H_
#define CRONO_CORE_CONNECTED_COMPONENTS_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/context.h"
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "runtime/par.h"
#include "runtime/partition.h"
#include "runtime/strategies.h"

namespace crono::core {

/** Component labeling: label[v] is the smallest vertex id reachable. */
struct ConnectedComponentsResult {
    AlignedVector<graph::VertexId> label;
    std::uint64_t num_components = 0;
    std::uint64_t rounds = 0;
    rt::RunInfo run;
};

template <class Ctx>
struct ConnectedComponentsState {
    ConnectedComponentsState(const graph::Graph& graph,
                             rt::ActiveTracker* tracker_in)
        : g(graph), label(graph.numVertices(), 0),
          locks(graph.numVertices()), tracker(tracker_in)
    {
    }

    const graph::Graph& g;
    AlignedVector<graph::VertexId> label;
    /** Changed-counters indexed by round parity (see kernel). */
    Padded<std::uint64_t> changed[2];
    Padded<std::uint64_t> rounds;
    LockStripe<Ctx> locks;
    rt::ActiveTracker* tracker;
};

template <class Ctx>
void
connectedComponentsKernel(Ctx& ctx, ConnectedComponentsState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
    std::uint64_t relaxations = 0;

    // Phase 1: initialize labels (each vertex its own region label).
    rt::par::vertexMap(ctx, s.g.numVertices(), [&](std::uint64_t v) {
        ctx.write(s.label[v], static_cast<graph::VertexId>(v));
    });
    ctx.barrier();

    // Phase 2: iterate min-label propagation to a fixpoint. The two
    // parity-indexed counters make the convergence test race-free
    // with only two barriers per round: while round r's counter is
    // being read, round r+1's counter (already zeroed during round
    // r-1) is untouched.
    std::int64_t last_active = 0;
    for (std::uint64_t round = 0;; ++round) {
        const std::uint64_t round_begin =
            track != nullptr ? ctx.timestamp() : 0;
        Padded<std::uint64_t>& counter = s.changed[round % 2];
        std::uint64_t local_changes = 0;
        graph::VertexId lv = 0;
        graph::VertexId best = 0;
        rt::par::edgeMapPullAll(
            ctx, csr,
            [&](graph::VertexId v) {
                lv = ctx.read(s.label[v]);
                best = lv;
                return true;
            },
            [&](graph::VertexId, graph::VertexId u, graph::EdgeId) {
                // Declared-racy probe: u's owner may lower label[u]
                // under u's lock mid-fold. Labels only decrease and
                // every observed value is a valid member id of u's
                // component, so a stale (higher) read at worst defers
                // the improvement to the next rescan round.
                const graph::VertexId lu = ctx.readAtomic(s.label[u]);
                if (lu < best) {
                    best = lu;
                }
                return false; // full neighborhood fold, no early exit
            },
            [&](graph::VertexId v) {
                if (best < lv) {
                    ScopedLock<Ctx> guard(ctx, s.locks.of(v));
                    if (best < ctx.read(s.label[v])) {
                        ctx.write(s.label[v], best);
                        ++local_changes;
                        ++relaxations;
                    }
                }
            });
        if (track != nullptr) {
            obs::spanRecord(
                track, {round_begin, ctx.timestamp(), "round-scan",
                        round, obs::SpanCat::kRound});
        }
        if (local_changes > 0) {
            ctx.fetchAdd(counter.value, local_changes);
        }
        ctx.barrier();
        const std::uint64_t total = ctx.read(counter.value);
        if (ctx.tid() == 0) {
            ctx.write(s.changed[(round + 1) % 2].value, std::uint64_t{0});
            ctx.write(s.rounds.value, round + 1);
            trackAdd(s.tracker,
                     static_cast<std::int64_t>(total) - last_active);
            last_active = static_cast<std::int64_t>(total);
        }
        ctx.barrier();
        if (total == 0) {
            break;
        }
    }
    if (track != nullptr) {
        obs::counterBump(track, obs::Counter::kRelaxations, relaxations);
    }
}

/** Neighbor-sampling rounds before the frequent-label skip (GAP's 2). */
inline constexpr unsigned kHookSampleRounds = 2;

/** Vertices sampled to estimate the most frequent label. */
inline constexpr unsigned kHookSamples = 1024;

/** Hook-and-compress (Afforest) state: one parent pointer per vertex. */
template <class Ctx>
struct ConnectedComponentsHookState {
    ConnectedComponentsHookState(const graph::Graph& graph,
                                 rt::ActiveTracker* tracker_in)
        : g(graph), comp(graph.numVertices(), 0), tracker(tracker_in)
    {
    }

    const graph::Graph& g;
    /** Parent pointers; comp[v] <= v always, roots point at themselves. */
    AlignedVector<graph::VertexId> comp;
    /** The sampled most frequent root, published by thread 0. */
    Padded<graph::VertexId> frequent;
    rt::ActiveTracker* tracker;
};

namespace detail {

/**
 * Afforest's link (GAP's Link): join the trees of u and v by hooking
 * the higher root under the lower one. The probes are declared-racy:
 * other threads hook concurrently, and a stale value only costs
 * another trip round the loop, because a hook happens only through
 * the CAS, and only on a word that still holds its own id (a root).
 * Every hook lowers a label, so comp[x] <= x holds throughout.
 *
 * @return true if this call hooked a root
 */
template <class Ctx>
bool
hookLink(Ctx& ctx, graph::VertexId* comp, graph::VertexId u,
         graph::VertexId v)
{
    graph::VertexId p1 = ctx.readAtomic(comp[u]);
    graph::VertexId p2 = ctx.readAtomic(comp[v]);
    while (p1 != p2) {
        const graph::VertexId high = std::max(p1, p2);
        const graph::VertexId low = std::min(p1, p2);
        const graph::VertexId p_high = ctx.readAtomic(comp[high]);
        if (p_high == low) {
            return false;
        }
        if (p_high == high && ctx.compareExchange(comp[high], high, low)) {
            return true;
        }
        p1 = ctx.readAtomic(comp[p_high]);
        p2 = ctx.readAtomic(comp[low]);
    }
    return false;
}

/**
 * Point every vertex of @p own straight at its root. Only the owner
 * writes comp[v]; the walk's probes are declared-racy because other
 * owners shorten their own pointers meanwhile, and with no hooks
 * running a word that holds its own id is a root for good.
 */
template <class Ctx>
void
compress(Ctx& ctx, graph::VertexId* comp, rt::Range own)
{
    for (std::uint64_t vi = own.begin; vi < own.end; ++vi) {
        const graph::VertexId parent = ctx.read(comp[vi]);
        graph::VertexId root = parent;
        for (graph::VertexId up = ctx.readAtomic(comp[root]); up != root;
             up = ctx.readAtomic(comp[root])) {
            root = up;
        }
        if (root != parent) {
            ctx.write(comp[vi], root);
        }
    }
}

/**
 * The most frequent label among kHookSamples fixed-seed samples of
 * @p comp (ties go to the smaller label). Deterministic for a given
 * labeling, so a rerun skips the same component.
 */
template <class Ctx>
graph::VertexId
frequentLabel(Ctx& ctx, const graph::VertexId* comp, graph::VertexId n)
{
    std::vector<graph::VertexId> sample(kHookSamples);
    Rng rng(0x5eed);
    for (graph::VertexId& label : sample) {
        label = ctx.read(comp[rng.nextBelow(n)]);
    }
    std::sort(sample.begin(), sample.end());
    ctx.work(kHookSamples);
    graph::VertexId best = sample[0];
    std::ptrdiff_t best_run = 0;
    for (auto run = sample.begin(); run != sample.end();) {
        const auto run_end = std::upper_bound(run, sample.end(), *run);
        if (run_end - run > best_run) {
            best = *run;
            best_run = run_end - run;
        }
        run = run_end;
    }
    return best;
}

} // namespace detail

/**
 * Hook-and-compress kernel body (Afforest; see the file header).
 * Needs an undirected CSR: the frequent-label skip relies on every
 * edge leaving the skipped component also being listed at its other
 * endpoint.
 */
template <class Ctx>
void
connectedComponentsHookKernel(Ctx& ctx, ConnectedComponentsHookState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);
    const graph::VertexId n = s.g.numVertices();
    graph::VertexId* const comp = s.comp.data();
    // Vertex blocks, not degreeBalancedRange: sampling links one edge
    // per vertex, and the finishing pass skips most of the edges (the
    // frequent component's), so the work is per vertex.
    const rt::Range own = rt::blockPartition(n, ctx.tid(), ctx.nthreads());
    const auto owned = static_cast<std::int64_t>(own.end - own.begin);

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
    std::uint64_t hooks = 0;

    for (std::uint64_t v = own.begin; v < own.end; ++v) {
        ctx.write(comp[v], static_cast<graph::VertexId>(v));
    }
    ctx.barrier();

    // Sampling: link each vertex with its r-th neighbor only, then
    // compress. Two rounds already merge most of a large component.
    for (unsigned r = 0; r < kHookSampleRounds; ++r) {
        const std::uint64_t begin = track != nullptr ? ctx.timestamp() : 0;
        trackAdd(s.tracker, owned);
        for (std::uint64_t v = own.begin; v < own.end; ++v) {
            const graph::EdgeId e = ctx.read(csr.offsets[v]) + r;
            if (e < ctx.read(csr.offsets[v + 1]) &&
                detail::hookLink(ctx, comp,
                                 static_cast<graph::VertexId>(v),
                                 ctx.read(csr.neighbors[e]))) {
                ++hooks;
            }
        }
        trackAdd(s.tracker, -owned);
        ctx.barrier();
        detail::compress(ctx, comp, own);
        ctx.barrier();
        if (track != nullptr) {
            obs::spanRecord(track, {begin, ctx.timestamp(), "link-sample",
                                    r, obs::SpanCat::kRound});
        }
    }

    if (ctx.tid() == 0 && n != 0) {
        ctx.write(s.frequent.value, detail::frequentLabel(ctx, comp, n));
    }
    ctx.barrier();
    const graph::VertexId frequent = ctx.read(s.frequent.value);

    // Finish: every vertex outside the frequent component links its
    // remaining neighbors. An edge from inside it is linked from its
    // other endpoint, which is why the graph must be undirected.
    const std::uint64_t begin = track != nullptr ? ctx.timestamp() : 0;
    trackAdd(s.tracker, owned);
    for (std::uint64_t v = own.begin; v < own.end; ++v) {
        if (ctx.readAtomic(comp[v]) == frequent) {
            continue;
        }
        const graph::EdgeId beg = ctx.read(csr.offsets[v]);
        const graph::EdgeId end = ctx.read(csr.offsets[v + 1]);
        for (graph::EdgeId e = beg + kHookSampleRounds; e < end; ++e) {
            if (detail::hookLink(ctx, comp,
                                 static_cast<graph::VertexId>(v),
                                 ctx.read(csr.neighbors[e]))) {
                ++hooks;
            }
        }
    }
    trackAdd(s.tracker, -owned);
    ctx.barrier();
    detail::compress(ctx, comp, own);
    if (track != nullptr) {
        obs::spanRecord(track, {begin, ctx.timestamp(), "link-rest",
                                kHookSampleRounds, obs::SpanCat::kRound});
        obs::counterBump(track, obs::Counter::kRelaxations, hooks);
    }
}

/**
 * Run connected components; also reports the component count.
 *
 * @param mode kFlagScan (default) is the paper's pull-based
 *             full-rescan label propagation; every other mode runs the
 *             hook-and-compress kernel, which needs g.undirected()
 */
template <class Exec>
ConnectedComponentsResult
connectedComponents(Exec& exec, int nthreads, const graph::Graph& g,
                    rt::ActiveTracker* tracker = nullptr,
                    rt::FrontierMode mode = rt::FrontierMode::kFlagScan)
{
    using Ctx = typename Exec::Ctx;
    obs::ScopedHostSpan kernel_span("CONN_COMP", g.numVertices());
    ConnectedComponentsResult result;
    rt::RunInfo info;
    AlignedVector<graph::VertexId> label;
    std::uint64_t rounds = 0;
    if (mode == rt::FrontierMode::kFlagScan) {
        ConnectedComponentsState<Ctx> state(g, tracker);
        info = exec.parallel(nthreads, [&state](Ctx& ctx) {
            connectedComponentsKernel(ctx, state);
        });
        label = std::move(state.label);
        rounds = state.rounds.value;
    } else {
        CRONO_ASSERT(g.undirected(),
                     "hook-and-compress CC needs an undirected graph");
        ConnectedComponentsHookState<Ctx> state(g, tracker);
        info = exec.parallel(nthreads, [&state](Ctx& ctx) {
            connectedComponentsHookKernel(ctx, state);
        });
        label = std::move(state.comp);
        rounds = kHookSampleRounds + 1;
    }
    result.num_components = 0;
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        if (label[v] == v) {
            ++result.num_components;
        }
    }
    result.label = std::move(label);
    result.rounds = rounds;
    result.run = std::move(info);
    return result;
}

} // namespace crono::core

#endif // CRONO_CORE_CONNECTED_COMPONENTS_H_
