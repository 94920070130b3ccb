/**
 * @file
 * Bucketed delta-stepping SSSP (Meyer & Sanders), the GAP Benchmark
 * Suite's reference shortest-path algorithm, as a first-class variant
 * of CRONO's SSSP_DIJK kernel.
 *
 * Where the work-list kernel (sssp.h) *paces* a label-correcting
 * frontier — round r expands only vertices within (r+1)*delta and
 * re-queues the rest, an O(rounds-behind) deferral per far vertex —
 * delta-stepping *places* each relaxed vertex directly into the bucket
 * of its tentative distance: bucket b holds vertices with dist in
 * [b*delta, (b+1)*delta). Placement is O(1) and a vertex is expanded
 * only when its bucket becomes the globally smallest, so the
 * re-expansion factor drops to the in-bucket churn alone. The pacing
 * divisor of the work-list kernel (kSsspDeltaDivisor) is one point in
 * this design space: pacing approximates buckets on the round
 * structure; this kernel materializes them.
 *
 * Parallel structure per bucket step (GAP's sssp.cc), two barriers:
 *  1. rendezvous — every thread writes the smallest non-empty bucket
 *     of its private bins to its min_bin slot; after barrier 1 all
 *     threads read the same global minimum `curr`, and thread 0
 *     resets the publish cursor the previous step consumed;
 *  2. publish — each thread appends its bins[curr] to a shared
 *     frontier array through the step's fetchAdd cursor (the same
 *     claim-and-fill idiom as rt::FrontierEngine's sparse queues),
 *     then barrier 2;
 *  3. process — the frontier is block-partitioned; each entry whose
 *     vertex still holds the entry's distance relaxes all its edges in
 *     the plain CSR. A relaxation is a compare-and-swap min loop on
 *     dist, and the winner appends (target, distance) to its own
 *     bins[cand/delta]. An entry whose vertex was lowered since is
 *     superseded by the newer entry and skipped, so each (vertex,
 *     distance) pair is expanded once. No lock is taken, and there is
 *     no separate heavy-edge phase.
 * Nothing writes a parent while the buckets drain. After the last
 * bucket, one edge-balanced pass derives the parents from the final
 * distances: every edge (u, v, w) with w > 0 and dist[u] + w ==
 * dist[v] offers u to parent[v] by compareExchange. It pushes over
 * out-edges, so it also works on a directed CSR. Vertices whose tight
 * in-edges all weigh 0 get their parents from a serial BFS over
 * tight zero-weight edges, seeded by the vertices already parented.
 * Positive tight edges strictly raise dist, and the BFS parents each
 * vertex from one parented earlier, so the parent graph stays acyclic.
 *
 * One thread runs deltaSteppingSerial instead: narrow Dial-like
 * buckets drained in place, with the heavy edges (weight > delta) of
 * each settled vertex relaxed once when its bucket closes. The
 * light/heavy EdgeSplit serves only that path.
 *
 * Like every kernel, the body is a template over the ExecutionContext
 * and runs identically on native threads and the simulator; all
 * shared accesses flow through ctx.*, with the intentionally racy
 * monotone-filter probes on dist declared via readAtomic.
 */

#ifndef CRONO_CORE_DELTA_STEPPING_H_
#define CRONO_CORE_DELTA_STEPPING_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "core/context.h"
#include "core/sssp.h"
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "runtime/par.h"

namespace crono::core {

/** Which SSSP algorithm a harness dispatches to. */
enum class SsspAlgo : int {
    kWorkList = 0,  ///< label-correcting frontier kernel (sssp.h)
    kDeltaStep,     ///< bucketed delta-stepping (this file)
};

/** Printable algorithm name, e.g. "delta". */
const char* ssspAlgoName(SsspAlgo algo);

/**
 * Light/heavy CSR split at delta: two degree-offset arrays over the
 * same vertex set, light edges (weight <= delta) separated from heavy
 * (weight > delta). Built host-side once per run.
 */
struct EdgeSplit {
    graph::Dist delta = 0;  ///< the width this split was built at
    AlignedVector<graph::EdgeId> light_offsets;   ///< numVertices + 1
    AlignedVector<graph::EdgeId> heavy_offsets;   ///< numVertices + 1
    AlignedVector<graph::VertexId> light_targets;
    AlignedVector<graph::Weight> light_weights;
    AlignedVector<graph::VertexId> heavy_targets;
    AlignedVector<graph::Weight> heavy_weights;
};

/**
 * Split @p g's edges at @p delta (two counting passes, O(V + E)).
 * The split depends only on (graph, delta), so callers running many
 * sources on one graph — bench_gap's 64 GAP trials — build it once
 * and pass it to deltaSteppingSssp, the same way GAP builds the
 * transpose outside its trial loop.
 */
EdgeSplit splitEdgesAtDelta(const graph::Graph& g, graph::Dist delta);

/**
 * Bucket width heuristic. The width trades in-bucket re-relaxation
 * churn (wide buckets) against bucket-switch overhead and exposed
 * parallelism (narrow buckets), so the sweet spot depends on the
 * thread count:
 *
 *  - at one thread (the GAP baseline-normalized configuration) there
 *    is no parallelism to feed; narrow Dial-like buckets of
 *    ~avg_weight/16 minimize churn and measure fastest across road
 *    and Kronecker inputs;
 *  - with parallel workers a bucket must carry a frontier's worth of
 *    vertices, so the width follows Meyer & Sanders'
 *    Theta(max_weight / degree) guidance: 2 * avg_weight / avg_degree.
 *    Road networks (heavy weights, degree ~2.6) get a wide bucket
 *    near the average weight; power-law graphs a narrow one.
 */
graph::Dist autoDelta(const graph::Graph& g, int nthreads = 1);

/** Sentinel for "no non-empty bucket". */
inline constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

/** Shared state of one delta-stepping run. */
template <class Ctx>
struct DeltaSsspState {
    DeltaSsspState(const graph::Graph& graph, graph::VertexId source_in,
                   int nthreads, graph::Dist delta_in,
                   rt::ActiveTracker* tracker_in,
                   const EdgeSplit* split_in = nullptr)
        : g(graph), source(source_in),
          dist(graph.numVertices(), graph::kInfDist),
          parent(graph.numVertices(), graph::kNoVertex),
          delta(delta_in == 0 ? autoDelta(graph, nthreads) : delta_in),
          owned_split(nthreads == 1 && split_in == nullptr
                          ? splitEdgesAtDelta(graph, delta)
                          : EdgeSplit{}),
          split(split_in == nullptr ? owned_split : *split_in),
          frontier_capacity(nthreads == 1
                                ? 0
                                : graph.numEdges() +
                                      static_cast<std::size_t>(nthreads) + 1),
          frontier(std::make_unique_for_overwrite<Entry[]>(frontier_capacity)),
          min_bin(static_cast<std::size_t>(nthreads)),
          lanes(static_cast<std::size_t>(nthreads)), tracker(tracker_in)
    {
        CRONO_REQUIRE(source < graph.numVertices(), "bad SSSP source");
        CRONO_REQUIRE(split_in == nullptr || split_in->delta == delta,
                      "precomputed split width must match delta");
        dist[source] = 0;
        parent[source] = source;
        trackAdd(tracker, 1);
    }

    /** A parallel-path bucket entry: vertex v and the distance whose
     *  relaxation queued it. Trivial, so the frontier can be allocated
     *  without zero-filling it. */
    struct Entry {
        graph::VertexId v;
        graph::Dist dist;
    };

    /** Owner-private per-thread state of the parallel path (unmodeled,
     *  like FrontierEngine fill cursors). */
    struct Lane {
        /** Distance-indexed bins: bins[b] holds this thread's entries
         *  for bucket b. */
        std::vector<std::vector<Entry>> bins;
        /** Bins below this index are known empty (buckets never
         *  repopulate below the global minimum). */
        std::size_t first_maybe = 0;
        /** Reached vertices with a tight zero-weight out-edge, found
         *  by the parent pass: the zero-weight BFS's candidate seeds. */
        std::vector<graph::VertexId> zero_tight;
    };

    const graph::Graph& g;
    graph::VertexId source;
    AlignedVector<graph::Dist> dist;
    AlignedVector<graph::VertexId> parent;
    graph::Dist delta;
    /** Holds the split when the serial path needs one and none was
     *  passed in; empty otherwise. */
    EdgeSplit owned_split;
    /** Light/heavy split; read only by the one-thread serial path. */
    const EdgeSplit& split;
    /** Shared publish buffer; every entry descends from a successful
     *  relaxation, so numEdges is a practical capacity bound (GAP
     *  sizes its frontier identically). Empty at one thread — the
     *  serial loop processes bins in place. Left uninitialized: a step
     *  reads only the slots its publish phase wrote, so only those
     *  pages are ever touched. */
    std::size_t frontier_capacity;
    std::unique_ptr<Entry[]> frontier;
    /** Parity-indexed publish cursors: step s fills cursor[s & 1]
     *  while thread 0 resets the one step s - 1 consumed, so no reset
     *  races a claim (same trick as FrontierEngine's parity flags). */
    Padded<std::uint64_t> cursor[2];
    /** Rendezvous slots: thread t's smallest non-empty bucket. A slot
     *  is rewritten only after barrier 2 of the step that read it, so
     *  it needs no parity. */
    std::vector<Padded<std::uint64_t>> min_bin;
    std::vector<Padded<Lane>> lanes;
    Padded<std::uint64_t> rounds;  ///< bucket steps executed
    rt::ActiveTracker* tracker;
};

/**
 * Single-thread specialization: with one worker the rendezvous slots,
 * publish cursors, shared frontier and compare-and-swap are pure
 * overhead, so the kernel degenerates to the textbook serial
 * delta-stepping loop — drain bucket `curr` in place (in-bucket
 * re-insertions just extend the drain), then flush the heavy edges of
 * the settled set once. This is the configuration GAP's
 * baseline-normalized speedups are measured in, so the serial path
 * carries no parallelization tax.
 */
template <class Ctx>
void
deltaSteppingSerial(Ctx& ctx, DeltaSsspState<Ctx>& s)
{
    const graph::Dist delta = s.delta;
    const EdgeSplit& split = s.split;
    std::vector<std::vector<graph::VertexId>> bins(1);
    bins[0].push_back(s.source);
    std::size_t first_maybe = 0; // bins below it are known empty

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
    std::uint64_t relaxations = 0;
    std::uint64_t expansions = 0;
    std::uint64_t heavy_tried = 0;
    std::uint64_t stale = 0;
    std::uint64_t steps = 0;

    const auto relax = [&](graph::VertexId u, graph::Dist du,
                           graph::VertexId v, graph::Weight w) {
        const graph::Dist cand = du + w;
        ctx.work(2); // index arithmetic + compare
        if (cand < ctx.read(s.dist[v])) {
            ctx.write(s.dist[v], cand);
            ctx.write(s.parent[v], u);
            ++relaxations;
            const std::uint64_t b = cand / delta;
            if (b >= bins.size()) {
                bins.resize(b + 1);
            }
            bins[b].push_back(v);
            if (b < first_maybe) {
                first_maybe = b;
            }
            trackAdd(s.tracker, 1);
        }
    };

    std::vector<graph::VertexId> work;
    std::vector<graph::VertexId> settled;
    for (;;) {
        std::uint64_t curr = kNoBucket;
        for (std::size_t b = first_maybe; b < bins.size(); ++b) {
            if (!bins[b].empty()) {
                curr = b;
                break;
            }
        }
        first_maybe = curr == kNoBucket ? bins.size() : curr;
        if (curr == kNoBucket) {
            break;
        }

        const graph::Dist lo = static_cast<graph::Dist>(curr) * delta;
        while (curr < bins.size() && !bins[curr].empty()) {
            work.swap(bins[curr]);
            for (const graph::VertexId u : work) {
                trackAdd(s.tracker, -1);
                ctx.work(1); // bucket-range filter
                const graph::Dist du = ctx.read(s.dist[u]);
                if (du < lo) {
                    ++stale; // superseded by a copy in an earlier bucket
                    continue;
                }
                ++expansions;
                const graph::EdgeId light_end =
                    split.light_offsets[static_cast<std::size_t>(u) + 1];
                for (graph::EdgeId e = split.light_offsets[u];
                     e < light_end; ++e) {
                    relax(u, du, ctx.read(split.light_targets[e]),
                          ctx.read(split.light_weights[e]));
                }
                settled.push_back(u);
            }
            work.clear();
        }
        for (const graph::VertexId u : settled) {
            const graph::Dist du = ctx.read(s.dist[u]);
            const graph::EdgeId end =
                split.heavy_offsets[static_cast<std::size_t>(u) + 1];
            for (graph::EdgeId e = split.heavy_offsets[u]; e < end; ++e) {
                ++heavy_tried;
                relax(u, du, ctx.read(split.heavy_targets[e]),
                      ctx.read(split.heavy_weights[e]));
            }
        }
        settled.clear();
        ++steps;
    }

    ctx.write(s.rounds.value, steps);
    if (track != nullptr) {
        obs::counterBump(track, obs::Counter::kRelaxations, relaxations);
        obs::counterBump(track, obs::Counter::kExpansions, expansions);
        obs::counterBump(track, obs::Counter::kActivations, relaxations);
        obs::counterBump(track, obs::Counter::kHeavyRelaxations,
                         heavy_tried);
        obs::counterBump(track, obs::Counter::kStaleSkips, stale);
        obs::counterBump(track, obs::Counter::kBucketSteps, steps);
    }
}

/**
 * Parents of the vertices whose tight in-edges all weigh 0, which the
 * parent pass leaves unset: a BFS over tight zero-weight edges, seeded
 * by the parented vertices among the lanes' zero_tight lists. Each
 * vertex is parented from one parented before it, so no cycle forms.
 * Runs on one thread after the parent pass's barrier.
 */
template <class Ctx>
void
parentsOverZeroEdges(Ctx& ctx, DeltaSsspState<Ctx>& s,
                     const rt::par::Csr& csr)
{
    std::vector<graph::VertexId> queue;
    for (const Padded<typename DeltaSsspState<Ctx>::Lane>& lane :
         s.lanes) {
        for (const graph::VertexId u : lane.value.zero_tight) {
            if (ctx.read(s.parent[u]) != graph::kNoVertex) {
                queue.push_back(u);
            }
        }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const graph::VertexId u = queue[head];
        const graph::Dist du = ctx.read(s.dist[u]);
        const graph::EdgeId end = ctx.read(csr.offsets[u + 1]);
        for (graph::EdgeId e = ctx.read(csr.offsets[u]); e < end; ++e) {
            const graph::VertexId v = ctx.read(csr.neighbors[e]);
            ctx.work(2);
            if (ctx.read(csr.weights[e]) == 0 &&
                ctx.read(s.dist[v]) == du &&
                ctx.read(s.parent[v]) == graph::kNoVertex) {
                ctx.write(s.parent[v], u);
                queue.push_back(v);
            }
        }
    }
}

/** Kernel body; all threads execute this with the shared state. */
template <class Ctx>
void
deltaSteppingKernel(Ctx& ctx, DeltaSsspState<Ctx>& s)
{
    if (ctx.nthreads() == 1) {
        deltaSteppingSerial(ctx, s);
        // crono-lint: allow(barrier-divergence): uniform early-out — nthreads() is the same on every thread, and with one thread there is no peer to desynchronize from
        return;
    }
    const int tid = ctx.tid();
    const int nthreads = ctx.nthreads();
    typename DeltaSsspState<Ctx>::Lane& lane = s.lanes[tid].value;
    const graph::Dist delta = s.delta;
    const rt::par::Csr csr = rt::par::csrOf(s.g);

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
    std::uint64_t relaxations = 0;
    std::uint64_t expansions = 0;
    std::uint64_t stale = 0;
    std::uint64_t steps = 0;

    const auto myMinBin = [&lane]() -> std::uint64_t {
        for (std::size_t b = lane.first_maybe; b < lane.bins.size(); ++b) {
            if (!lane.bins[b].empty()) {
                lane.first_maybe = b;
                return b;
            }
        }
        lane.first_maybe = lane.bins.size();
        return kNoBucket;
    };

    if (tid == 0) {
        lane.bins.resize(1);
        lane.bins[0].push_back({s.source, 0});
    }
    const auto relax = [&](graph::Dist du, graph::VertexId v,
                           graph::Weight w) {
        const graph::Dist cand = du + w;
        ctx.work(2); // index arithmetic + compare
        // Declared-racy probe: other threads lower dist[v] meanwhile.
        // dist only decreases, so a stale value costs at most a failed
        // compareExchange; the compareExchange decides.
        graph::Dist old = ctx.readAtomic(s.dist[v]);
        while (cand < old) {
            if (ctx.compareExchange(s.dist[v], old, cand)) {
                ++relaxations;
                // O(1) bucket placement into the winner's own bins.
                const std::uint64_t b = cand / delta;
                if (b >= lane.bins.size()) {
                    lane.bins.resize(b + 1);
                }
                lane.bins[b].push_back({v, cand});
                if (b < lane.first_maybe) {
                    lane.first_maybe = b;
                }
                trackAdd(s.tracker, 1);
                return;
            }
            // Declared-racy re-probe: a concurrent relaxation won the
            // word since the last probe; retry against its value.
            old = ctx.readAtomic(s.dist[v]);
        }
    };

    for (;;) {
        // Rendezvous: agree on the globally smallest non-empty bucket.
        ctx.write(s.min_bin[tid].value, myMinBin());
        ctx.barrier();
        std::uint64_t curr = kNoBucket;
        for (int t = 0; t < nthreads; ++t) {
            curr = std::min(curr, ctx.read(s.min_bin[t].value));
        }
        if (curr == kNoBucket) {
            break;
        }

        // Publish: every thread read the previous step's cursor before
        // barrier 1, so thread 0 can reset it for the next step.
        const std::size_t parity = static_cast<std::size_t>(steps & 1);
        if (tid == 0) {
            ctx.write(s.cursor[parity ^ 1].value, std::uint64_t{0});
        }
        if (curr < lane.bins.size() && !lane.bins[curr].empty()) {
            std::vector<typename DeltaSsspState<Ctx>::Entry>& bin =
                lane.bins[curr];
            const std::uint64_t base = ctx.fetchAdd(
                s.cursor[parity].value,
                static_cast<std::uint64_t>(bin.size()));
            CRONO_ASSERT(base + bin.size() <= s.frontier_capacity,
                         "delta-stepping frontier overflow");
            for (std::size_t i = 0; i < bin.size(); ++i) {
                ctx.write(s.frontier[base + i], bin[i]);
            }
            bin.clear();
        }
        ctx.barrier();

        // Process bucket curr.
        const rt::Range mine = rt::blockPartition(
            ctx.read(s.cursor[parity].value), tid, nthreads);
        for (std::uint64_t i = mine.begin; i < mine.end; ++i) {
            const typename DeltaSsspState<Ctx>::Entry entry =
                ctx.read(s.frontier[i]);
            const graph::VertexId u = entry.v;
            trackAdd(s.tracker, -1);
            ctx.work(1); // superseded-entry filter
            // Declared-racy probe: a concurrent relaxation may lower
            // dist[u] meanwhile; it then queues u again with the lower
            // value. An entry whose distance dist[u] no longer holds
            // was superseded that way, and the newer entry expands u,
            // so each (vertex, distance) pair is expanded once.
            const graph::Dist du = ctx.readAtomic(s.dist[u]);
            if (du != entry.dist) {
                ++stale;
                continue;
            }
            ++expansions;
            const graph::EdgeId end = ctx.read(csr.offsets[u + 1]);
            for (graph::EdgeId e = ctx.read(csr.offsets[u]); e < end;
                 ++e) {
                relax(du, ctx.read(csr.neighbors[e]),
                      ctx.read(csr.weights[e]));
            }
        }
        ++steps;
    }

    // Parents from the final distances (the last barrier 1 ordered
    // every relaxation before these reads). Edge-balanced, because
    // degree-sorted inputs pack the hubs into the lowest ids.
    const rt::Range own = rt::par::degreeBalancedRange(ctx, csr);
    for (std::uint64_t u = own.begin; u < own.end; ++u) {
        const graph::Dist du = ctx.read(s.dist[u]);
        if (du == graph::kInfDist) {
            continue;
        }
        bool has_zero_tight = false;
        const graph::EdgeId end = ctx.read(csr.offsets[u + 1]);
        for (graph::EdgeId e = ctx.read(csr.offsets[u]); e < end; ++e) {
            const graph::VertexId v = ctx.read(csr.neighbors[e]);
            const graph::Weight w = ctx.read(csr.weights[e]);
            ctx.work(2);
            if (du + w != ctx.read(s.dist[v])) {
                continue;
            }
            if (w > 0) {
                ctx.compareExchange(s.parent[v], graph::kNoVertex,
                                    static_cast<graph::VertexId>(u));
            } else {
                has_zero_tight = true;
            }
        }
        if (has_zero_tight) {
            lane.zero_tight.push_back(static_cast<graph::VertexId>(u));
        }
    }
    ctx.barrier();
    if (tid == 0) {
        parentsOverZeroEdges(ctx, s, csr);
        ctx.write(s.rounds.value, steps);
    }
    if (track != nullptr) {
        obs::counterBump(track, obs::Counter::kRelaxations, relaxations);
        obs::counterBump(track, obs::Counter::kExpansions, expansions);
        obs::counterBump(track, obs::Counter::kActivations, relaxations);
        obs::counterBump(track, obs::Counter::kStaleSkips, stale);
        obs::counterBump(track, obs::Counter::kBucketSteps, steps);
    }
}

/**
 * Run delta-stepping SSSP on @p exec with @p nthreads threads.
 *
 * @param tracker optional active-vertices instrumentation (Figure 2)
 * @param delta   bucket width; 0 (default) picks autoDelta(g). delta=1
 *                degenerates toward Dijkstra order (every edge heavy);
 *                a delta above the weight range degenerates toward
 *                Bellman-Ford (one bucket, every edge light).
 * @param split   optional precomputed light/heavy split (must have
 *                been built at the effective delta); callers running
 *                many sources on one graph build it once. nullptr
 *                builds it inside this call.
 */
template <class Exec>
SsspResult
deltaSteppingSssp(Exec& exec, int nthreads, const graph::Graph& g,
                  graph::VertexId source,
                  rt::ActiveTracker* tracker = nullptr,
                  graph::Dist delta = 0,
                  const EdgeSplit* split = nullptr)
{
    using Ctx = typename Exec::Ctx;
    obs::ScopedHostSpan kernel_span("SSSP_DELTA", g.numVertices());
    DeltaSsspState<Ctx> state(g, source, nthreads, delta, tracker, split);
    rt::RunInfo info = exec.parallel(
        nthreads, [&state](Ctx& ctx) { deltaSteppingKernel(ctx, state); });
    return SsspResult{std::move(state.dist), std::move(state.parent),
                      state.rounds.value, std::move(info)};
}

} // namespace crono::core

#endif // CRONO_CORE_DELTA_STEPPING_H_
