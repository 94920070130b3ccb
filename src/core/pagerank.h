/**
 * @file
 * PageRank (Section III-9), exact per-iteration version of Equation 1:
 *
 *   PR_{t+1}(i) = r + (1 - r) * sum_j PR_t(j) / degree(j)
 *
 * over neighbors j of i (r = probability of a random page visit).
 *
 * Two phase structures:
 *
 *  - kScatter (the paper's; Table I: Vertex Capture & Graph
 *    Division): in the scatter phase threads dynamically *capture*
 *    vertices from a shared atomic cursor (par::vertexMapCapture) and
 *    push each captured vertex's contribution to its neighbors'
 *    accumulators under per-vertex atomic locks ("threads may
 *    converge on common neighbors from their given vertices"); the
 *    update phase is statically divided. The capture counter's cache
 *    line ping-pongs between all threads — the fine-grain
 *    communication the paper attributes PageRank's weak scaling to.
 *  - kGather (pull, GAP's reference shape): every thread owns a
 *    static destination range balanced by edge count
 *    (par::degreeBalancedRange). Each iteration is one pass: every
 *    owned vertex sums its neighbors' shares PR(u)/degree(u) in CSR
 *    order into a register, applies Equation 1, and publishes its own
 *    next share into a second buffer (shares are double-buffered, so
 *    the pass reads only values frozen by the previous barrier). No
 *    accumulator locks, no shared cursor, no write contention: every
 *    write is owner-exclusive, and the result is deterministic —
 *    bit-identical at any thread count — where scatter's lock-ordered
 *    floating-point adds are not.
 *
 * Iterations are separated by barriers in both modes.
 */

#ifndef CRONO_CORE_PAGERANK_H_
#define CRONO_CORE_PAGERANK_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "core/context.h"
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "runtime/par.h"
#include "runtime/strategies.h"

namespace crono::core {

/** Phase structure of one PageRank run (see file header). */
enum class PageRankMode : int {
    kScatter = 0, ///< paper's capture + push-to-accumulators structure
    kGather = 1,  ///< pull: destinations sum frozen neighbor shares
};

/** Printable mode name ("scatter" / "gather"). */
inline const char*
pageRankModeName(PageRankMode mode)
{
    return mode == PageRankMode::kGather ? "gather" : "scatter";
}

/** Rank vector after a fixed number of exact iterations. */
struct PageRankResult {
    AlignedVector<double> rank;
    unsigned iterations = 0;
    rt::RunInfo run;
};

template <class Ctx>
struct PageRankState {
    PageRankState(const graph::Graph& graph, unsigned iterations_in,
                  double damping, PageRankMode mode,
                  rt::ActiveTracker* tracker_in)
        : g(graph), rank(graph.numVertices(), 0.0),
          incoming(graph.numVertices(), 0.0),
          next_share(mode == PageRankMode::kGather ? graph.numVertices()
                                                   : 0,
                     0.0),
          iterations(iterations_in), r(damping), tracker(tracker_in)
    {
        CRONO_REQUIRE(damping > 0.0 && damping < 1.0,
                      "damping must be in (0, 1)");
        if (mode == PageRankMode::kScatter) {
            locks.emplace(graph.numVertices());
        }
    }

    const graph::Graph& g;
    AlignedVector<double> rank;
    /** Scatter accumulators; in kGather, the current shares. */
    AlignedVector<double> incoming;
    /** kGather only: the shares being published for the next pass. */
    AlignedVector<double> next_share;
    /** Scatter's per-iteration capture cursors, indexed by parity. */
    rt::CaptureCounter cursor[2];
    /** Scatter's accumulator locks (absent in kGather). */
    std::optional<LockStripe<Ctx>> locks;
    unsigned iterations;
    double r;
    rt::ActiveTracker* tracker;
};

template <class Ctx>
void
pageRankKernel(Ctx& ctx, PageRankState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);
    const graph::VertexId n = s.g.numVertices();

    // Initialize: uniform probability, clean accumulators.
    const double uniform = 1.0 / static_cast<double>(n);
    rt::par::vertexMap(ctx, n, [&](std::uint64_t v) {
        ctx.write(s.rank[v], uniform);
        ctx.write(s.incoming[v], 0.0);
    });
    ctx.barrier();

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());

    for (unsigned it = 0; it < s.iterations; ++it) {
        // Scatter phase: capture vertices dynamically and push
        // PR(v)/degree(v) to every neighbor.
        const std::uint64_t scatter_begin =
            track != nullptr ? ctx.timestamp() : 0;
        rt::par::vertexMapCapture(
            ctx, s.cursor[it % 2], n, [&](std::uint64_t vi) {
                const auto v = static_cast<graph::VertexId>(vi);
                trackAdd(s.tracker, 1);
                const graph::EdgeId beg = ctx.read(csr.offsets[v]);
                const graph::EdgeId end = ctx.read(csr.offsets[v + 1]);
                if (beg == end) {
                    return; // isolated page contributes nothing
                }
                const double share = ctx.read(s.rank[v]) /
                                     static_cast<double>(end - beg);
                ctx.work(2);
                for (graph::EdgeId e = beg; e < end; ++e) {
                    const graph::VertexId u = ctx.read(csr.neighbors[e]);
                    ScopedLock<Ctx> guard(ctx, s.locks->of(u));
                    ctx.write(s.incoming[u],
                              ctx.read(s.incoming[u]) + share);
                }
            });
        if (track != nullptr) {
            obs::spanRecord(
                track, {scatter_begin, ctx.timestamp(), "scatter",
                        it, obs::SpanCat::kRound});
        }
        ctx.barrier();

        // Update phase (graph division): apply Equation 1 and reset
        // the accumulators. Thread 0 also rearms the next iteration's
        // capture cursor; the trailing barrier orders it before use.
        // The paper's formulation uses the unscaled random-visit term
        // r; we use the probability-conserving r/N variant so ranks
        // remain a distribution (sum = 1 on degree>=1 graphs).
        const std::uint64_t update_begin =
            track != nullptr ? ctx.timestamp() : 0;
        rt::par::vertexMap(ctx, n, [&](std::uint64_t v) {
            const double in = ctx.read(s.incoming[v]);
            ctx.write(s.rank[v], s.r * uniform + (1.0 - s.r) * in);
            ctx.write(s.incoming[v], 0.0);
            ctx.work(3);
            trackAdd(s.tracker, -1);
        });
        if (track != nullptr) {
            obs::spanRecord(
                track, {update_begin, ctx.timestamp(), "update", it,
                        obs::SpanCat::kRound});
            if (ctx.tid() == 0) {
                obs::counterBump(track, obs::Counter::kIterations, 1);
            }
        }
        if (ctx.tid() == 0) {
            ctx.write(s.cursor[(it + 1) % 2].next, std::uint64_t{0});
        }
        ctx.barrier();
    }
}

/**
 * Gather-mode kernel body: one edge-balanced pull pass and one
 * barrier per iteration over double-buffered shares; no locks.
 */
template <class Ctx>
void
pageRankGatherKernel(Ctx& ctx, PageRankState<Ctx>& s)
{
    const rt::par::Csr csr = rt::par::csrOf(s.g);
    const graph::VertexId n = s.g.numVertices();
    const rt::Range own = rt::par::degreeBalancedRange(ctx, csr);
    const auto owned = static_cast<std::int64_t>(own.end - own.begin);

    const double uniform = 1.0 / static_cast<double>(n);
    const double teleport = s.r * uniform;
    const double follow = 1.0 - s.r;
    double* cur = s.incoming.data();
    double* next = s.next_share.data();

    // A vertex's share PR(v)/degree(v); isolated pages contribute 0.
    const auto share = [](double rank, graph::EdgeId degree) {
        return degree == 0 ? 0.0 : rank / static_cast<double>(degree);
    };
    for (std::uint64_t v = own.begin; v < own.end; ++v) {
        const graph::EdgeId beg = ctx.read(csr.offsets[v]);
        const graph::EdgeId end = ctx.read(csr.offsets[v + 1]);
        ctx.write(s.rank[v], uniform);
        ctx.write(cur[v], share(uniform, end - beg));
        ctx.work(2);
    }
    ctx.barrier();

    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());

    for (unsigned it = 0; it < s.iterations; ++it) {
        // Every owned destination sums its neighbors' current shares
        // in CSR order, applies Equation 1, and publishes its next
        // share. The only mutable data the pass reads is `cur`, and it
        // writes only owned slots of `rank` and `next`, so one
        // barrier orders it.
        const std::uint64_t gather_begin =
            track != nullptr ? ctx.timestamp() : 0;
        trackAdd(s.tracker, owned);
        for (std::uint64_t v = own.begin; v < own.end; ++v) {
            const graph::EdgeId beg = ctx.read(csr.offsets[v]);
            const graph::EdgeId end = ctx.read(csr.offsets[v + 1]);
            double acc = 0.0;
            for (graph::EdgeId e = beg; e < end; ++e) {
                acc += ctx.read(cur[ctx.read(csr.neighbors[e])]);
            }
            const double rank = teleport + follow * acc;
            ctx.write(s.rank[v], rank);
            ctx.write(next[v], share(rank, end - beg));
            ctx.work(end - beg + 5);
            trackAdd(s.tracker, -1);
        }
        if (track != nullptr) {
            obs::spanRecord(
                track, {gather_begin, ctx.timestamp(), "gather", it,
                        obs::SpanCat::kRound});
            if (ctx.tid() == 0) {
                obs::counterBump(track, obs::Counter::kIterations, 1);
            }
        }
        std::swap(cur, next);
        ctx.barrier();
    }
}

/**
 * Run PageRank for @p iterations exact iterations.
 *
 * @param damping the paper's r (random-visit probability), default 0.15
 * @param mode    kScatter (default) is the paper's structure; kGather
 *                pulls neighbor shares destination-side (lock-free,
 *                deterministic)
 */
template <class Exec>
PageRankResult
pageRank(Exec& exec, int nthreads, const graph::Graph& g,
         unsigned iterations = 10, double damping = 0.15,
         rt::ActiveTracker* tracker = nullptr,
         PageRankMode mode = PageRankMode::kScatter)
{
    using Ctx = typename Exec::Ctx;
    obs::ScopedHostSpan kernel_span("PAGE_RANK", g.numVertices());
    PageRankState<Ctx> state(g, iterations, damping, mode, tracker);
    rt::RunInfo info = exec.parallel(nthreads, [&](Ctx& ctx) {
        if (mode == PageRankMode::kGather) {
            pageRankGatherKernel(ctx, state);
        } else {
            pageRankKernel(ctx, state);
        }
    });
    return PageRankResult{std::move(state.rank), iterations,
                          std::move(info)};
}

} // namespace crono::core

#endif // CRONO_CORE_PAGERANK_H_
