/**
 * @file
 * rt::par — the shared parallel-primitives layer every kernel builds
 * on.
 *
 * The ten CRONO kernels share a handful of parallel skeletons (Table I
 * of the paper): static vertex-block loops, vertex capture from an
 * atomic cursor, per-thread accumulators merged behind a barrier,
 * frontier expansion. This header expresses each skeleton once, as a
 * Ctx-generic primitive, so a kernel body reads as algorithm logic
 * only and every kernel inherits the same telemetry hooks:
 *
 *  - vertexMap / vertexMapStriped: graph division (static block /
 *    cyclic stripe) — pure index arithmetic, no shared traffic.
 *  - degreeBalancedRange: static graph division balanced by edge
 *    count (gather PageRank).
 *  - vertexMapCapture: the paper's vertex-capture idiom — one RMW per
 *    item on a shared cursor whose cache line deliberately ping-pongs.
 *  - edgeMapPush / edgeMapPull / edgeMapPullAll: frontier traversal in
 *    both directions, with FrontierEngine's dense flag array doubling
 *    as the pull-side membership probe (direction optimization).
 *  - reduce / reducePerThread: per-thread cache-line-padded slots
 *    combined deterministically behind one barrier, replacing the
 *    fetchAdd-into-a-shared-counter merge (which, for floating point,
 *    made results depend on arrival order).
 *  - ScratchArena: reusable per-thread buffers (APSP's private
 *    distance rows, community detection's neighbor accumulators).
 *  - BranchStack: the DFS shared branch stack with its race-free
 *    empty+idle termination protocol.
 *  - tryClaim: the read-then-fetchAdd first-touch claim idiom.
 *
 * Every shared access inside a primitive goes through the
 * ExecutionContext (ctx.read/write/fetchAdd), so the simulator models
 * the primitives' traffic exactly as it modeled the hand-rolled loops
 * they replace. Telemetry hooks never touch ctx.read/write, keeping
 * simulated statistics independent of whether a sink is installed.
 */

#ifndef CRONO_RUNTIME_PAR_H_
#define CRONO_RUNTIME_PAR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/macros.h"
// crono-lint: allow(include-layering): the edgeMap primitives are defined over the CSR types themselves — this runtime→graph edge is the one acknowledged exception to the DAG (splitting traversal out of rt::par would fork the primitive set)
#include "graph/graph.h"
#include "obs/telemetry.h"
#include "runtime/frontier.h"
#include "runtime/partition.h"
#include "runtime/strategies.h"

namespace crono::rt::par {

// ----------------------------------------------------------- CSR view

/**
 * Non-owning view of a CSR graph's raw arrays, so primitives take one
 * argument instead of three pointers. Graphs are undirected (both
 * directions present), which is what makes pull traversal possible
 * without a transposed copy: in-neighbors == out-neighbors.
 */
struct Csr {
    const graph::EdgeId* offsets = nullptr;
    const graph::VertexId* neighbors = nullptr;
    const graph::Weight* weights = nullptr;
    std::uint64_t num_vertices = 0;
    std::uint64_t num_edges = 0;
};

inline Csr
csrOf(const graph::Graph& g)
{
    return {g.rawOffsets().data(), g.rawNeighbors().data(),
            g.rawWeights().data(), g.numVertices(), g.numEdges()};
}

// -------------------------------------------------------- vertex maps

/**
 * Static graph division: invoke fn(i) for every index of this
 * thread's contiguous block of [0, total).
 */
template <class Ctx, class Fn>
void
vertexMap(Ctx& ctx, std::uint64_t total, Fn&& fn)
{
    const Range range = blockPartition(total, ctx.tid(), ctx.nthreads());
    for (std::uint64_t i = range.begin; i < range.end; ++i) {
        fn(i);
    }
}

/**
 * Cyclic graph division: invoke fn(i) for every index of this
 * thread's stripe {tid, tid + nthreads, ...} — better balance than
 * contiguous blocks under skewed degree distributions.
 */
template <class Ctx, class Fn>
void
vertexMapStriped(Ctx& ctx, std::uint64_t total, Fn&& fn)
{
    cyclicPartition(total, ctx.tid(), ctx.nthreads(),
                    [&](std::uint64_t i) { fn(i); });
}

/**
 * This thread's contiguous destination-id range, balanced by edge
 * count rather than vertex count: reordered graphs pack the hubs into
 * the lowest ids, where a vertex-count split would hand one thread
 * most of the edges. Gather PageRank owns its destinations through
 * it. Pure scheduling arithmetic over the immutable offsets array
 * (like blockPartition, not modeled traffic); deterministic, so
 * ownership is stable for the whole invocation.
 */
template <class Ctx>
Range
degreeBalancedRange(Ctx& ctx, const Csr& g)
{
    const auto tid = static_cast<std::uint64_t>(ctx.tid());
    const auto nthreads = static_cast<std::uint64_t>(ctx.nthreads());
    const graph::EdgeId* const first = g.offsets;
    const graph::EdgeId* const last = g.offsets + g.num_vertices + 1;
    const auto cut = [&](std::uint64_t t) -> std::uint64_t {
        const graph::EdgeId target = g.num_edges * t / nthreads;
        return static_cast<std::uint64_t>(
            std::lower_bound(first, last, target) - first);
    };
    // The last cut must be num_vertices, not lower_bound(num_edges):
    // the latter stops at the FIRST offset equal to num_edges, which
    // would orphan a zero-degree tail (exactly what degree orderings
    // produce) from every thread.
    Range r{cut(tid), tid + 1 == nthreads
                          ? static_cast<std::uint64_t>(g.num_vertices)
                          : cut(tid + 1)};
    if (r.end > g.num_vertices) {
        r.end = g.num_vertices;
    }
    if (r.begin > r.end) {
        r.begin = r.end;
    }
    return r;
}

/**
 * Vertex capture (Table I): claim items one at a time from a shared
 * atomic cursor until the range is exhausted. The per-item RMW
 * ping-pongs the cursor's cache line between threads — the fine-grain
 * communication the paper measures — so this stays the scheduling
 * primitive of the capture-based kernels (APSP, PageRank scatter,
 * triangle counting, community detection, TSP).
 *
 * @return number of items this thread captured (also bumped onto the
 *         kCaptures telemetry counter).
 */
template <class Ctx, class Fn>
std::uint64_t
vertexMapCapture(Ctx& ctx, CaptureCounter& cursor, std::uint64_t total,
                 Fn&& fn)
{
    std::uint64_t captured = 0;
    for (;;) {
        const std::uint64_t i = captureNext(ctx, cursor, total);
        if (i == kCaptureDone) {
            break;
        }
        ++captured;
        fn(i);
    }
    obs::counterAdd(ctx, obs::Counter::kCaptures, captured);
    return captured;
}

// ---------------------------------------------------------- edge maps

/**
 * Push-direction frontier traversal: consume the current front
 * through @p engine (dense flag scan or sparse work lists, chosen by
 * @p dense) and scan each front vertex's out-edges.
 *
 * @p pre(u) runs once per front vertex; returning false skips the
 * edge scan (SSSP's pacing deferral). @p edge(u, v, e) runs once per
 * out-edge, with v already read through the context; the kernel reads
 * weights[e] / charges ctx.work itself so its modeled per-edge cost
 * is exactly what the hand-rolled loop had.
 */
template <class Ctx, class Pre, class Edge>
void
edgeMapPush(Ctx& ctx, const Csr& g, FrontierEngine& engine,
            std::uint64_t round, bool dense, Pre&& pre, Edge&& edge)
{
    engine.processCurrent(
        ctx, round, dense, [&](FrontierEngine::Vertex u) {
            if (!pre(u)) {
                return;
            }
            const graph::EdgeId beg = ctx.read(g.offsets[u]);
            const graph::EdgeId end = ctx.read(g.offsets[u + 1]);
            for (graph::EdgeId e = beg; e < end; ++e) {
                edge(u, ctx.read(g.neighbors[e]), e);
            }
        });
}

namespace detail {

/** Shared destination-side gather loop of the pull edge maps. */
template <class Ctx, class Member, class Pre, class Edge, class Post>
void
pullVertex(Ctx& ctx, const Csr& g, graph::VertexId v, Member&& member,
           Pre&& pre, Edge&& edge, Post&& post)
{
    if (!pre(v)) {
        return;
    }
    const graph::EdgeId beg = ctx.read(g.offsets[v]);
    const graph::EdgeId end = ctx.read(g.offsets[v + 1]);
    for (graph::EdgeId e = beg; e < end; ++e) {
        const graph::VertexId u = ctx.read(g.neighbors[e]);
        ctx.work(1);
        if (!member(u)) {
            continue;
        }
        if (edge(v, u, e)) {
            break; // satisfied (BFS: first in-front parent wins)
        }
    }
    post(v);
}

} // namespace detail

/**
 * Pull-direction (direction-optimized) frontier round: every vertex
 * that passes @p pre(v) scans its neighbors, keeping only those on
 * the current front (engine.inCurrent probe against the dense flag
 * array). @p edge(v, u, e) returns true to stop scanning v early —
 * the saving that makes pull win on heavy fronts. @p post(v) runs
 * after v's scan (also when no neighbor matched); writes made there
 * are owner-exclusive, since each vertex is visited by exactly one
 * thread, so self-activation needs no lock.
 *
 * The round's flags are NOT consumed here — the caller must clear
 * them from advance()'s between-hook via engine.clearCurrentBlock.
 * The primitive charges ctx.work(1) per scanned edge (the pull path
 * is new; there is no hand-rolled cost profile to preserve) and bumps
 * kPullRounds / records a "round-pull" span.
 */
template <class Ctx, class Pre, class Edge, class Post>
void
edgeMapPull(Ctx& ctx, const Csr& g, FrontierEngine& engine,
            std::uint64_t round, Pre&& pre, Edge&& edge, Post&& post)
{
    obs::Track* const track =
        obs::trackFor(obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
    const std::uint64_t begin = track != nullptr ? ctx.timestamp() : 0;
    if (track != nullptr && ctx.tid() == 0) {
        obs::counterBump(track, obs::Counter::kPullRounds, 1);
    }
    const auto member = [&](graph::VertexId u) {
        return engine.inCurrent(ctx, round, u);
    };
    const Range range =
        blockPartition(g.num_vertices, ctx.tid(), ctx.nthreads());
    for (std::uint64_t vi = range.begin; vi < range.end; ++vi) {
        const auto v = static_cast<graph::VertexId>(vi);
        detail::pullVertex(ctx, g, v, member, pre, edge, post);
    }
    if (track != nullptr) {
        obs::spanRecord(track, {begin, ctx.timestamp(), "round-pull",
                                round, obs::SpanCat::kRound});
    }
}

/**
 * Frontier-less dense gather over this thread's static block: every
 * vertex passing @p pre scans all neighbors (no membership probe, no
 * early exit unless @p edge returns true). This is the paper's
 * pull-style full-rescan structure (connected components).
 */
template <class Ctx, class Pre, class Edge, class Post>
void
edgeMapPullAll(Ctx& ctx, const Csr& g, Pre&& pre, Edge&& edge,
               Post&& post)
{
    const auto all = [](graph::VertexId) { return true; };
    const Range range =
        blockPartition(g.num_vertices, ctx.tid(), ctx.nthreads());
    for (std::uint64_t vi = range.begin; vi < range.end; ++vi) {
        detail::pullVertex(ctx, g, static_cast<graph::VertexId>(vi), all,
                           pre, edge, post);
    }
}

// --------------------------------------------------------- reductions

/** Per-thread cache-line-padded reduction slots. */
template <class T>
struct ReduceSlots {
    explicit ReduceSlots(int nthreads)
        : slots(static_cast<std::size_t>(nthreads))
    {
    }

    std::vector<Padded<T>> slots;
};

/**
 * Deterministic all-threads reduction: publish @p local, rendezvous,
 * then every thread folds the slots in tid order. One barrier, O(T)
 * reads per thread, and — unlike the fetchAdd merge it replaces —
 * a result independent of thread arrival order (which matters for
 * floating-point sums like community detection's 2m).
 *
 * All threads must call it; all receive the same result.
 */
template <class Ctx, class T, class Op>
T
reducePerThread(Ctx& ctx, ReduceSlots<T>& r, T local, Op&& op)
{
    ctx.write(r.slots[static_cast<std::size_t>(ctx.tid())].value, local);
    ctx.barrier();
    T acc = ctx.read(r.slots[0].value);
    for (int t = 1; t < ctx.nthreads(); ++t) {
        acc = op(acc, ctx.read(r.slots[static_cast<std::size_t>(t)].value));
    }
    return acc;
}

/**
 * Tree reduction: publish @p local, then combine pairwise with
 * stride doubling (log2(T) barriered levels, O(1) reads per thread
 * per level). Deterministic combine order; all threads receive the
 * final value. Prefer reducePerThread for small thread counts — the
 * tree pays off when T is large enough that O(T) serial reads per
 * thread dominate.
 */
template <class Ctx, class T, class Op>
T
reduce(Ctx& ctx, ReduceSlots<T>& r, T local, Op&& op)
{
    const int tid = ctx.tid();
    const int nthreads = ctx.nthreads();
    ctx.write(r.slots[static_cast<std::size_t>(tid)].value, local);
    ctx.barrier();
    for (int stride = 1; stride < nthreads; stride <<= 1) {
        if (tid % (2 * stride) == 0 && tid + stride < nthreads) {
            const T mine =
                ctx.read(r.slots[static_cast<std::size_t>(tid)].value);
            const T theirs = ctx.read(
                r.slots[static_cast<std::size_t>(tid + stride)].value);
            ctx.write(r.slots[static_cast<std::size_t>(tid)].value,
                      op(mine, theirs));
        }
        ctx.barrier();
    }
    return ctx.read(r.slots[0].value);
}

// ------------------------------------------------------ scratch arena

/**
 * Reusable per-thread scratch buffers. A kernel asks for typed lanes
 * (`arena.lane<Dist>(tid, 0, n)`); storage is cache-line aligned,
 * grows monotonically, and persists across rounds, so the per-round
 * working set is allocated once and then only re-touched — the
 * "private structures that thrash the L1" the paper describes for
 * APSP, without per-round allocator traffic.
 *
 * Lanes are returned uninitialized; callers write before reading
 * (every current user initializes or fills slots before use). Lane
 * growth is thread-private: each tid only ever touches its own entry.
 */
class ScratchArena {
  public:
    explicit ScratchArena(int nthreads);

    /** The @p tid thread's lane @p slot, holding @p count Ts. */
    template <class T>
    T*
    lane(int tid, int slot, std::size_t count)
    {
        static_assert(alignof(T) <= kCacheLineBytes);
        return reinterpret_cast<T*>(bytes(tid, slot, count * sizeof(T)));
    }

  private:
    std::byte* bytes(int tid, int slot, std::size_t size);

    struct alignas(kCacheLineBytes) Thread {
        std::vector<AlignedVector<std::byte>> lanes;
    };

    std::vector<Thread> threads_;
};

// ------------------------------------------------------- branch stack

/**
 * First-touch claim idiom: cheap racy read, then fetchAdd as the
 * claim. Returns true iff the caller won @p v.
 */
template <class Ctx>
bool
tryClaim(Ctx& ctx, std::uint32_t* claimed, std::uint32_t v)
{
    // The pre-filter is a declared-racy probe (readAtomic): a stale 0
    // just means a losing fetchAdd; the RMW is the real arbiter.
    return ctx.readAtomic(claimed[v]) == 0 &&
           ctx.fetchAdd(claimed[v], 1u) == 0;
}

/**
 * Shared LIFO of subtree roots for branch-parallel traversals (DFS)
 * and the rt::bnb search framework. pop() increments a `working`
 * count under the stack lock so the empty+idle termination test is
 * race-free: a thread observing an empty stack with zero workers
 * knows no branch can ever appear again.
 *
 * The element type defaults to the vertex ids DFS donates; rt::bnb
 * instantiates it with whole (trivially copyable) search nodes, so a
 * donation moves the entire subproblem through the modeled stack.
 */
template <class Ctx, class T = std::uint32_t>
class BranchStack {
  public:
    /** @param capacity max simultaneous entries (use V). */
    explicit BranchStack(std::uint64_t capacity) : stack_(capacity) {}

    /** Host-side, pre-region: push the initial branch root(s). */
    void
    hostSeed(const T& v)
    {
        stack_[top_.value] = v;
        ++top_.value;
    }

    /**
     * Pop a branch root into @p out, registering the caller as
     * working. Returns true on success; on false, *done tells the
     * caller whether the traversal is over (empty stack, nobody
     * working) or it should retry after an idle poll.
     */
    bool
    pop(Ctx& ctx, T* out, bool* done)
    {
        ctx.lock(lock_);
        const std::uint64_t top = ctx.read(top_.value);
        bool popped = false;
        if (top > 0) {
            *out = ctx.read(stack_[top - 1]);
            ctx.write(top_.value, top - 1);
            ctx.write(working_.value, ctx.read(working_.value) + 1);
            popped = true;
            *done = false;
        } else {
            *done = ctx.read(working_.value) == 0;
        }
        ctx.unlock(lock_);
        return popped;
    }

    /**
     * Register the caller as working without popping — for work
     * obtained outside the stack (rt::bnb's statically designated
     * branches), so the empty+idle termination test still covers the
     * donations that work may produce. Pair with finish().
     */
    void
    enter(Ctx& ctx)
    {
        ctx.lock(lock_);
        ctx.write(working_.value, ctx.read(working_.value) + 1);
        ctx.unlock(lock_);
    }

    /** Racy shallowness probe — donation heuristic, stale reads fine
     *  either way (declared via readAtomic: misjudging only trades a
     *  donation for a local push or vice versa). */
    bool
    below(Ctx& ctx, std::uint64_t limit)
    {
        return ctx.readAtomic(top_.value) < limit;
    }

    /**
     * Donate @p v as a new branch root. Returns false (declining the
     * donation) when the stack is at capacity — the caller keeps the
     * branch and explores it locally, so capacity exhaustion degrades
     * to less parallelism, never to loss of work.
     */
    bool
    push(Ctx& ctx, const T& v)
    {
        ctx.lock(lock_);
        const std::uint64_t top = ctx.read(top_.value);
        const bool fits = top < stack_.size();
        if (fits) {
            ctx.write(stack_[top], v);
            ctx.write(top_.value, top + 1);
        }
        ctx.unlock(lock_);
        return fits;
    }

    /** Caller finished (or abandoned) its branch. */
    void
    finish(Ctx& ctx)
    {
        ctx.lock(lock_);
        ctx.write(working_.value, ctx.read(working_.value) - 1);
        ctx.unlock(lock_);
    }

  private:
    AlignedVector<T> stack_;
    Padded<std::uint64_t> top_;
    Padded<std::uint64_t> working_;
    typename Ctx::Mutex lock_;
};

} // namespace crono::rt::par

#endif // CRONO_RUNTIME_PAR_H_
