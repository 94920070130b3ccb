/**
 * @file
 * Sparse-frontier work-list engine with adaptive dense/sparse
 * switching for the frontier-driven kernels.
 *
 * CRONO's released kernels advance each round by rescanning every
 * thread's full static vertex block for per-vertex `active` flags —
 * O(V) work per round even when the pareto front holds a handful of
 * vertices, which is exactly the regime the road-network inputs
 * (avg degree ~2.6, huge diameter, thousands of tiny rounds) spend
 * most of their time in. The FrontierEngine keeps that dense bitmap
 * representation available but adds per-thread sparse work-lists
 * (chunked vertex queues with padded claim cursors) plus
 * chunk-granularity work-stealing, and can pick the representation
 * per round from front occupancy (FrontierMode::kAdaptive).
 *
 * Design invariants:
 *  - Membership is always tracked in the parity-indexed flag arrays;
 *    in the queue-backed modes (kSparse/kAdaptive) activations are
 *    additionally appended to the activating thread's queue, so a
 *    round can be *consumed* either densely (scan the thread's static
 *    block of flags) or sparsely (claim chunks from the per-thread
 *    queues, own queue first, then steal round-robin) — switching
 *    representation between rounds is free.
 *  - Every shared-memory access goes through the ExecutionContext
 *    (`ctx.read/write/fetchAdd`), so simulated cache and NoC traffic
 *    stays honest when the engine runs on the Graphite-style
 *    simulator. Owner-private bookkeeping (chunk fill cursors,
 *    pending counts) is deliberately *not* modeled, the same way
 *    kernels keep loop state in registers.
 *  - Producers must guarantee exclusive activation of a vertex (the
 *    kernels already do: per-vertex locks in SSSP, the flag claim in
 *    flag-scan BFS), mirroring the contract of the flag-scan code.
 *
 * Two kernels run on the engine: the paper's flag-scan BFS and the
 * work-list SSSP (every mode). BFS's kSparse/kAdaptive modes run a
 * GAP-style queue kernel of their own (core/bfs.h).
 *
 * The engine also records each thread's ops() at every round
 * boundary, so drivers can report the Variability metric (Equation 2
 * of the paper) per round rather than per run — that is what makes
 * the load imbalance removed by work-stealing visible to the benches.
 */

#ifndef CRONO_RUNTIME_FRONTIER_H_
#define CRONO_RUNTIME_FRONTIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/macros.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "runtime/partition.h"
#include "runtime/strategies.h"

namespace crono::rt {

/** Vertices per work-list chunk (also the stealing granularity). */
inline constexpr std::uint32_t kFrontierChunkCap = 256;

/**
 * Dense-switch factor k of the adaptive policy: a round is consumed
 * densely when front_size * avg_degree > V / k.
 */
inline constexpr std::uint64_t kFrontierDenseSwitchFactor = 4;

/**
 * Front size above which kAdaptive consumes a round densely:
 * front * (E/V) > V/k  <=>  front > V^2 / (k * E).
 */
std::uint64_t denseFrontThreshold(std::uint64_t num_vertices,
                                  std::uint64_t num_edges);

/**
 * Host-side, after a run: attach the per-round Variability series
 * (Equation 2 over each round's per-thread ops deltas) to @p info and
 * replace the whole-run scalar with the series mean. @p ops_marks[t]
 * holds thread t's ctx.ops() at the end of every round; rounds beyond
 * the shortest series are ignored. Frontier kernels report imbalance
 * per round, not per run, since per-run counts wash out exactly the
 * imbalance a sparse front creates.
 */
void applyRoundVariability(
    RunInfo& info,
    const std::vector<const std::vector<std::uint64_t>*>& ops_marks);

/**
 * Double-buffered frontier over vertices [0, V): dense parity-indexed
 * flag arrays plus per-thread chunked queues with work-stealing.
 *
 * Round protocol, executed by all nthreads threads of one parallel
 * region (rounds are numbered from 0; parity = round & 1):
 *
 *   seed()/seedAll()                  host side, before the region
 *   loop:
 *     dense = denseRound(front)       pure, same answer on all threads
 *     processCurrent(ctx, round, dense, fn)
 *        -> fn(v) exactly once per active vertex; inside fn the
 *           kernel calls activate(ctx, round, v') for next-round work
 *     front = advance(ctx, round)     two barriers, returns next size
 *   until front == 0
 */
class FrontierEngine {
  public:
    using Vertex = std::uint32_t;

    /**
     * @param num_edges directed edge count of the graph, used only by
     *        the adaptive dense/sparse policy (avg degree = E/V).
     */
    FrontierEngine(std::uint64_t num_vertices, std::uint64_t num_edges,
                   int nthreads, FrontierMode mode);

    FrontierEngine(const FrontierEngine&) = delete;
    FrontierEngine& operator=(const FrontierEngine&) = delete;

    /** Host-side: mark @p v active for round 0 (idempotent). */
    void seed(Vertex v);

    /** Host-side: mark every vertex active for round 0. */
    void seedAll();

    /** Size of the round-0 front (for the kernel's loop entry). */
    std::uint64_t initialFrontSize() const { return front_[0].value; }

    FrontierMode mode() const { return mode_; }

    /**
     * Representation decision for a round whose front holds
     * @p front_size vertices. Pure function of shared values, so all
     * threads independently derive the same answer.
     */
    bool
    denseRound(std::uint64_t front_size) const
    {
        switch (mode_) {
          case FrontierMode::kFlagScan:
            return true;
          case FrontierMode::kSparse:
            return false;
          case FrontierMode::kAdaptive:
            return front_size > denseThreshold_;
        }
        return true;
    }

    /**
     * Add @p v to round round+1's front. Returns true iff v was newly
     * activated. NOT atomic: the caller must hold v's lock or have
     * won an atomic claim, exactly as the flag-scan kernels do.
     */
    template <class Ctx>
    bool
    activate(Ctx& ctx, std::uint64_t round, Vertex v)
    {
        const std::size_t next = (round + 1) & 1;
        std::uint32_t* flags = flags_[next].data();
        if (ctx.read(flags[v]) != 0) {
            return false; // already in the next front
        }
        ctx.write(flags[v], 1u);
        enqueue(ctx, next, v);
        return true;
    }

    /**
     * Atomic claim-and-activate: the flag's fetch-and-add IS the
     * claim, so a kernel whose only exclusivity need is first-touch
     * discovery (BFS) can drop its separate claimed array — one RMW
     * replaces claim + flag read + flag write. Returns true iff the
     * caller won. The flag may end up > 1 from losing claimants;
     * consumption writes 0, so membership tests (!= 0) are unchanged.
     */
    template <class Ctx>
    bool
    activateClaim(Ctx& ctx, std::uint64_t round, Vertex v)
    {
        const std::size_t next = (round + 1) & 1;
        if (ctx.fetchAdd(flags_[next].data()[v], 1u) != 0) {
            return false;
        }
        enqueue(ctx, next, v);
        return true;
    }

    /**
     * Invoke fn(v) exactly once for every vertex of the current round
     * and clear its membership. Dense rounds scan the thread's static
     * vertex block; sparse rounds drain the thread's own chunk queue,
     * then steal whole chunks round-robin from the other threads'
     * queues through their padded claim cursors.
     */
    template <class Ctx, class Fn>
    void
    processCurrent(Ctx& ctx, std::uint64_t round, bool dense, Fn&& fn)
    {
        // Telemetry (null when idle): one "round" span per thread per
        // round, "steal" spans around drained victim queues, and the
        // dense/sparse/mode-switch counters on thread 0's track. Hooks
        // never touch ctx.read/write, so the simulated statistics are
        // unperturbed.
        obs::Track* const track = obs::trackFor(
            obs::sink(), obs::ctxTrackKind<Ctx>, ctx.tid());
        const std::uint64_t round_begin =
            track != nullptr ? ctx.timestamp() : 0;
        if (track != nullptr && ctx.tid() == 0) {
            obs::counterBump(track,
                             dense ? obs::Counter::kDenseRounds
                                   : obs::Counter::kSparseRounds,
                             1);
            if (round > 0 && dense != lastDense_) {
                obs::counterBump(track, obs::Counter::kModeSwitches, 1);
            }
            lastDense_ = dense;
        }

        const std::size_t p = round & 1;
        std::uint32_t* flags = flags_[p].data();
        if (dense) {
            const Range range =
                blockPartition(numVertices_, ctx.tid(), nthreads_);
            for (std::uint64_t v = range.begin; v < range.end; ++v) {
                if (ctx.read(flags[v]) == 0) {
                    continue;
                }
                ctx.write(flags[v], 0u);
                fn(static_cast<Vertex>(v));
            }
            if (track != nullptr) {
                obs::spanRecord(track, {round_begin, ctx.timestamp(),
                                        "round-dense", round,
                                        obs::SpanCat::kRound});
            }
            return;
        }
        for (int probe = 0; probe < nthreads_; ++probe) {
            const int victim = (ctx.tid() + probe) % nthreads_;
            Queue& q = threads_[static_cast<std::size_t>(victim)].queue[p];
            const std::uint64_t ready = ctx.read(q.ready.value);
            if (ready == 0) {
                continue;
            }
            const bool stealing = victim != ctx.tid();
            const std::uint64_t steal_begin =
                track != nullptr && stealing ? ctx.timestamp() : 0;
            std::uint64_t chunks_taken = 0;
            for (;;) {
                const std::uint64_t i =
                    ctx.fetchAdd(q.claim.value, std::uint64_t{1});
                if (i >= ready) {
                    break;
                }
                ++chunks_taken;
                const Chunk& c = *q.chunks[i];
                const std::uint32_t count = ctx.read(c.size);
                for (std::uint32_t j = 0; j < count; ++j) {
                    const Vertex v = ctx.read(c.items[j]);
                    ctx.write(flags[v], 0u);
                    fn(v);
                }
            }
            if (track != nullptr && stealing) {
                obs::counterBump(track, obs::Counter::kStealAttempts, 1);
                if (chunks_taken != 0) {
                    obs::counterBump(track, obs::Counter::kStealChunks,
                                     chunks_taken);
                    obs::spanRecord(
                        track, {steal_begin, ctx.timestamp(), "steal",
                                chunks_taken, obs::SpanCat::kSteal});
                }
            }
        }
        if (track != nullptr) {
            obs::spanRecord(
                track, {round_begin, ctx.timestamp(), "round-sparse",
                        round, obs::SpanCat::kRound});
        }
    }

    /** advance() without a between-barriers hook. */
    template <class Ctx>
    std::uint64_t
    advance(Ctx& ctx, std::uint64_t round)
    {
        return advance(ctx, round, [] {});
    }

    /**
     * End-of-round rendezvous: publishes this thread's activations and
     * queue, records the per-round ops mark, recycles the consumed
     * parity's queues, and returns the size of the next front
     * (0 = converged). All threads must call it every round.
     *
     * @p between runs between the two barriers, where round @p round
     * is fully quiesced: every write made while processing it is
     * visible and no thread can have started the next round. Reading
     * a shared stop flag here (BFS target found) gives every thread
     * the same snapshot; reading it after advance() returns would
     * not — a fast thread could start the next round and set the flag
     * before a slow thread performed its check, splitting the
     * threads' decisions and deadlocking the next rendezvous.
     */
    template <class Ctx, class Between>
    std::uint64_t
    advance(Ctx& ctx, std::uint64_t round, Between&& between)
    {
        const std::size_t p = round & 1;
        const std::size_t next = p ^ 1;
        PerThread& me = threads_[static_cast<std::size_t>(ctx.tid())];
        me.opsMarks.push_back(ctx.ops()); // pre-wait: captures imbalance
        if (useQueues_) {
            Queue& nq = me.queue[next];
            if (nq.used != 0) { // seal the trailing partial chunk
                ctx.write(nq.chunks[nq.used - 1]->size, nq.fill);
            }
            ctx.write(nq.ready.value, nq.used);
        }
        if (me.pending != 0) {
            obs::counterAdd(ctx, obs::Counter::kActivations, me.pending);
            ctx.fetchAdd(front_[next].value, me.pending);
            me.pending = 0;
        }
        ctx.barrier();
        const std::uint64_t next_front = ctx.read(front_[next].value);
        between();
        if (useQueues_) {
            // Recycle the just-consumed parity: it becomes the push
            // target of the upcoming round. Safe between the two
            // barriers — all consumption finished at the first one,
            // pushes start after the second.
            Queue& cq = me.queue[p];
            ctx.write(cq.claim.value, std::uint64_t{0});
            ctx.write(cq.ready.value, std::uint64_t{0});
            cq.used = 0;
            cq.fill = 0;
        }
        if (ctx.tid() == 0) {
            ctx.write(front_[p].value, std::uint64_t{0});
        }
        ctx.barrier();
        return next_front;
    }

    /**
     * Host-side, after the run: applyRoundVariability over the
     * engine's per-round ops marks.
     */
    void applyRoundStats(RunInfo& info) const;

  private:
    struct Chunk {
        std::uint32_t size; ///< sealed entry count (shared-read)
        Vertex items[kFrontierChunkCap];
    };

    /** One parity's work-list of one thread. */
    struct Queue {
        /** Chunk-claim cursor; owner and thieves fetchAdd it. */
        Padded<std::uint64_t> claim;
        /** Consumable chunk count, frozen at the round barrier. */
        Padded<std::uint64_t> ready;
        std::vector<std::unique_ptr<Chunk>> chunks;
        // Owner-private push state (unmodeled, register-like).
        std::uint64_t used = 0; ///< chunks holding entries this fill
        std::uint32_t fill = 0; ///< entries in chunks[used - 1]
    };

    struct alignas(kCacheLineBytes) PerThread {
        Queue queue[2];
        std::uint64_t pending = 0; ///< activations since last advance
        std::vector<std::uint64_t> opsMarks; ///< ops() per round end
    };

    /**
     * Count @p v toward this thread's pending activations and, in the
     * queue-backed modes (kSparse/kAdaptive), append it to the
     * parity-@p next work list. kFlagScan rounds are always consumed
     * through the flag arrays, so maintaining queues there would only
     * add unmodeled bookkeeping the paper's structure does not have.
     */
    template <class Ctx>
    void
    enqueue(Ctx& ctx, std::size_t next, Vertex v)
    {
        PerThread& me = threads_[static_cast<std::size_t>(ctx.tid())];
        if (!useQueues_) {
            ++me.pending;
            return;
        }
        Queue& q = me.queue[next];
        if (q.fill == kFrontierChunkCap || q.used == 0) {
            if (q.used != 0) { // seal the filled chunk for consumers
                ctx.write(q.chunks[q.used - 1]->size, q.fill);
            }
            if (q.used == q.chunks.size()) {
                q.chunks.emplace_back(new Chunk);
            }
            ++q.used;
            q.fill = 0;
        }
        ctx.write(q.chunks[q.used - 1]->items[q.fill], v);
        ++q.fill;
        ++me.pending;
    }

    /** Plain (host-side) push used by seed/seedAll. */
    void hostPush(int owner, Vertex v);

    std::uint64_t numVertices_;
    int nthreads_;
    FrontierMode mode_;
    std::uint64_t denseThreshold_;
    /** Work lists maintained? False for kFlagScan (flags only). */
    bool useQueues_;
    /** Previous round's representation (thread 0 only, telemetry). */
    bool lastDense_ = false;
    AlignedVector<std::uint32_t> flags_[2];
    Padded<std::uint64_t> front_[2];
    std::vector<PerThread> threads_;
};

/**
 * Single-owner FIFO work-list for the per-source forward passes of
 * APSP / betweenness centrality: a fixed-capacity ring over the
 * thread's private (but modeled) memory. Replaces the O(V) scan-min
 * selection of the flag-scan Dijkstra with label-correcting pops.
 * Cursors are owner-private loop state; only the ring storage is
 * modeled through the context.
 */
class LocalWorklist {
  public:
    /** @param capacity max simultaneous entries (use V). */
    explicit LocalWorklist(std::uint32_t capacity)
        : ring_(static_cast<std::size_t>(capacity) + 1),
          cap_(capacity + 1)
    {
    }

    bool empty() const { return head_ == tail_; }

    void clear() { head_ = tail_ = 0; }

    template <class Ctx>
    void
    push(Ctx& ctx, std::uint32_t v)
    {
        ctx.write(ring_[tail_], v);
        tail_ = tail_ + 1 == cap_ ? 0 : tail_ + 1;
        CRONO_ASSERT(head_ != tail_, "LocalWorklist overflow");
    }

    template <class Ctx>
    std::uint32_t
    pop(Ctx& ctx)
    {
        CRONO_ASSERT(head_ != tail_, "LocalWorklist underflow");
        const std::uint32_t v = ctx.read(ring_[head_]);
        head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
        return v;
    }

  private:
    AlignedVector<std::uint32_t> ring_;
    std::uint32_t cap_;
    std::uint32_t head_ = 0;
    std::uint32_t tail_ = 0;
};

} // namespace crono::rt

#endif // CRONO_RUNTIME_FRONTIER_H_
