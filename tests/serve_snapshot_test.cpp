/**
 * @file
 * Snapshot-isolation conformance for the serve stack (DESIGN.md
 * §17.2): a pinned epoch answers every query identically forever —
 * across later ingests, across compactions, across reorderings — and
 * concurrent clients hammering a live server against a live ingest
 * stream never observe a torn or cross-epoch answer. The concurrent
 * tests are the TSan leg's serve workload in analysis.yml: eight
 * client threads, one mutator, every interleaving the scheduler cares
 * to produce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "runtime/executor.h"
#include "serve/query.h"
#include "serve/server.h"
#include "serve/store.h"

namespace crono::serve {
namespace {

/** Shared test input: small enough for TSan, sharded meaningfully. */
graph::Graph
testGraph()
{
    return graph::generators::kronecker(/*scale=*/8, /*edge_factor=*/6,
                                        /*max_weight=*/32, /*seed=*/7);
}

std::vector<graph::Edge>
randomBatch(Rng* rng, graph::VertexId n, int count)
{
    std::vector<graph::Edge> edges;
    for (int i = 0; i < count; ++i) {
        edges.push_back(
            {static_cast<graph::VertexId>(rng->nextBelow(n)),
             static_cast<graph::VertexId>(rng->nextBelow(n)),
             static_cast<graph::Weight>(1 + rng->nextBelow(32))});
    }
    return edges;
}

/** Every directed edge slot of @p g, in CSR order. */
std::vector<graph::Edge>
directedSlots(const graph::Graph& g)
{
    std::vector<graph::Edge> slots;
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        const auto nbr = g.neighbors(v);
        const auto w = g.weights(v);
        for (std::size_t i = 0; i < nbr.size(); ++i) {
            slots.push_back({v, nbr[i], w[i]});
        }
    }
    return slots;
}

/** The directed-slot multiset of @p snap in external ids, sorted. */
std::vector<std::tuple<graph::VertexId, graph::VertexId, graph::Weight>>
externalSlots(const Snapshot& snap)
{
    std::vector<std::tuple<graph::VertexId, graph::VertexId, graph::Weight>>
        out;
    for (const graph::Edge& e : directedSlots(snap.materialized())) {
        out.emplace_back(snap.toExternal(e.src), snap.toExternal(e.dst),
                         e.weight);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Same CSR row for row: offsets, neighbors and weights. */
void
expectSameCsr(const graph::Graph& got, const graph::Graph& want)
{
    EXPECT_EQ(got.rawOffsets(), want.rawOffsets());
    EXPECT_EQ(got.rawNeighbors(), want.rawNeighbors());
    EXPECT_EQ(got.rawWeights(), want.rawWeights());
}

TEST(ServeSnapshot, PinnedEpochSurvivesIngestAndCompaction)
{
    StoreConfig cfg;
    cfg.num_shards = 4;
    cfg.reordering = graph::Reordering::kDegreeSort;
    GraphStore store(testGraph(), cfg);
    rt::NativeExecutor exec(2);
    QueryEngine engine(store, exec);

    const std::shared_ptr<const Snapshot> pinned = store.snapshot();
    const graph::VertexId n = pinned->numVertices();

    // Reference answers at the pinned epoch, one per query class.
    Request sssp;
    sssp.op = Op::kSsspDist;
    sssp.source = 3;
    sssp.target = n - 1;
    Request comp;
    comp.op = Op::kComponent;
    comp.source = 5;
    Request rank;
    rank.op = Op::kRankScore;
    rank.source = 2;
    Request topd;
    topd.op = Op::kTopDegree;
    topd.k = 8;
    const Response sssp0 = engine.executeOn(sssp, pinned);
    const Response comp0 = engine.executeOn(comp, pinned);
    const Response rank0 = engine.executeOn(rank, pinned);
    const Response topd0 = engine.executeOn(topd, pinned);
    ASSERT_EQ(sssp0.status, Status::kOk);
    ASSERT_EQ(sssp0.epoch, pinned->epoch());

    // Mutate the store hard: several batches, then a compaction that
    // re-runs the reordering.
    Rng rng(99);
    for (int b = 0; b < 5; ++b) {
        ASSERT_EQ(store.ingestBatch(randomBatch(&rng, n, 16)),
                  Status::kOk);
    }
    const std::uint64_t compacted_epoch = store.compact();
    EXPECT_GT(compacted_epoch, pinned->epoch());
    EXPECT_EQ(store.snapshot()->deltaEdges(), 0u);

    // The pinned epoch still answers bit-for-bit identically, even
    // though its arrays were evicted from the engine's LRU by newer
    // epochs' results in between.
    const Response sssp1 = engine.executeOn(sssp, pinned);
    const Response comp1 = engine.executeOn(comp, pinned);
    const Response rank1 = engine.executeOn(rank, pinned);
    const Response topd1 = engine.executeOn(topd, pinned);
    EXPECT_EQ(sssp1.epoch, pinned->epoch());
    EXPECT_EQ(sssp1.values, sssp0.values);
    EXPECT_EQ(comp1.values, comp0.values);
    EXPECT_EQ(rank1.values, rank0.values);
    EXPECT_EQ(topd1.values, topd0.values);
    EXPECT_EQ(topd1.vertices, topd0.vertices);
}

TEST(ServeSnapshot, IngestMergeMatchesKeepAllBuild)
{
    // Every published epoch must be exactly the CSR a GraphBuilder
    // keepAll build of the same directed-slot multiset produces, in
    // the epoch's internal id space: rows sorted by (neighbor,
    // weight), parallel edges kept. The batches hit the first and
    // last rows, an empty base row, and parallel copies of a base
    // edge with lower, equal and higher weights.
    StoreConfig cfg;
    cfg.reordering = graph::Reordering::kDegreeSort;
    const graph::Graph external = testGraph();
    ASSERT_TRUE(external.undirected()); // ingest mirrors every edge
    const graph::VertexId n = external.numVertices();
    std::vector<graph::Edge> slots = directedSlots(external);
    GraphStore store(testGraph(), cfg);

    graph::VertexId isolated = graph::kNoVertex;
    graph::Edge base{};
    for (graph::VertexId v = 0; v < n; ++v) {
        if (external.degree(v) == 0 && isolated == graph::kNoVertex) {
            isolated = v;
        }
        if (base.weight == 0 && external.degree(v) > 0 &&
            external.weights(v)[0] >= 2) {
            base = {v, external.neighbors(v)[0], external.weights(v)[0]};
        }
    }
    ASSERT_NE(isolated, graph::kNoVertex) << "test graph has no empty row";
    ASSERT_NE(base.weight, 0u);

    Rng rng(23);
    std::vector<std::vector<graph::Edge>> batches = {
        {{0, n - 1, 5},
         {0, 1, 3},
         {n - 1, 2, 7},
         {base.src, base.dst, base.weight - 1},
         {base.src, base.dst, base.weight + 1},
         {isolated, 0, 4},
         {isolated, n - 1, 9},
         {3, 3, 1}}, // self loop: dropped
        {{base.src, base.dst, base.weight},
         {isolated, 5, 2},
         {isolated, 5, 2},
         {n - 1, 0, 5}},
        randomBatch(&rng, n, 30),
    };
    batches.back().push_back({0, n - 1, 5});

    std::shared_ptr<const Snapshot> prev = store.snapshot();
    std::uint64_t delta_edges = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::vector<graph::Edge> prev_slots =
            directedSlots(prev->materialized());
        ASSERT_EQ(store.ingestBatch(batches[b]), Status::kOk);
        for (const graph::Edge& e : batches[b]) {
            if (e.src != e.dst) {
                slots.push_back(e);
                slots.push_back({e.dst, e.src, e.weight});
                delta_edges += 2;
            }
        }
        const std::shared_ptr<const Snapshot> snap = store.snapshot();
        EXPECT_EQ(snap->epoch(), prev->epoch() + 1);
        EXPECT_EQ(snap->deltaDepth(), b + 1);
        EXPECT_EQ(snap->deltaEdges(), delta_edges);

        graph::GraphBuilder builder(n, /*undirected=*/false);
        for (const graph::Edge& e : slots) {
            builder.addEdge(e.src, e.dst, e.weight);
        }
        const graph::Graph want = graph::permuteGraph(
            std::move(builder).build(
                graph::GraphBuilder::DedupPolicy::keepAll),
            snap->perm());
        expectSameCsr(snap->materialized(), want);

        // The pinned previous epoch is untouched by the merge.
        EXPECT_EQ(directedSlots(prev->materialized()), prev_slots);
        prev = snap;
    }
}

TEST(ServeSnapshot, CompactionIsSemanticallyInvisible)
{
    // Ingest a batch, answer queries on the merged epoch, then compact
    // (same edge multiset, re-reordered ids) and re-ask: every answer
    // must be identical although the internal id space was renumbered
    // underneath. The permutation composition must hold for every
    // ordering. A second compaction with nothing ingested is a fence:
    // a new epoch over the same graph, answering the same again.
    for (const graph::Reordering ordering : graph::allReorderings()) {
        SCOPED_TRACE(graph::reorderingName(ordering));
        StoreConfig cfg;
        cfg.num_shards = 3;
        cfg.reordering = ordering;
        GraphStore store(testGraph(), cfg);
        rt::NativeExecutor exec(2);
        QueryEngine engine(store, exec);
        const graph::VertexId n = store.snapshot()->numVertices();

        Rng rng(5);
        ASSERT_EQ(store.ingestBatch(randomBatch(&rng, n, 40)),
                  Status::kOk);
        const std::shared_ptr<const Snapshot> merged = store.snapshot();
        ASSERT_GT(merged->deltaEdges(), 0u);
        const std::uint64_t folded_epoch = store.compact();
        const std::shared_ptr<const Snapshot> folded = store.snapshot();
        ASSERT_EQ(folded->epoch(), folded_epoch);
        ASSERT_EQ(folded->deltaEdges(), 0u);
        ASSERT_EQ(folded->deltaDepth(), 0u);
        ASSERT_EQ(folded->numEdges(), merged->numEdges());
        EXPECT_EQ(externalSlots(*folded), externalSlots(*merged));

        EXPECT_EQ(store.compact(), folded_epoch + 1);
        const std::shared_ptr<const Snapshot> fence = store.snapshot();
        ASSERT_EQ(fence->epoch(), folded_epoch + 1);
        EXPECT_EQ(&fence->materialized(), &folded->materialized());
        EXPECT_EQ(&fence->perm(), &folded->perm());

        Rng pick(17);
        for (int i = 0; i < 12; ++i) {
            Request req;
            req.op = (i % 3 == 0)   ? Op::kSsspDist
                     : (i % 3 == 1) ? Op::kBfsDist
                                    : Op::kComponent;
            req.source = static_cast<graph::VertexId>(pick.nextBelow(n));
            req.target = static_cast<graph::VertexId>(pick.nextBelow(n));
            const Response a = engine.executeOn(req, merged);
            ASSERT_EQ(a.status, Status::kOk);
            for (const auto& snap : {folded, fence}) {
                const Response b = engine.executeOn(req, snap);
                ASSERT_EQ(b.status, Status::kOk);
                EXPECT_EQ(a.values, b.values)
                    << "query " << i << " epoch " << snap->epoch();
            }
        }

        // Top-k answers must also match: canonical external-id
        // ordering makes them independent of the internal renumbering.
        Request topk;
        topk.op = Op::kTopDegree;
        topk.k = 10;
        const Response ta = engine.executeOn(topk, merged);
        for (const auto& snap : {folded, fence}) {
            const Response tb = engine.executeOn(topk, snap);
            EXPECT_EQ(ta.values, tb.values);
            EXPECT_EQ(ta.vertices, tb.vertices);
        }
    }
}

TEST(ServeSnapshot, ConcurrentClientsAgainstLiveIngest)
{
    // The tentpole stress: 8 closed-loop clients against a running
    // server while the store churns epochs underneath. Snapshot
    // isolation over the wire means: any two kOk responses for the
    // same (op, source, target) carrying the same epoch must carry
    // the same values. We record every answer and verify globally.
    StoreConfig cfg;
    cfg.num_shards = 4;
    cfg.reordering = graph::Reordering::kDegreeSort;
    cfg.compact_batches = 4; // force auto-compactions mid-run
    GraphStore store(testGraph(), cfg);
    rt::NativeExecutor exec(2);
    ServerConfig scfg;
    scfg.num_workers = 2;
    scfg.query.nthreads = 2;
    scfg.query.pagerank_iterations = 5;
    Server server(store, exec, scfg);
    server.start();

    const graph::VertexId n = store.snapshot()->numVertices();
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 40;

    // (op, source, target, epoch) -> value; shared verification map.
    using Key = std::tuple<int, graph::VertexId, graph::VertexId,
                           std::uint64_t>;
    std::mutex seen_mutex;
    std::map<Key, std::vector<std::uint64_t>> seen;
    std::atomic<int> violations{0};
    std::atomic<int> errors{0};

    const auto clientBody = [&](int cid) {
        Client client(server);
        Rng rng(1000 + static_cast<std::uint64_t>(cid));
        std::uint64_t last_epoch = 0;
        for (int i = 0; i < kRequestsPerClient; ++i) {
            Request req;
            const int pick = static_cast<int>(rng.nextBelow(4));
            req.op = pick == 0   ? Op::kSsspDist
                     : pick == 1 ? Op::kBfsDist
                     : pick == 2 ? Op::kComponent
                                 : Op::kRankScore;
            // Few distinct sources: collisions across clients are the
            // point — the same key must reproduce per epoch.
            req.source = static_cast<graph::VertexId>(
                rng.nextBelow(8));
            req.target = static_cast<graph::VertexId>(
                rng.nextBelow(n));
            const Response resp = client.call(req);
            if (resp.status != Status::kOk ||
                resp.values.size() != 1) {
                ++errors;
                continue;
            }
            // A client's sequential calls may never travel back in
            // time: snapshots only move forward.
            if (resp.epoch < last_epoch) {
                ++violations;
            }
            last_epoch = resp.epoch;
            const Key key{static_cast<int>(req.op), req.source,
                          req.op == Op::kComponent ||
                                  req.op == Op::kRankScore
                              ? 0
                              : req.target,
                          resp.epoch};
            const std::lock_guard<std::mutex> lock(seen_mutex);
            seen[key].push_back(resp.values[0]);
        }
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back(clientBody, c);
    }

    // The mutator: ingest through its own wire client (exercising the
    // server's ingest thread), letting auto-compaction trigger.
    std::atomic<bool> stop_ingest{false};
    std::thread mutator([&] {
        Client client(server);
        Rng rng(31337);
        while (!stop_ingest.load()) {
            Request req;
            req.op = Op::kIngest;
            req.edges = randomBatch(&rng, n, 8);
            const Response resp = client.call(req);
            if (resp.status != Status::kOk) {
                ++errors;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });

    for (std::thread& t : clients) {
        t.join();
    }
    stop_ingest = true;
    mutator.join();
    server.stop();

    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(violations.load(), 0);
    // Snapshot isolation: per (query, epoch) exactly one answer.
    std::size_t multi = 0;
    for (const auto& [key, values] : seen) {
        for (const std::uint64_t v : values) {
            EXPECT_EQ(v, values.front())
                << "epoch " << std::get<3>(key) << " op "
                << std::get<0>(key);
        }
        if (values.size() > 1) {
            ++multi;
        }
    }
    // The few-sources pool guarantees actual cross-client collisions;
    // if nothing collided the assertion above was vacuous.
    EXPECT_GT(multi, 0u);
    EXPECT_GT(store.stats().epoch, 1u);
}

TEST(ServeSnapshot, ServerStopRejectsCleanly)
{
    // Queries racing a stop() must either complete kOk or come back
    // kRejected — never hang, never crash.
    GraphStore store(testGraph(), StoreConfig{});
    rt::NativeExecutor exec(2);
    Server server(store, exec);
    server.start();

    std::atomic<int> finished{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&server, &finished, c] {
            Client client(server);
            Rng rng(static_cast<std::uint64_t>(c));
            for (int i = 0; i < 50; ++i) {
                Request req;
                req.op = Op::kSsspDist;
                req.source = static_cast<graph::VertexId>(
                    rng.nextBelow(64));
                req.target = static_cast<graph::VertexId>(
                    rng.nextBelow(64));
                const Response resp = client.call(req);
                if (resp.status != Status::kOk &&
                    resp.status != Status::kRejected) {
                    ADD_FAILURE() << statusName(resp.status);
                }
                ++finished;
            }
        });
    }
    // Stop mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop();
    for (std::thread& t : clients) {
        t.join();
    }
    EXPECT_EQ(finished.load(), 4 * 50);
}

} // namespace
} // namespace crono::serve
