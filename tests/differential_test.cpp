/**
 * @file
 * Randomized differential harness for the reordering subsystem
 * (ISSUE 5): for a sweep of seeds, generate road / uniform / social
 * graphs, relabel them under every Reordering, run all ten kernels
 * under their FrontierMode / PageRankMode sweeps, and check the
 * results are permutation-invariant against the
 * core::sequential oracles computed on the ORIGINAL graph:
 *
 *  - exact equality after inverse-mapping for distances, levels,
 *    component labels (canonicalized to min original member),
 *    betweenness counts, APSP entries and scalar invariants
 *    (triangle count, TSP cost, MCS size);
 *  - ASSERT_NEAR for PageRank (relabeling permutes the summation
 *    order of a floating-point reduction);
 *  - validity predicates for tie-broken quantities (BFS/DFS parent
 *    trees, community partitions) that may legitimately differ.
 *
 * Seed counts come from CRONO_DIFF_SEEDS / CRONO_DIFF_SIM_SEEDS so CI
 * can run a reduced sweep under TSan. Simulator suites carry "Sim" in
 * their name for the TSan filter (fibers and TSan do not mix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/sequential.h"
#include "core/suite.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "runtime/executor.h"
#include "serve/query.h"
#include "serve/server.h"
#include "serve/store.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

namespace gen = graph::generators;
using graph::Reordering;
using graph::VertexId;
using graph::VertexPermutation;
using rt::FrontierMode;

const FrontierMode kAllModes[] = {FrontierMode::kFlagScan,
                                  FrontierMode::kSparse,
                                  FrontierMode::kAdaptive};

int
envInt(const char* name, int fallback)
{
    const char* const s = std::getenv(name);
    if (s == nullptr || *s == '\0') {
        return fallback;
    }
    const int v = std::atoi(s);
    return v > 0 ? v : fallback;
}

int
nativeSeeds()
{
    return envInt("CRONO_DIFF_SEEDS", 8);
}

int
simSeeds()
{
    return envInt("CRONO_DIFF_SIM_SEEDS", 2);
}

const std::string kFamilies[] = {"road", "uniform", "social"};

graph::Graph
diffGraph(const std::string& family, std::uint64_t seed, bool small)
{
    if (family == "road") {
        const VertexId side = small ? 12 : 16 + seed % 5;
        return gen::roadNetwork(side, side, seed);
    }
    if (family == "uniform") {
        const VertexId n =
            small ? 200 : static_cast<VertexId>(250 + 40 * (seed % 5));
        return gen::uniformRandom(n, 5 * n, 32, seed);
    }
    if (family == "social") {
        return gen::socialNetwork(small ? 8 : 9, 6, seed + 1);
    }
    ADD_FAILURE() << "unknown family " << family;
    return gen::path(2);
}

VertexPermutation
matrixPermutation(VertexId n, std::uint64_t seed)
{
    // Deterministic label-shuffle for the dense-matrix kernels, which
    // have no degree structure worth ordering by: a fixed multiplier
    // walk hits every id exactly once when stride is coprime with n.
    AlignedVector<VertexId> order(n);
    VertexId stride = static_cast<VertexId>(seed % n);
    while (std::gcd(static_cast<VertexId>(n), ++stride) != 1) {
    }
    for (VertexId v = 0; v < n; ++v) {
        order[v] = static_cast<VertexId>(
            (static_cast<std::uint64_t>(v) * stride + seed) % n);
    }
    return VertexPermutation(std::move(order));
}

/** parent[] must encode a valid BFS tree for the given levels. */
void
checkBfsTree(const graph::Graph& g, const core::BfsResult& res,
             VertexId source)
{
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (res.level[v] == core::kNoLevel || v == source) {
            continue;
        }
        const VertexId p = res.parent[v];
        ASSERT_NE(p, graph::kNoVertex) << "v " << v;
        ASSERT_EQ(res.level[p] + 1, res.level[v]) << "v " << v;
        bool adjacent = false;
        for (const VertexId u : g.neighbors(p)) {
            if (u == v) {
                adjacent = true;
                break;
            }
        }
        ASSERT_TRUE(adjacent) << "parent " << p << " of " << v;
    }
}

/** Component labels canonicalized to the min original member id. */
AlignedVector<VertexId>
canonicalComponents(const AlignedVector<VertexId>& label_new,
                    const VertexPermutation& perm)
{
    const AlignedVector<VertexId> label_old = perm.valuesToOld(
        std::span<const VertexId>(label_new.data(), label_new.size()));
    std::map<VertexId, VertexId> repr;
    for (VertexId v = 0; v < label_old.size(); ++v) {
        auto [it, fresh] = repr.emplace(label_old[v], v);
        if (!fresh && v < it->second) {
            it->second = v;
        }
    }
    AlignedVector<VertexId> canon(label_old.size());
    for (VertexId v = 0; v < label_old.size(); ++v) {
        canon[v] = repr.at(label_old[v]);
    }
    return canon;
}

template <class T>
std::span<const T>
asSpan(const AlignedVector<T>& v)
{
    return {v.data(), v.size()};
}

// ----------------------------------------------- per-kernel checkers

template <class Exec>
void
checkSssp(Exec& exec, int threads, const graph::Graph& g,
          const graph::ReorderedGraph& rg,
          std::span<const FrontierMode> modes)
{
    const std::vector<graph::Dist> oracle = core::seq::sssp(g, 0);
    for (const FrontierMode mode : modes) {
        SCOPED_TRACE(rt::frontierModeName(mode));
        const auto res = core::sssp(exec, threads, rg.graph,
                                    rg.perm.toNew(0), nullptr, mode);
        const auto dist = rg.perm.valuesToOld(asSpan(res.dist));
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(dist[v], oracle[v]) << "v " << v;
        }
    }
    // Delta-stepping: the auto-tuned width plus the two degenerate
    // corners — delta=1 (everything heavy, near-Dijkstra bucket
    // order) and a width past the weight range (everything light,
    // Bellman-Ford-style single bucket).
    for (const graph::Dist delta :
         {graph::Dist{0}, graph::Dist{1}, graph::Dist{1} << 20}) {
        SCOPED_TRACE("delta=" + std::to_string(delta));
        const auto res = core::deltaSteppingSssp(
            exec, threads, rg.graph, rg.perm.toNew(0), nullptr, delta);
        const auto dist = rg.perm.valuesToOld(asSpan(res.dist));
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(dist[v], oracle[v]) << "v " << v;
        }
    }
}

template <class Exec>
void
checkBfs(Exec& exec, int threads, const graph::Graph& g,
         const graph::ReorderedGraph& rg,
         std::span<const FrontierMode> modes)
{
    const std::vector<std::uint32_t> oracle = core::seq::bfsLevels(g, 0);
    for (const FrontierMode mode : modes) {
        SCOPED_TRACE(rt::frontierModeName(mode));
        const auto res =
            core::bfs(exec, threads, rg.graph, rg.perm.toNew(0),
                      graph::kNoVertex, nullptr, mode);
        const auto level = rg.perm.valuesToOld(asSpan(res.level));
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(level[v], oracle[v]) << "v " << v;
        }
        // Parents are tie-broken (push races, pull takes first
        // in-front): validity predicate in the relabeled space instead
        // of equality.
        checkBfsTree(rg.graph, res, rg.perm.toNew(0));
    }
}

template <class Exec>
void
checkDfs(Exec& exec, int threads, const graph::Graph& g,
         const graph::ReorderedGraph& rg)
{
    const std::uint64_t reachable = core::seq::reachableCount(g, 0);
    const VertexId src = rg.perm.toNew(0);
    const auto res = core::dfs(exec, threads, rg.graph, src);
    EXPECT_EQ(res.visited, reachable);
    for (VertexId v = 0; v < rg.graph.numVertices(); ++v) {
        if (res.order[v] == core::kNotVisited) {
            ASSERT_EQ(res.parent[v], graph::kNoVertex) << "v " << v;
            continue;
        }
        if (v == src) {
            continue;
        }
        // The discovery tree is tie-broken by branch scheduling:
        // validity predicate — the parent was visited first and is
        // adjacent.
        const VertexId p = res.parent[v];
        ASSERT_NE(p, graph::kNoVertex) << "v " << v;
        ASSERT_NE(res.order[p], core::kNotVisited) << "v " << v;
        ASSERT_LT(res.order[p], res.order[v]) << "v " << v;
        bool adjacent = false;
        for (const VertexId u : rg.graph.neighbors(p)) {
            if (u == v) {
                adjacent = true;
                break;
            }
        }
        ASSERT_TRUE(adjacent) << "parent " << p << " of " << v;
    }
}

template <class Exec>
void
checkConnComp(Exec& exec, int threads, const graph::Graph& g,
              const graph::ReorderedGraph& rg,
              std::span<const FrontierMode> modes)
{
    const std::vector<VertexId> oracle = core::seq::componentLabels(g);
    for (const FrontierMode mode : modes) {
        SCOPED_TRACE(rt::frontierModeName(mode));
        const auto res = core::connectedComponents(exec, threads,
                                                   rg.graph, nullptr, mode);
        // The parallel kernel converges to min NEW id per component,
        // which maps back to an arbitrary member: canonicalize both
        // sides to the min ORIGINAL member before comparing.
        const auto canon = canonicalComponents(res.label, rg.perm);
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(canon[v], oracle[v]) << "v " << v;
        }
    }
}

template <class Exec>
void
checkTriangles(Exec& exec, int threads, const graph::Graph& g,
               const graph::ReorderedGraph& rg)
{
    const auto res = core::triangleCount(exec, threads, rg.graph);
    EXPECT_EQ(res.total, core::seq::triangleCount(g));
}

template <class Exec>
void
checkPageRank(Exec& exec, int threads, const graph::Graph& g,
              const graph::ReorderedGraph& rg)
{
    const unsigned iters = 5;
    const std::vector<double> oracle =
        core::seq::pageRank(g, iters, 0.15);
    for (const core::PageRankMode mode :
         {core::PageRankMode::kScatter, core::PageRankMode::kGather}) {
        SCOPED_TRACE(mode == core::PageRankMode::kGather ? "gather"
                                                         : "scatter");
        const auto res = core::pageRank(exec, threads, rg.graph, iters,
                                        0.15, nullptr, mode);
        const auto rank = rg.perm.valuesToOld(asSpan(res.rank));
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            // Relabeling permutes the FP summation order, so exact
            // equality is not defined.
            ASSERT_NEAR(rank[v], oracle[v], 1e-9) << "v " << v;
        }
    }
}

template <class Exec>
void
checkCommunity(Exec& exec, int threads, const graph::Graph& g,
               const graph::ReorderedGraph& rg)
{
    const auto res = core::communityDetection(exec, threads, rg.graph, 8);
    // The partition is heuristic and may legitimately differ between
    // orderings; the validity predicate is structural: labels form a
    // partition whose modularity — a labeling-invariant functional —
    // reproduces the kernel's reported value on the ORIGINAL graph.
    const auto comm_old = rg.perm.valuesToOld(asSpan(res.community));
    EXPECT_NEAR(core::communityModularity(g, comm_old), res.modularity,
                1e-9);
    EXPECT_GE(res.modularity, -0.5);
    EXPECT_LE(res.modularity, 1.0);
}

template <class Exec>
void
checkApsp(Exec& exec, int threads, const graph::AdjacencyMatrix& m,
          const VertexPermutation& perm,
          std::span<const FrontierMode> modes)
{
    const std::vector<graph::Dist> oracle = core::seq::apsp(m);
    const graph::AdjacencyMatrix pm = graph::permuteMatrix(m, perm);
    const VertexId n = m.numVertices();
    for (const FrontierMode mode : modes) {
        SCOPED_TRACE(rt::frontierModeName(mode));
        const auto res = core::apsp(exec, threads, pm, nullptr, mode);
        for (VertexId a = 0; a < n; ++a) {
            for (VertexId b = 0; b < n; ++b) {
                ASSERT_EQ(res.at(perm.toNew(a), perm.toNew(b)),
                          oracle[static_cast<std::size_t>(a) * n + b])
                    << a << "->" << b;
            }
        }
    }
}

template <class Exec>
void
checkBetweenness(Exec& exec, int threads,
                 const graph::AdjacencyMatrix& m,
                 const VertexPermutation& perm)
{
    const std::vector<std::uint64_t> oracle = core::seq::betweenness(m);
    const graph::AdjacencyMatrix pm = graph::permuteMatrix(m, perm);
    const auto res = core::betweenness(exec, threads, pm);
    const auto counts = perm.valuesToOld(asSpan(res.centrality));
    for (VertexId v = 0; v < m.numVertices(); ++v) {
        ASSERT_EQ(counts[v], oracle[v]) << "v " << v;
    }
}

template <class Exec>
void
checkTsp(Exec& exec, int threads, const graph::AdjacencyMatrix& cities,
         const VertexPermutation& perm)
{
    const std::uint64_t oracle = core::seq::tspCost(cities);
    const graph::AdjacencyMatrix pc = graph::permuteMatrix(cities, perm);
    const auto res = core::tsp(exec, threads, pc);
    // The optimal tour cost is invariant under city relabeling; the
    // tour itself is tie-broken, so only the cost is compared.
    EXPECT_EQ(res.cost, oracle);
}

graph::LabeledMatrix
permuteLabeled(const graph::LabeledMatrix& g,
               const VertexPermutation& perm)
{
    graph::LabeledMatrix out(g.adj.numVertices());
    out.adj = graph::permuteMatrix(g.adj, perm);
    for (VertexId v = 0; v < g.adj.numVertices(); ++v) {
        out.labels[perm.toNew(v)] = g.labels[v];
    }
    return out;
}

template <class Exec>
void
checkMcs(Exec& exec, int threads, const graph::LabeledMatrix& pattern,
         const graph::LabeledMatrix& target,
         const VertexPermutation& pperm, const VertexPermutation& tperm)
{
    const std::uint64_t oracle = core::seq::mcsSize(pattern, target);
    const graph::LabeledMatrix pp = permuteLabeled(pattern, pperm);
    const graph::LabeledMatrix pt = permuteLabeled(target, tperm);
    // The maximum common subgraph size is invariant under relabeling
    // of either side; the mapping itself is tie-broken. Run both the
    // default donation config and deterministic replay.
    const auto res = core::mcs(exec, threads, pp, pt);
    EXPECT_EQ(res.size, oracle);
    rt::bnb::SearchConfig replay;
    replay.deterministic = true;
    const auto rep =
        core::mcs(exec, threads, pp, pt, nullptr, replay);
    EXPECT_EQ(rep.size, oracle);
}

// ----------------------------------------------------- native sweeps

class Differential : public ::testing::TestWithParam<std::string> {
  protected:
    static constexpr int kThreads = 4;

    template <class Fn>
    void
    sweep(Fn&& fn)
    {
        rt::NativeExecutor exec(kThreads);
        for (int seed = 0; seed < nativeSeeds(); ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            const graph::Graph g = diffGraph(
                GetParam(), static_cast<std::uint64_t>(seed), false);
            for (const Reordering r : graph::allReorderings()) {
                SCOPED_TRACE(graph::reorderingName(r));
                const graph::ReorderedGraph rg = graph::reorderGraph(g, r);
                fn(exec, g, rg);
            }
        }
    }
};

TEST_P(Differential, Sssp)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkSssp(exec, kThreads, g, rg, kAllModes);
    });
}

TEST_P(Differential, Bfs)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkBfs(exec, kThreads, g, rg, kAllModes);
    });
}

TEST_P(Differential, Dfs)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkDfs(exec, kThreads, g, rg);
    });
}

TEST_P(Differential, ConnComp)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkConnComp(exec, kThreads, g, rg, kAllModes);
    });
}

TEST_P(Differential, Triangles)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkTriangles(exec, kThreads, g, rg);
    });
}

TEST_P(Differential, PageRank)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkPageRank(exec, kThreads, g, rg);
    });
}

TEST_P(Differential, Community)
{
    sweep([&](rt::NativeExecutor& exec, const graph::Graph& g,
              const graph::ReorderedGraph& rg) {
        checkCommunity(exec, kThreads, g, rg);
    });
}

INSTANTIATE_TEST_SUITE_P(Families, Differential,
                         ::testing::ValuesIn(kFamilies));

TEST(DifferentialMatrix, ApspBetweennessTspMcs)
{
    constexpr int kThreads = 4;
    rt::NativeExecutor exec(kThreads);
    for (int seed = 0; seed < nativeSeeds(); ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto s = static_cast<std::uint64_t>(seed);
        const graph::AdjacencyMatrix m(
            gen::uniformRandom(20, 140, 64, s + 3));
        const graph::AdjacencyMatrix cities = gen::tspCities(7, s + 4);
        const graph::LabeledMatrix pattern =
            gen::labeledGraph(6, 12, 2, s + 5);
        const graph::LabeledMatrix target =
            gen::labeledGraph(7, 14, 2, s + 6);
        // >= 3 "orderings" per seed: identity plus two label shuffles
        // (dense inputs have no degree structure to order by).
        for (const std::uint64_t pseed : {std::uint64_t{0}, s * 2 + 1,
                                          s * 2 + 2}) {
            SCOPED_TRACE("perm " + std::to_string(pseed));
            const VertexPermutation perm =
                pseed == 0 ? VertexPermutation::identity(20)
                           : matrixPermutation(20, pseed);
            const VertexPermutation cperm =
                pseed == 0 ? VertexPermutation::identity(7)
                           : matrixPermutation(7, pseed);
            const VertexPermutation mperm =
                pseed == 0 ? VertexPermutation::identity(6)
                           : matrixPermutation(6, pseed);
            checkApsp(exec, kThreads, m, perm, kAllModes);
            checkBetweenness(exec, kThreads, m, perm);
            checkTsp(exec, kThreads, cities, cperm);
            checkMcs(exec, kThreads, pattern, target, mperm, cperm);
        }
    }
}

// -------------------------------------------------------- sim sweeps

/**
 * The same differential properties under the simulated Ctx, on
 * catalog-size inputs (the simulator models every shared access):
 * proof that the reordered paths' ctx.read/write discipline
 * did not change any algorithm. Reduced ordering set and seed count;
 * suite named "Sim" for the TSan filter.
 */
class DifferentialSim : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialSim, AllCsrKernels)
{
    constexpr int kThreads = 4;
    const Reordering kOrderings[] = {Reordering::kNone,
                                     Reordering::kDegreeSort,
                                     Reordering::kRcm};
    const FrontierMode kSimModes[] = {FrontierMode::kFlagScan,
                                      FrontierMode::kAdaptive};
    sim::Machine machine(test::smallSimConfig());
    for (int seed = 0; seed < simSeeds(); ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const graph::Graph g = diffGraph(
            GetParam(), static_cast<std::uint64_t>(seed), true);
        for (const Reordering r : kOrderings) {
            SCOPED_TRACE(graph::reorderingName(r));
            const graph::ReorderedGraph rg = graph::reorderGraph(g, r);
            checkSssp(machine, kThreads, g, rg,
                      std::span<const FrontierMode>(kSimModes, 1));
            checkBfs(machine, kThreads, g, rg, kSimModes);
            checkDfs(machine, kThreads, g, rg);
            checkConnComp(machine, kThreads, g, rg, kSimModes);
            checkTriangles(machine, kThreads, g, rg);
            checkPageRank(machine, kThreads, g, rg);
            checkCommunity(machine, kThreads, g, rg);
        }
    }
}

TEST(DifferentialSimMatrix, ApspBetweennessTspMcs)
{
    constexpr int kThreads = 4;
    sim::Machine machine(test::smallSimConfig());
    for (int seed = 0; seed < simSeeds(); ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto s = static_cast<std::uint64_t>(seed);
        const graph::AdjacencyMatrix m(
            gen::uniformRandom(16, 96, 64, s + 3));
        const graph::AdjacencyMatrix cities = gen::tspCities(6, s + 4);
        const graph::LabeledMatrix pattern =
            gen::labeledGraph(5, 9, 2, s + 5);
        const graph::LabeledMatrix target =
            gen::labeledGraph(6, 11, 2, s + 6);
        for (const std::uint64_t pseed :
             {std::uint64_t{0}, s * 2 + 1, s * 2 + 2}) {
            SCOPED_TRACE("perm " + std::to_string(pseed));
            const VertexPermutation perm =
                pseed == 0 ? VertexPermutation::identity(16)
                           : matrixPermutation(16, pseed);
            const VertexPermutation cperm =
                pseed == 0 ? VertexPermutation::identity(6)
                           : matrixPermutation(6, pseed);
            const VertexPermutation mperm =
                pseed == 0 ? VertexPermutation::identity(5)
                           : matrixPermutation(5, pseed);
            checkApsp(machine, kThreads, m, perm,
                      std::span<const FrontierMode>(kAllModes, 1));
            checkBetweenness(machine, kThreads, m, perm);
            checkTsp(machine, kThreads, cities, cperm);
            checkMcs(machine, kThreads, pattern, target, mperm, cperm);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Families, DifferentialSim,
                         ::testing::ValuesIn(kFamilies));

// ------------------------------------------------ serve oracle sweeps

/**
 * The external-space graph a serve epoch must equal: the original
 * edges plus every accepted ingest edge. Self-loops are dropped on
 * both paths (GraphBuilder::addEdge and GraphStore::ingestBatch),
 * parallel edges are kept on both (DedupPolicy::keepAll in the store's
 * compaction), so this reconstruction is exact, not approximate.
 */
graph::Graph
epochOracleGraph(const graph::Graph& original,
                 std::span<const graph::Edge> ingested)
{
    graph::GraphBuilder b(original.numVertices(), /*undirected=*/true);
    for (VertexId v = 0; v < original.numVertices(); ++v) {
        const std::span<const VertexId> nbr = original.neighbors(v);
        const std::span<const graph::Weight> w = original.weights(v);
        for (std::size_t i = 0; i < nbr.size(); ++i) {
            if (v < nbr[i]) { // each undirected edge once; re-mirrored
                b.addEdge(v, nbr[i], w[i]);
            }
        }
    }
    for (const graph::Edge& e : ingested) {
        if (e.src != e.dst) {
            b.addEdge(e.src, e.dst, e.weight);
        }
    }
    return std::move(b).build(graph::GraphBuilder::DedupPolicy::keepAll);
}

/** Top-k degree order with the wire tie-break (score desc, id asc). */
std::vector<std::pair<std::uint64_t, VertexId>>
oracleTopDegree(const graph::Graph& g, std::uint32_t k)
{
    std::vector<std::pair<std::uint64_t, VertexId>> order;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        order.emplace_back(g.degree(v), v);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    order.resize(std::min<std::size_t>(order.size(), k));
    return order;
}

/**
 * Every wire answer at one epoch must match the core::seq oracles run
 * offline on that epoch's external-space graph — the serve analogue of
 * the kernel sweeps above, proving the ingest merge, compaction,
 * permutation plumbing and response encoding introduced no drift.
 */
void
checkServeOracle(serve::Client& client, const graph::Graph& oracle_g,
                 unsigned pr_iters)
{
    const VertexId n = oracle_g.numVertices();
    const VertexId src = 1;
    const std::vector<graph::Dist> sssp =
        core::seq::sssp(oracle_g, src);
    const std::vector<std::uint32_t> bfs =
        core::seq::bfsLevels(oracle_g, src);
    const std::vector<VertexId> comp =
        core::seq::componentLabels(oracle_g);
    const std::vector<double> rank =
        core::seq::pageRank(oracle_g, pr_iters, 0.15);

    Rng pick(2024);
    for (int i = 0; i < 16; ++i) {
        const auto t =
            static_cast<VertexId>(pick.nextBelow(n));
        serve::Request req;
        req.op = serve::Op::kSsspDist;
        req.source = src;
        req.target = t;
        serve::Response r = client.call(req);
        ASSERT_EQ(r.status, serve::Status::kOk);
        ASSERT_EQ(r.values.size(), 1u);
        const std::uint64_t want = sssp[t] == graph::kInfDist
                                       ? serve::kNoValue
                                       : sssp[t];
        ASSERT_EQ(r.values[0], want) << "sssp target " << t;

        req = {};
        req.op = serve::Op::kBfsDist;
        req.source = src;
        req.target = t;
        r = client.call(req);
        ASSERT_EQ(r.status, serve::Status::kOk);
        const std::uint64_t want_bfs =
            bfs[t] == core::kNoLevel ? serve::kNoValue : bfs[t];
        ASSERT_EQ(r.values.at(0), want_bfs) << "bfs target " << t;

        req = {};
        req.op = serve::Op::kComponent;
        req.source = t;
        r = client.call(req);
        ASSERT_EQ(r.status, serve::Status::kOk);
        ASSERT_EQ(r.values.at(0), comp[t]) << "component of " << t;

        req = {};
        req.op = serve::Op::kRankScore;
        req.source = t;
        r = client.call(req);
        ASSERT_EQ(r.status, serve::Status::kOk);
        const double got =
            std::bit_cast<double>(r.values.at(0));
        // Reordering permutes the FP summation; same bound as the
        // kernel-level PageRank differential above.
        ASSERT_NEAR(got, rank[t], 1e-9) << "rank of " << t;
    }

    // Batch lookup: one wire round trip, every slot oracle-checked.
    serve::Request batch;
    batch.op = serve::Op::kSsspBatch;
    batch.source = src;
    for (int i = 0; i < 24; ++i) {
        batch.targets.push_back(
            static_cast<VertexId>(pick.nextBelow(n)));
    }
    const std::vector<VertexId> targets = batch.targets;
    const serve::Response br = client.call(std::move(batch));
    ASSERT_EQ(br.status, serve::Status::kOk);
    ASSERT_EQ(br.values.size(), targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const graph::Dist d = sssp[targets[i]];
        ASSERT_EQ(br.values[i],
                  d == graph::kInfDist ? serve::kNoValue : d)
            << "batch slot " << i;
    }

    // Top-k degree centrality: scores AND canonical id order.
    serve::Request topk;
    topk.op = serve::Op::kTopDegree;
    topk.k = 12;
    const serve::Response tr = client.call(topk);
    ASSERT_EQ(tr.status, serve::Status::kOk);
    const auto want_top = oracleTopDegree(oracle_g, topk.k);
    ASSERT_EQ(tr.vertices.size(), want_top.size());
    for (std::size_t i = 0; i < want_top.size(); ++i) {
        EXPECT_EQ(tr.values[i], want_top[i].first) << "rank " << i;
        EXPECT_EQ(tr.vertices[i], want_top[i].second) << "rank " << i;
    }
}

TEST(DifferentialServe, WireAnswersMatchSequentialOracles)
{
    constexpr unsigned kPrIters = 5;
    rt::NativeExecutor exec(2);

    // The deterministic ingest batch applied mid-test (external ids;
    // includes a self-loop both paths must drop).
    std::vector<graph::Edge> batch;
    Rng rng(123);
    const graph::Graph original = gen::socialNetwork(8, 6, 11);
    const VertexId n = original.numVertices();
    batch.push_back({3, 3, 9}); // self-loop: dropped everywhere
    for (int i = 0; i < 24; ++i) {
        batch.push_back(
            {static_cast<VertexId>(rng.nextBelow(n)),
             static_cast<VertexId>(rng.nextBelow(n)),
             static_cast<graph::Weight>(1 + rng.nextBelow(32))});
    }
    const graph::Graph after = epochOracleGraph(original, batch);

    for (const Reordering r : graph::allReorderings()) {
        SCOPED_TRACE(graph::reorderingName(r));
        for (const int shards : {1, 3, 8}) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            serve::StoreConfig cfg;
            cfg.num_shards = shards;
            cfg.reordering = r;
            // Same generator call, same seed: the store serves an
            // identical copy of `original`.
            serve::GraphStore store(gen::socialNetwork(8, 6, 11), cfg);
            serve::ServerConfig scfg;
            scfg.num_workers = 2;
            scfg.query.nthreads = 2;
            scfg.query.pagerank_iterations = kPrIters;
            serve::Server server(store, exec, scfg);
            server.start();
            serve::Client client(server);

            checkServeOracle(client, original, kPrIters);

            // Ingest over the wire, re-check against the offline
            // reconstruction of the grown epoch...
            serve::Request ingest;
            ingest.op = serve::Op::kIngest;
            ingest.edges = batch;
            const serve::Response ir = client.call(std::move(ingest));
            ASSERT_EQ(ir.status, serve::Status::kOk);
            checkServeOracle(client, after, kPrIters);

            // ...and once more after a forced compaction rebuilt the
            // base under this reordering: same answers exactly.
            serve::Request compact;
            compact.op = serve::Op::kCompact;
            ASSERT_EQ(client.call(compact).status, serve::Status::kOk);
            checkServeOracle(client, after, kPrIters);

            server.stop();
        }
    }
}

} // namespace
} // namespace crono
