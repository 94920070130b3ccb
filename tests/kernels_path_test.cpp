/**
 * @file
 * Path-planning kernel tests: SSSP, APSP, betweenness centrality.
 * Each kernel is checked against its sequential reference over the
 * full graph catalog and a sweep of thread counts, plus invariant
 * (property) tests that hold regardless of scheduling.
 */

#include <gtest/gtest.h>

#include "core/apsp.h"
#include "graph/builder.h"
#include "core/betweenness.h"
#include "core/delta_stepping.h"
#include "core/sequential.h"
#include "core/sssp.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using test::GraphThreads;

/** SSSP through @p algo's entry point, each at its default width. */
template <class Exec>
core::SsspResult
runSssp(core::SsspAlgo algo, Exec& exec, int threads,
        const graph::Graph& g, graph::VertexId source)
{
    if (algo == core::SsspAlgo::kDeltaStep) {
        return core::deltaSteppingSssp(exec, threads, g, source);
    }
    return core::sssp(exec, threads, g, source);
}

/**
 * Property: every reached non-source vertex has a parent edge that
 * exists and is tight (dist[p] + w == dist[v]), and following parents
 * from any reached vertex ends at the source: the parent graph has no
 * cycle.
 */
void
expectShortestPathTree(const graph::Graph& g,
                       const core::SsspResult& result,
                       graph::VertexId source, const std::string& label)
{
    const graph::VertexId n = g.numVertices();
    ASSERT_EQ(result.parent[source], source) << label;
    for (graph::VertexId v = 0; v < n; ++v) {
        if (v == source || result.dist[v] == graph::kInfDist) {
            continue;
        }
        const graph::VertexId p = result.parent[v];
        ASSERT_NE(p, graph::kNoVertex) << label << " vertex " << v;
        bool edge_found = false;
        auto ns = g.neighbors(p);
        auto ws = g.weights(p);
        for (std::size_t i = 0; i < ns.size(); ++i) {
            if (ns[i] == v &&
                result.dist[p] + ws[i] == result.dist[v]) {
                edge_found = true;
                break;
            }
        }
        EXPECT_TRUE(edge_found) << label << " vertex " << v;
        graph::VertexId hops = 0;
        for (graph::VertexId x = v; x != source; x = result.parent[x]) {
            ASSERT_LT(hops++, n) << label << " parent cycle through " << v;
        }
    }
}

using GraphThreadsAlgo = std::tuple<std::string, int, core::SsspAlgo>;

std::string
graphThreadsAlgoName(const ::testing::TestParamInfo<GraphThreadsAlgo>& info)
{
    const auto [name, threads, algo] = info.param;
    return test::graphThreadsName({{name, threads}, info.index}) + "_" +
           core::ssspAlgoName(algo);
}

class SsspParamTest : public ::testing::TestWithParam<GraphThreadsAlgo> {};

TEST_P(SsspParamTest, MatchesDijkstraOnNativeThreads)
{
    const auto [name, threads, algo] = GetParam();
    const graph::Graph g = test::makeGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result = runSssp(algo, exec, threads, g, 0);
    const auto expect = core::seq::sssp(g, 0);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.dist[v], expect[v])
            << name << " vertex " << v;
    }
}

TEST_P(SsspParamTest, ParentTreeIsConsistent)
{
    const auto [name, threads, algo] = GetParam();
    const graph::Graph g = test::makeGraph(name);
    rt::NativeExecutor exec(threads);
    expectShortestPathTree(g, runSssp(algo, exec, threads, g, 0), 0, name);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, SsspParamTest,
    ::testing::Combine(::testing::Values("path", "ring", "star", "grid",
                                         "cliques", "sparse", "road",
                                         "social"),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(core::SsspAlgo::kWorkList,
                                         core::SsspAlgo::kDeltaStep)),
    graphThreadsAlgoName);

/**
 * A zero-weight cycle 1 -> 2 -> 3 -> 1 reachable from source 0, a
 * zero-weight pair 4 <-> 5 behind it, and vertex 6 reached only
 * through the cycle. Vertices 2, 3 and 5 have only zero-weight tight
 * in-edges.
 */
graph::Graph
zeroCycleGraph(bool undirected)
{
    graph::GraphBuilder b(7, undirected);
    b.addEdge(0, 1, 3);
    b.addEdge(1, 2, 0);
    b.addEdge(2, 3, 0);
    b.addEdge(3, 1, 0);
    b.addEdge(3, 4, 2);
    b.addEdge(4, 5, 0);
    b.addEdge(5, 4, 0);
    b.addEdge(0, 5, 9);
    b.addEdge(2, 6, 1);
    return std::move(b).build();
}

/** The catalog's sparse graph as a directed CSR with weights w % 3:
 *  about a third of the edges weigh 0, and both directions of each
 *  are present, so zero-weight cycles abound. */
graph::Graph
zeroHeavySparseGraph()
{
    const graph::Graph base = test::makeGraph("sparse");
    graph::GraphBuilder b(base.numVertices(), false);
    for (graph::VertexId u = 0; u < base.numVertices(); ++u) {
        auto ns = base.neighbors(u);
        auto ws = base.weights(u);
        for (std::size_t i = 0; i < ns.size(); ++i) {
            b.addEdge(u, ns[i], ws[i] % 3);
        }
    }
    return std::move(b).build();
}

TEST(Sssp, ZeroWeightCyclesKeepParentsTightAndAcyclic)
{
    const std::vector<std::pair<std::string, graph::Graph>> graphs = [] {
        std::vector<std::pair<std::string, graph::Graph>> v;
        v.emplace_back("undirected", zeroCycleGraph(true));
        v.emplace_back("directed", zeroCycleGraph(false));
        v.emplace_back("sparse-mod3", zeroHeavySparseGraph());
        return v;
    }();
    for (const auto& [name, g] : graphs) {
        const auto expect = core::seq::sssp(g, 0);
        for (const core::SsspAlgo algo :
             {core::SsspAlgo::kWorkList, core::SsspAlgo::kDeltaStep}) {
            for (const int threads : {1, 2, 4, 8}) {
                const std::string label =
                    name + "/" + core::ssspAlgoName(algo) + "/t" +
                    std::to_string(threads);
                rt::NativeExecutor exec(threads);
                const auto result = runSssp(algo, exec, threads, g, 0);
                for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
                    ASSERT_EQ(result.dist[v], expect[v])
                        << label << " vertex " << v;
                }
                expectShortestPathTree(g, result, 0, label);
            }
        }
    }
}

TEST(Sssp, RelaxationFixpointProperty)
{
    // Property: at termination no edge can relax any further.
    const graph::Graph g = test::makeGraph("sparse");
    rt::NativeExecutor exec(4);
    const auto result = core::sssp(exec, 4, g, 5);
    for (graph::VertexId u = 0; u < g.numVertices(); ++u) {
        if (result.dist[u] == graph::kInfDist) {
            continue;
        }
        auto ns = g.neighbors(u);
        auto ws = g.weights(u);
        for (std::size_t i = 0; i < ns.size(); ++i) {
            EXPECT_LE(result.dist[ns[i]], result.dist[u] + ws[i]);
        }
    }
}

TEST(Sssp, UnreachableVerticesStayInfinite)
{
    const graph::Graph g = test::makeGraph("cliques"); // 5 components
    rt::NativeExecutor exec(4);
    const auto result = core::sssp(exec, 4, g, 0);
    for (graph::VertexId v = 6; v < g.numVertices(); ++v) {
        EXPECT_EQ(result.dist[v], graph::kInfDist);
        EXPECT_EQ(result.parent[v], graph::kNoVertex);
    }
}

TEST(Sssp, NonZeroSourceOnSimulator)
{
    const graph::Graph g = test::makeGraph("road");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::sssp(machine, 8, g, 17);
    const auto expect = core::seq::sssp(g, 17);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.dist[v], expect[v]);
    }
}

TEST(Sssp, DeltaSteppingOnSimulatorMatchesDijkstra)
{
    const graph::Graph g = test::makeGraph("road");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::deltaSteppingSssp(machine, 8, g, 17);
    const auto expect = core::seq::sssp(g, 17);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.dist[v], expect[v]) << "vertex " << v;
    }
    expectShortestPathTree(g, result, 17, "sim");
}

TEST(Sssp, SingleVertexGraph)
{
    graph::GraphBuilder b(1, true);
    const graph::Graph g = std::move(b).build();
    rt::NativeExecutor exec(2);
    const auto result = core::sssp(exec, 2, g, 0);
    EXPECT_EQ(result.dist[0], 0u);
}

class ApspParamTest : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(ApspParamTest, MatchesFloydWarshall)
{
    const auto [name, threads] = GetParam();
    const graph::AdjacencyMatrix m(test::makeGraph(name));
    rt::NativeExecutor exec(threads);
    const auto result = core::apsp(exec, threads, m);
    const auto expect = core::seq::apsp(m);
    for (graph::VertexId s = 0; s < m.numVertices(); ++s) {
        for (graph::VertexId t = 0; t < m.numVertices(); ++t) {
            if (s == t) {
                continue; // parallel version reports 0 as well
            }
            ASSERT_EQ(result.at(s, t),
                      expect[static_cast<std::size_t>(s) *
                                 m.numVertices() +
                             t])
                << name << " pair " << s << "," << t;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ApspParamTest,
    ::testing::Combine(::testing::Values("ring", "star", "grid",
                                         "complete", "cliques"),
                       ::testing::Values(1, 3, 8)),
    test::graphThreadsName);

TEST(Apsp, TriangleInequalityProperty)
{
    const graph::AdjacencyMatrix m(test::makeGraph("grid"));
    rt::NativeExecutor exec(4);
    const auto result = core::apsp(exec, 4, m);
    const graph::VertexId n = m.numVertices();
    for (graph::VertexId a = 0; a < n; a += 3) {
        for (graph::VertexId b = 0; b < n; b += 3) {
            for (graph::VertexId c = 0; c < n; c += 3) {
                if (result.at(a, b) == graph::kInfDist ||
                    result.at(b, c) == graph::kInfDist) {
                    continue;
                }
                EXPECT_LE(result.at(a, c),
                          result.at(a, b) + result.at(b, c));
            }
        }
    }
}

TEST(Apsp, SymmetricForUndirectedInputs)
{
    const graph::AdjacencyMatrix m(test::makeGraph("sparse"));
    rt::NativeExecutor exec(4);
    const auto result = core::apsp(exec, 4, m);
    const graph::VertexId n = m.numVertices();
    for (graph::VertexId a = 0; a < n; a += 7) {
        for (graph::VertexId b = 0; b < n; b += 5) {
            EXPECT_EQ(result.at(a, b), result.at(b, a));
        }
    }
}

TEST(Apsp, AgreesWithRepeatedSssp)
{
    const graph::Graph g = test::makeGraph("grid");
    const graph::AdjacencyMatrix m(g);
    rt::NativeExecutor exec(4);
    const auto result = core::apsp(exec, 4, m);
    for (graph::VertexId s = 0; s < g.numVertices(); s += 5) {
        const auto dist = core::seq::sssp(g, s);
        for (graph::VertexId t = 0; t < g.numVertices(); ++t) {
            if (s != t) {
                EXPECT_EQ(result.at(s, t), dist[t]);
            }
        }
    }
}

TEST(Apsp, RunsOnSimulator)
{
    const graph::AdjacencyMatrix m(test::makeGraph("ring"));
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::apsp(machine, 8, m);
    const auto expect = core::seq::apsp(m);
    for (graph::VertexId s = 0; s < m.numVertices(); ++s) {
        for (graph::VertexId t = 0; t < m.numVertices(); ++t) {
            if (s != t) {
                ASSERT_EQ(result.at(s, t),
                          expect[static_cast<std::size_t>(s) *
                                     m.numVertices() +
                                 t]);
            }
        }
    }
}

class BetweennessParamTest
    : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(BetweennessParamTest, MatchesBruteForceCounting)
{
    const auto [name, threads] = GetParam();
    const graph::AdjacencyMatrix m(test::makeGraph(name));
    rt::NativeExecutor exec(threads);
    const auto result = core::betweenness(exec, threads, m);
    const auto expect = core::seq::betweenness(m);
    for (graph::VertexId v = 0; v < m.numVertices(); ++v) {
        ASSERT_EQ(result.centrality[v], expect[v]) << name << " v " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, BetweennessParamTest,
    ::testing::Combine(::testing::Values("ring", "star", "grid",
                                         "linked-cliques"),
                       ::testing::Values(1, 4, 8)),
    test::graphThreadsName);

TEST(Betweenness, StarCenterDominates)
{
    // Every pair of leaves routes through the center.
    const graph::AdjacencyMatrix m(test::makeGraph("star"));
    rt::NativeExecutor exec(4);
    const auto result = core::betweenness(exec, 4, m);
    const graph::VertexId n = m.numVertices();
    EXPECT_EQ(result.centrality[0],
              static_cast<std::uint64_t>(n - 1) * (n - 2));
    for (graph::VertexId v = 1; v < n; ++v) {
        EXPECT_EQ(result.centrality[v], 0u);
    }
}

TEST(Betweenness, RunsOnSimulator)
{
    const graph::AdjacencyMatrix m(test::makeGraph("ring"));
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::betweenness(machine, 8, m);
    const auto expect = core::seq::betweenness(m);
    for (graph::VertexId v = 0; v < m.numVertices(); ++v) {
        ASSERT_EQ(result.centrality[v], expect[v]);
    }
}

} // namespace
} // namespace crono
