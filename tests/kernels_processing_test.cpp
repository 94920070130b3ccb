/**
 * @file
 * Graph-processing kernel tests: connected components, triangle
 * counting, PageRank and community detection, each against the
 * sequential reference plus invariant checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/community.h"
#include "core/connected_components.h"
#include "core/pagerank.h"
#include "core/sequential.h"
#include "core/triangle_count.h"
#include "graph/builder.h"
#include "graph/reorder.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using test::GraphThreads;

class ConnCompParamTest : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(ConnCompParamTest, LabelsMatchFloodFill)
{
    const auto [name, threads] = GetParam();
    const graph::Graph g = test::makeGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result = core::connectedComponents(exec, threads, g);
    const auto expect = core::seq::componentLabels(g);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.label[v], expect[v]) << name << " v " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ConnCompParamTest,
    ::testing::Combine(::testing::Values("path", "ring", "star", "grid",
                                         "cliques", "linked-cliques",
                                         "sparse", "road", "social"),
                       ::testing::Values(1, 2, 4, 8)),
    test::graphThreadsName);

TEST(ConnComp, ComponentCountAndEquivalenceProperty)
{
    const graph::Graph g = test::makeGraph("cliques");
    rt::NativeExecutor exec(4);
    const auto result = core::connectedComponents(exec, 4, g);
    EXPECT_EQ(result.num_components, 5u);
    // Property: endpoints of every edge share a label (the labeling is
    // a valid equivalence over connectivity).
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        for (graph::VertexId u : g.neighbors(v)) {
            EXPECT_EQ(result.label[v], result.label[u]);
        }
    }
}

TEST(ConnComp, IsolatedVerticesAreSingletons)
{
    graph::GraphBuilder b(5, true);
    b.addEdge(0, 1, 1);
    const graph::Graph g = std::move(b).build();
    rt::NativeExecutor exec(2);
    const auto result = core::connectedComponents(exec, 2, g);
    EXPECT_EQ(result.num_components, 4u);
    for (graph::VertexId v = 2; v < 5; ++v) {
        EXPECT_EQ(result.label[v], v);
    }
}

TEST(ConnComp, SimulatorMatchesReference)
{
    const graph::Graph g = test::makeGraph("linked-cliques");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::connectedComponents(machine, 8, g);
    EXPECT_EQ(result.num_components, 1u);
}

class TriCntParamTest : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(TriCntParamTest, TotalMatchesBruteForce)
{
    const auto [name, threads] = GetParam();
    const graph::Graph g = test::makeGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result = core::triangleCount(exec, threads, g);
    ASSERT_EQ(result.total, core::seq::triangleCount(g)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, TriCntParamTest,
    ::testing::Combine(::testing::Values("path", "ring", "star", "grid",
                                         "complete", "cliques", "sparse",
                                         "social"),
                       ::testing::Values(1, 2, 4, 8)),
    test::graphThreadsName);

TEST(TriCnt, KnownCounts)
{
    rt::NativeExecutor exec(4);
    // K12: C(12,3) triangles; ring/path/star: none.
    EXPECT_EQ(core::triangleCount(exec, 4, test::makeGraph("complete"))
                  .total,
              220u);
    EXPECT_EQ(core::triangleCount(exec, 4, test::makeGraph("ring")).total,
              0u);
    EXPECT_EQ(core::triangleCount(exec, 4, test::makeGraph("star")).total,
              0u);
    // 5 disjoint K6 cliques: 5 * C(6,3) = 100.
    EXPECT_EQ(
        core::triangleCount(exec, 4, test::makeGraph("cliques")).total,
        100u);
}

TEST(TriCnt, PerVertexCountsSumToThreeTimesTotal)
{
    const graph::Graph g = test::makeGraph("social");
    rt::NativeExecutor exec(4);
    const auto result = core::triangleCount(exec, 4, g);
    std::uint64_t sum = 0;
    for (std::uint64_t c : result.per_vertex) {
        sum += c;
    }
    EXPECT_EQ(sum, 3 * result.total);
}

TEST(TriCnt, SimulatorMatchesBruteForce)
{
    const graph::Graph g = test::makeGraph("cliques");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::triangleCount(machine, 8, g);
    EXPECT_EQ(result.total, 100u);
}

/** (graph name, thread count, PageRank phase structure) parameter. */
using GraphThreadsMode = std::tuple<std::string, int, core::PageRankMode>;

class PageRankParamTest
    : public ::testing::TestWithParam<GraphThreadsMode> {};

TEST_P(PageRankParamTest, MatchesSequentialIteration)
{
    const auto [name, threads, mode] = GetParam();
    const graph::Graph g = test::makeGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result =
        core::pageRank(exec, threads, g, 8, 0.15, nullptr, mode);
    const auto expect = core::seq::pageRank(g, 8, 0.15);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_NEAR(result.rank[v], expect[v], 1e-9) << name << " " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, PageRankParamTest,
    ::testing::Combine(::testing::Values("path", "ring", "star", "grid",
                                         "complete", "sparse", "road",
                                         "social"),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(core::PageRankMode::kScatter,
                                         core::PageRankMode::kGather)),
    [](const ::testing::TestParamInfo<GraphThreadsMode>& info) {
        return std::get<0>(info.param) + "_t" +
               std::to_string(std::get<1>(info.param)) + "_" +
               core::pageRankModeName(std::get<2>(info.param));
    });

/**
 * Pull PageRank in CSR order: each row's shares summed left to right
 * from 0.0, then Equation 1 — the summation order the gather kernel
 * promises, so its result must match bit for bit.
 */
std::vector<double>
pullPageRankInCsrOrder(const graph::Graph& g, unsigned iterations,
                       double damping)
{
    const graph::VertexId n = g.numVertices();
    const double uniform = 1.0 / static_cast<double>(n);
    std::vector<double> rank(n, uniform);
    std::vector<double> share(n, 0.0);
    for (unsigned it = 0; it < iterations; ++it) {
        for (graph::VertexId v = 0; v < n; ++v) {
            const auto deg = g.degree(v);
            share[v] = deg == 0 ? 0.0 : rank[v] / static_cast<double>(deg);
        }
        for (graph::VertexId v = 0; v < n; ++v) {
            double acc = 0.0;
            for (graph::VertexId u : g.neighbors(v)) {
                acc += share[u];
            }
            rank[v] = damping * uniform + (1.0 - damping) * acc;
        }
    }
    return rank;
}

bool
sameBits(const AlignedVector<double>& got, const std::vector<double>& want)
{
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       want.size() * sizeof(double)) == 0;
}

/**
 * Gather inputs: "social", "road", and a graph whose isolated
 * vertices 6..9 a degree sort moves into a zero-degree tail at the
 * highest ids (with 8 threads on its 10 vertices some threads own
 * nothing). Each is degree-sorted.
 */
std::vector<std::pair<std::string, graph::ReorderedGraph>>
gatherInputs()
{
    graph::GraphBuilder tiny(10, true);
    for (graph::VertexId v = 1; v < 6; ++v) {
        tiny.addEdge(0, v, 1);
    }
    tiny.addEdge(1, 2, 1);
    std::vector<std::pair<std::string, graph::Graph>> raw;
    raw.emplace_back("social", test::makeGraph("social"));
    raw.emplace_back("road", test::makeGraph("road"));
    raw.emplace_back("isolated-tail", std::move(tiny).build());
    std::vector<std::pair<std::string, graph::ReorderedGraph>> out;
    for (const auto& [name, g] : raw) {
        out.emplace_back(
            name, graph::reorderGraph(g, graph::Reordering::kDegreeSort));
    }
    return out;
}

constexpr unsigned kGatherIters = 6;

TEST(PageRank, GatherBitIdenticalAcrossThreads)
{
    for (const auto& [name, rg] : gatherInputs()) {
        SCOPED_TRACE(name);
        const std::vector<double> want =
            pullPageRankInCsrOrder(rg.graph, kGatherIters, 0.15);
        for (const int threads : {1, 2, 3, 4, 8}) {
            rt::NativeExecutor exec(threads);
            const auto got =
                core::pageRank(exec, threads, rg.graph, kGatherIters, 0.15,
                               nullptr, core::PageRankMode::kGather);
            EXPECT_TRUE(sameBits(got.rank, want)) << threads << " threads";
        }
    }
}

// Kept apart from the native sweep: the TSan run skips *Sim* tests
// (it cannot follow fiber switches) but still runs the native one.
TEST(PageRank, SimulatorGatherBitIdenticalToCsrOrder)
{
    for (const auto& [name, rg] : gatherInputs()) {
        SCOPED_TRACE(name);
        sim::Machine machine(test::smallSimConfig());
        const auto got =
            core::pageRank(machine, 8, rg.graph, kGatherIters, 0.15,
                           nullptr, core::PageRankMode::kGather);
        EXPECT_TRUE(sameBits(
            got.rank, pullPageRankInCsrOrder(rg.graph, kGatherIters, 0.15)));
    }
}

TEST(PageRank, ProbabilityConservedOnDegreeRegularGraphs)
{
    // No isolated/dangling vertices: ranks stay a distribution.
    const graph::Graph g = test::makeGraph("ring");
    rt::NativeExecutor exec(4);
    const auto result = core::pageRank(exec, 4, g, 12, 0.15);
    double sum = 0.0;
    for (double r : result.rank) {
        sum += r;
        EXPECT_GT(r, 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRank, UniformOnSymmetricGraph)
{
    const graph::Graph g = test::makeGraph("ring");
    rt::NativeExecutor exec(4);
    const auto result = core::pageRank(exec, 4, g, 20, 0.15);
    const double uniform = 1.0 / g.numVertices();
    for (double r : result.rank) {
        EXPECT_NEAR(r, uniform, 1e-9);
    }
}

TEST(PageRank, StarCenterOutranksLeaves)
{
    const graph::Graph g = test::makeGraph("star");
    rt::NativeExecutor exec(4);
    const auto result = core::pageRank(exec, 4, g, 20, 0.15);
    for (graph::VertexId v = 1; v < g.numVertices(); ++v) {
        EXPECT_GT(result.rank[0], result.rank[v]);
    }
}

TEST(PageRank, SimulatorMatchesSequential)
{
    const graph::Graph g = test::makeGraph("grid");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::pageRank(machine, 8, g, 5, 0.15);
    const auto expect = core::seq::pageRank(g, 5, 0.15);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_NEAR(result.rank[v], expect[v], 1e-9);
    }
}

class CommunityParamTest : public ::testing::TestWithParam<GraphThreads> {};

TEST_P(CommunityParamTest, ProducesValidNonNegativeModularity)
{
    const auto [name, threads] = GetParam();
    const graph::Graph g = test::makeGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result = core::communityDetection(exec, threads, g, 12);
    // Labels must be in range and modularity in [-0.5, 1].
    for (graph::VertexId c : result.community) {
        EXPECT_LT(c, g.numVertices());
    }
    EXPECT_GE(result.modularity, -0.5);
    EXPECT_LE(result.modularity, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CommunityParamTest,
    ::testing::Combine(::testing::Values("ring", "grid", "cliques",
                                         "linked-cliques", "sparse",
                                         "social"),
                       ::testing::Values(1, 2, 4, 8)),
    test::graphThreadsName);

TEST(Community, RecoversPlantedCliques)
{
    // 5 disjoint K6: optimal communities are exactly the cliques.
    const graph::Graph g = test::makeGraph("cliques");
    rt::NativeExecutor exec(4);
    const auto result = core::communityDetection(exec, 4, g, 16);
    for (graph::VertexId k = 0; k < 5; ++k) {
        const graph::VertexId rep = result.community[k * 6];
        for (graph::VertexId i = 1; i < 6; ++i) {
            EXPECT_EQ(result.community[k * 6 + i], rep);
        }
    }
    // Modularity of 5 equal disjoint communities: 1 - 1/5.
    EXPECT_NEAR(result.modularity, 0.8, 1e-9);
}

TEST(Community, ImprovesOverSingletonModularity)
{
    const graph::Graph g = test::makeGraph("linked-cliques");
    rt::NativeExecutor exec(4);
    const auto result = core::communityDetection(exec, 4, g, 16);
    // Singleton modularity is <= 0; the heuristic must beat it.
    EXPECT_GT(result.modularity, 0.3);
    EXPECT_GT(result.moves, 0u);
}

TEST(Community, EdgelessGraphStaysSingleton)
{
    graph::GraphBuilder b(6, true);
    const graph::Graph g = std::move(b).build();
    rt::NativeExecutor exec(2);
    const auto result = core::communityDetection(exec, 2, g, 4);
    for (graph::VertexId v = 0; v < 6; ++v) {
        EXPECT_EQ(result.community[v], v);
    }
    EXPECT_EQ(result.modularity, 0.0);
}

TEST(Community, SimulatorRecoversCliques)
{
    const graph::Graph g = test::makeGraph("cliques");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::communityDetection(machine, 8, g, 16);
    EXPECT_NEAR(result.modularity, 0.8, 1e-9);
}

} // namespace
} // namespace crono
