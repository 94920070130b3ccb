/**
 * @file
 * Unit tests for the reordering subsystem: VertexPermutation round
 * trips and composition, ordering-specific structure (degree-sort
 * monotonicity, hub clustering, RCM bandwidth reduction), the
 * GraphBuilder's reordering option, and the relabeling invariance of
 * graph::stats: any statistic that silently depended on vertex
 * labeling fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "graph/stats.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

namespace gen = graph::generators;
using graph::Reordering;
using graph::VertexId;
using graph::VertexPermutation;

VertexPermutation
randomPermutation(VertexId n, std::uint64_t seed)
{
    AlignedVector<VertexId> order(n);
    std::iota(order.begin(), order.end(), VertexId{0});
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return VertexPermutation(std::move(order));
}

/** Multiset of (src, dst, weight) triples, the graph's identity. */
std::multiset<std::tuple<VertexId, VertexId, graph::Weight>>
edgeMultiset(const graph::Graph& g)
{
    std::multiset<std::tuple<VertexId, VertexId, graph::Weight>> edges;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const auto ns = g.neighbors(v);
        const auto ws = g.weights(v);
        for (std::size_t i = 0; i < ns.size(); ++i) {
            edges.emplace(v, ns[i], ws[i]);
        }
    }
    return edges;
}

TEST(VertexPermutation, RoundTripAndInverse)
{
    const VertexPermutation perm = randomPermutation(257, 5);
    for (VertexId v = 0; v < perm.size(); ++v) {
        EXPECT_EQ(perm.toOld(perm.toNew(v)), v);
        EXPECT_EQ(perm.toNew(perm.toOld(v)), v);
    }
    const VertexPermutation inv = perm.inverse();
    for (VertexId v = 0; v < perm.size(); ++v) {
        EXPECT_EQ(inv.toNew(v), perm.toOld(v));
        EXPECT_EQ(inv.toOld(v), perm.toNew(v));
    }
    EXPECT_TRUE(perm.composedWith(inv).isIdentity());
    EXPECT_TRUE(inv.composedWith(perm).isIdentity());
    EXPECT_FALSE(perm.isIdentity());
    EXPECT_TRUE(VertexPermutation::identity(64).isIdentity());
}

TEST(VertexPermutation, ComposeWithIdentityIsSelf)
{
    const VertexPermutation perm = randomPermutation(100, 7);
    const VertexPermutation id = VertexPermutation::identity(100);
    const VertexPermutation left = id.composedWith(perm);
    const VertexPermutation right = perm.composedWith(id);
    for (VertexId v = 0; v < perm.size(); ++v) {
        EXPECT_EQ(left.toNew(v), perm.toNew(v));
        EXPECT_EQ(right.toNew(v), perm.toNew(v));
    }
}

TEST(VertexPermutation, ValueRemappingRoundTrips)
{
    const VertexPermutation perm = randomPermutation(83, 11);
    AlignedVector<std::uint64_t> by_old(83);
    std::iota(by_old.begin(), by_old.end(), std::uint64_t{1000});
    const AlignedVector<std::uint64_t> by_new =
        perm.valuesToNew(std::span<const std::uint64_t>(by_old));
    for (VertexId v = 0; v < perm.size(); ++v) {
        EXPECT_EQ(by_new[perm.toNew(v)], by_old[v]);
    }
    const AlignedVector<std::uint64_t> back =
        perm.valuesToOld(std::span<const std::uint64_t>(by_new));
    EXPECT_EQ(back, by_old);
}

TEST(VertexPermutation, VertexValuedRemappingMapsBothSides)
{
    const VertexPermutation perm = randomPermutation(50, 3);
    // A parent array in the new space: new vertex v points at new
    // vertex v-1; vertex 0 carries the sentinel.
    AlignedVector<VertexId> parent_new(50);
    parent_new[0] = graph::kNoVertex;
    for (VertexId v = 1; v < 50; ++v) {
        parent_new[v] = v - 1;
    }
    const AlignedVector<VertexId> parent_old = perm.vertexValuesToOld(
        std::span<const VertexId>(parent_new), graph::kNoVertex);
    EXPECT_EQ(parent_old[perm.toOld(0)], graph::kNoVertex);
    for (VertexId v = 1; v < 50; ++v) {
        EXPECT_EQ(parent_old[perm.toOld(v)], perm.toOld(v - 1));
    }
}

TEST(Reorder, DegreeSortIsMonotone)
{
    const graph::Graph g = gen::socialNetwork(9, 6, 17);
    const graph::ReorderedGraph rg =
        graph::reorderGraph(g, Reordering::kDegreeSort);
    for (VertexId v = 1; v < rg.graph.numVertices(); ++v) {
        ASSERT_GE(rg.graph.degree(v - 1), rg.graph.degree(v)) << v;
    }
}

TEST(Reorder, HubClusterPacksHubsFirstKeepsColdOrder)
{
    const graph::Graph g = gen::socialNetwork(9, 6, 29);
    const VertexPermutation perm =
        graph::computeOrdering(g, Reordering::kHubCluster);
    const double avg = static_cast<double>(g.numEdges()) /
                       static_cast<double>(g.numVertices());
    bool in_cold_tail = false;
    VertexId prev_cold = 0;
    for (VertexId v = 0; v < perm.size(); ++v) {
        const VertexId old = perm.toOld(v);
        const bool hub = static_cast<double>(g.degree(old)) > avg;
        if (!hub) {
            if (in_cold_tail) {
                // Cold vertices keep their original relative order.
                ASSERT_LT(prev_cold, old) << "new id " << v;
            }
            in_cold_tail = true;
            prev_cold = old;
        } else {
            ASSERT_FALSE(in_cold_tail)
                << "hub at new id " << v << " after a cold vertex";
        }
    }
    EXPECT_TRUE(in_cold_tail); // both classes are non-empty
}

TEST(Reorder, RcmReducesLatticeBandwidth)
{
    // A label-shuffled lattice: the structure is a 16x16 grid (small
    // true bandwidth), the labeling is random (huge bandwidth). RCM
    // must recover most of the gap.
    const graph::Graph lattice = gen::grid(16, 16);
    const graph::Graph shuffled =
        graph::permuteGraph(lattice, randomPermutation(256, 99));
    const std::uint64_t before = graph::adjacencyBandwidth(shuffled);
    const graph::ReorderedGraph rcm =
        graph::reorderGraph(shuffled, Reordering::kRcm);
    const std::uint64_t after = graph::adjacencyBandwidth(rcm.graph);
    EXPECT_LT(after, before / 3)
        << "RCM bandwidth " << after << " vs shuffled " << before;
}

TEST(Reorder, PermuteGraphPreservesEdgesAndSortsRows)
{
    const graph::Graph g = gen::uniformRandom(300, 1500, 32, 11);
    const VertexPermutation perm = randomPermutation(300, 41);
    const graph::Graph pg = graph::permuteGraph(g, perm);
    ASSERT_EQ(pg.numVertices(), g.numVertices());
    ASSERT_EQ(pg.numEdges(), g.numEdges());
    std::multiset<std::tuple<VertexId, VertexId, graph::Weight>> expect;
    for (const auto& [s, d, w] : edgeMultiset(g)) {
        expect.emplace(perm.toNew(s), perm.toNew(d), w);
    }
    EXPECT_EQ(edgeMultiset(pg), expect);
    for (VertexId v = 0; v < pg.numVertices(); ++v) {
        const auto ns = pg.neighbors(v);
        EXPECT_TRUE(std::is_sorted(ns.begin(), ns.end())) << "row " << v;
    }
}

TEST(Reorder, EveryOrderingIsAValidPermutation)
{
    const graph::Graph g = gen::socialNetwork(8, 5, 7);
    for (const Reordering r : graph::allReorderings()) {
        SCOPED_TRACE(graph::reorderingName(r));
        const VertexPermutation perm = graph::computeOrdering(g, r);
        ASSERT_EQ(perm.size(), g.numVertices());
        // The constructor validates bijectivity; exercise round trip.
        for (VertexId v = 0; v < perm.size(); ++v) {
            ASSERT_EQ(perm.toNew(perm.toOld(v)), v);
        }
    }
}

TEST(Reorder, BuilderAppliesReordering)
{
    graph::GraphBuilder b(6, true);
    b.addEdge(0, 1, 2);
    b.addEdge(1, 2, 3);
    b.addEdge(2, 3, 4);
    b.addEdge(3, 4, 5);
    b.addEdge(4, 5, 6);
    b.withReordering(Reordering::kBfs);
    const graph::Graph g = std::move(b).build();
    EXPECT_EQ(g.numVertices(), 6u);
    EXPECT_EQ(g.numEdges(), 10u);

    graph::GraphBuilder b2(4, true);
    b2.addEdge(0, 1);
    b2.addEdge(2, 3);
    b2.withReordering(Reordering::kDegreeSort);
    const graph::ReorderedGraph rg = std::move(b2).buildReordered();
    EXPECT_EQ(rg.perm.size(), 4u);
    EXPECT_EQ(rg.graph.numEdges(), 4u);
}

// ------------------------------------------------- stats invariance

/**
 * The ISSUE 5 regression: every statistic graph::stats computes must
 * be invariant under relabeling. Degree distribution, components,
 * gini, clustering and the pseudo-diameter are all exact (integer or
 * identical-operation-order float), so equality is exact too.
 */
class StatsInvariance : public ::testing::TestWithParam<std::string> {};

TEST_P(StatsInvariance, AllStatsSurviveRelabeling)
{
    const graph::Graph g = test::makeGraph(GetParam());
    const graph::GraphStats base = graph::computeStats(g);
    const std::vector<graph::EdgeId> base_hist = degreeHistogram(g);
    const double base_cc = graph::clusteringCoefficient(g);

    std::vector<VertexPermutation> perms;
    perms.push_back(randomPermutation(g.numVertices(), 1234));
    for (const Reordering r : graph::allReorderings()) {
        perms.push_back(graph::computeOrdering(g, r));
    }
    for (std::size_t i = 0; i < perms.size(); ++i) {
        SCOPED_TRACE(i);
        const graph::Graph pg = graph::permuteGraph(g, perms[i]);
        const graph::GraphStats s = graph::computeStats(pg);
        EXPECT_EQ(s.num_vertices, base.num_vertices);
        EXPECT_EQ(s.num_edge_slots, base.num_edge_slots);
        EXPECT_EQ(s.avg_degree, base.avg_degree);
        EXPECT_EQ(s.max_degree, base.max_degree);
        EXPECT_EQ(s.isolated_vertices, base.isolated_vertices);
        EXPECT_EQ(s.num_components, base.num_components);
        EXPECT_EQ(s.largest_component, base.largest_component);
        EXPECT_EQ(s.degree_gini, base.degree_gini);
        EXPECT_EQ(s.pseudo_diameter, base.pseudo_diameter);
        EXPECT_EQ(degreeHistogram(pg), base_hist);
        EXPECT_EQ(graph::clusteringCoefficient(pg), base_cc);
    }
}

INSTANTIATE_TEST_SUITE_P(Catalog, StatsInvariance,
                         ::testing::Values("road", "social", "sparse",
                                           "grid", "cliques", "star"));

TEST(StatsInvariance, PseudoDiameterMatchesKnownShapes)
{
    // Path of n vertices: diameter n-1, found exactly (the endpoints
    // are the min-degree seeds).
    EXPECT_EQ(graph::computeStats(gen::path(40)).pseudo_diameter, 39u);
    // Star: every leaf is two hops from every other leaf.
    EXPECT_EQ(graph::computeStats(gen::star(50)).pseudo_diameter, 2u);
    // Complete graph: everything is one hop apart.
    EXPECT_EQ(graph::computeStats(gen::complete(12)).pseudo_diameter, 1u);
    // Edgeless graph: defined as zero.
    graph::GraphBuilder b(5, true);
    EXPECT_EQ(graph::computeStats(std::move(b).build()).pseudo_diameter,
              0u);
}

} // namespace
} // namespace crono
