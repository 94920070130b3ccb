/**
 * @file
 * Push/pull equivalence properties of the frontier kernels: the same
 * kernel run under every FrontierMode — push-only flag scan, sparse
 * work lists or queue windows, and the adaptive direction-optimizing
 * policy — must produce identical results on
 * road, uniform-random and social (power-law) generators, across
 * thread counts, in both the native and the simulated execution
 * contexts. Levels/distances/labels are compared exactly; BFS parents
 * may legitimately differ between directions (push races for the
 * claim, pull takes the first in-CSR-order in-front neighbor), so
 * parents are checked for tree validity instead of equality.
 *
 * Simulator suites carry "Sim" in their name so the TSan harness can
 * filter them out (ucontext fibers and TSan do not mix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/sequential.h"
#include "core/sssp.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using rt::FrontierMode;

/** Every traversal mode, baseline (flag scan) first. */
const FrontierMode kAllModes[] = {FrontierMode::kFlagScan,
                                  FrontierMode::kSparse,
                                  FrontierMode::kAdaptive};

/**
 * Larger-than-catalog instances so the adaptive policy actually
 * crosses its thresholds: the social graph's heavy middle rounds put
 * well over V/20 vertices on the front (pull fires), while the road
 * network's thin fronts stay push-side throughout (proving the
 * dispatcher is a no-op there).
 */
graph::Graph
equivGraph(const std::string& name)
{
    namespace gen = graph::generators;
    if (name == "road") {
        return gen::roadNetwork(24, 24, 13);
    }
    if (name == "uniform") {
        return gen::uniformRandom(1200, 6000, 32, 7);
    }
    if (name == "social") {
        return gen::socialNetwork(10, 8, 23);
    }
    ADD_FAILURE() << "unknown graph " << name;
    return gen::path(2);
}

/** parent[] must encode a valid BFS tree for the given levels. */
void
checkBfsTree(const graph::Graph& g, const core::BfsResult& res,
             graph::VertexId source)
{
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        if (res.level[v] == core::kNoLevel || v == source) {
            continue;
        }
        const graph::VertexId p = res.parent[v];
        ASSERT_NE(p, graph::kNoVertex) << "v " << v;
        EXPECT_EQ(res.level[p] + 1, res.level[v]) << "v " << v;
        bool adjacent = false;
        for (const graph::VertexId u : g.neighbors(p)) {
            if (u == v) {
                adjacent = true;
                break;
            }
        }
        EXPECT_TRUE(adjacent) << "parent " << p << " not adjacent to "
                              << v;
    }
}

class ParEquivalence
    : public ::testing::TestWithParam<test::GraphThreads> {};

TEST_P(ParEquivalence, BfsLevelsIdenticalAcrossModes)
{
    const auto& [name, threads] = GetParam();
    const graph::Graph g = equivGraph(name);
    rt::NativeExecutor exec(threads);
    const auto base = core::bfs(exec, threads, g, 0, graph::kNoVertex,
                                nullptr, FrontierMode::kFlagScan);
    checkBfsTree(g, base, 0);
    for (const FrontierMode mode : kAllModes) {
        const auto got = core::bfs(exec, threads, g, 0,
                                   graph::kNoVertex, nullptr, mode);
        SCOPED_TRACE(rt::frontierModeName(mode));
        EXPECT_EQ(got.reached, base.reached);
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(got.level[v], base.level[v]) << "v " << v;
        }
        checkBfsTree(g, got, 0);
    }
}

TEST_P(ParEquivalence, SsspDistancesIdenticalAcrossModes)
{
    const auto& [name, threads] = GetParam();
    const graph::Graph g = equivGraph(name);
    rt::NativeExecutor exec(threads);
    const auto base = core::sssp(exec, threads, g, 0, nullptr,
                                 FrontierMode::kFlagScan);
    for (const FrontierMode mode : kAllModes) {
        const auto got = core::sssp(exec, threads, g, 0, nullptr, mode);
        SCOPED_TRACE(rt::frontierModeName(mode));
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(got.dist[v], base.dist[v]) << "v " << v;
        }
    }
}

TEST_P(ParEquivalence, ComponentLabelsIdenticalAcrossModes)
{
    const auto& [name, threads] = GetParam();
    const graph::Graph g = equivGraph(name);
    rt::NativeExecutor exec(threads);
    const auto base = core::connectedComponents(
        exec, threads, g, nullptr, FrontierMode::kFlagScan);
    for (const FrontierMode mode : kAllModes) {
        const auto got =
            core::connectedComponents(exec, threads, g, nullptr, mode);
        SCOPED_TRACE(rt::frontierModeName(mode));
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(got.label[v], base.label[v]) << "v " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Generators, ParEquivalence,
    ::testing::Combine(::testing::Values("road", "uniform", "social"),
                       ::testing::Values(1, 4)),
    test::graphThreadsName);

/**
 * kAdaptive is the only mode with pull rounds, so BFS's pull levels
 * are covered only if its policy actually picks one: on the catalog
 * social graph the heavy middle levels must go pull-side, and the
 * levels must still equal the sequential reference. The round count
 * comes from telemetry, so a CRONO_TELEMETRY=OFF build checks the
 * levels only.
 */
TEST(AdaptivePull, SocialBfsTakesPullRoundsWithSequentialLevels)
{
    const graph::Graph g = test::makeGraph("social");
    const auto want = core::seq::bfsLevels(g, 0);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        obs::TelemetrySession session;
        rt::NativeExecutor exec(threads);
        const auto got = core::bfs(exec, threads, g, 0, graph::kNoVertex,
                                   nullptr, FrontierMode::kAdaptive);
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(got.level[v], want[v]) << "v " << v;
        }
        checkBfsTree(g, got, 0);
#if !defined(CRONO_TELEMETRY_DISABLED)
        EXPECT_GT(
            session.recorder().totalCounter(obs::Counter::kPullRounds),
            0u);
#endif
    }
}

/**
 * Early stop: "found" means the target's level was consumed, so every
 * mode stops after the same level, reports the same reached count and
 * holds exactly the levels up to one past the target's. On the
 * catalog social graph one target sits in a level kAdaptive consumes
 * pull-side (front > V/20), the others in push levels.
 */
TEST(BfsEarlyStop, EveryModeStopsAfterTheTargetsLevel)
{
    for (const char* name : {"road", "social"}) {
        const graph::Graph g = test::makeGraph(name);
        const auto want = core::seq::bfsLevels(g, 0);
        std::vector<std::uint64_t> per_level;
        for (const std::uint32_t l : want) {
            if (l != core::kNoLevel) {
                per_level.resize(std::max<std::size_t>(per_level.size(),
                                                       l + 1));
                ++per_level[l];
            }
        }
        // First vertex of a push level past the source, and of a pull
        // level if the graph has one.
        const std::uint64_t pull_above =
            core::pullFrontThreshold(g.numVertices());
        graph::VertexId push_target = graph::kNoVertex;
        graph::VertexId pull_target = graph::kNoVertex;
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            if (want[v] == core::kNoLevel || want[v] == 0) {
                continue;
            }
            graph::VertexId& slot = per_level[want[v]] > pull_above
                                        ? pull_target
                                        : push_target;
            if (slot == graph::kNoVertex) {
                slot = v;
            }
        }
        ASSERT_NE(push_target, graph::kNoVertex) << name;
        if (std::string(name) == "social") {
            ASSERT_NE(pull_target, graph::kNoVertex)
                << "social graph has no pull level";
        }
        for (const graph::VertexId target : {push_target, pull_target}) {
            if (target == graph::kNoVertex) {
                continue;
            }
            const std::uint32_t stop = want[target];
            std::uint64_t through = 0;
            for (std::uint32_t l = 0; l <= stop; ++l) {
                through += per_level[l];
            }
            for (const FrontierMode mode : kAllModes) {
                for (const int threads : {1, 4}) {
                    SCOPED_TRACE(std::string(name) + " target " +
                                 std::to_string(target) + " " +
                                 rt::frontierModeName(mode) + " t" +
                                 std::to_string(threads));
                    rt::NativeExecutor exec(threads);
                    const auto got =
                        core::bfs(exec, threads, g, 0, target, nullptr,
                                  mode);
                    EXPECT_TRUE(got.found_target);
                    EXPECT_EQ(got.level[target], stop);
                    EXPECT_EQ(got.reached, through);
                    for (graph::VertexId v = 0; v < g.numVertices();
                         ++v) {
                        const std::uint32_t expect =
                            want[v] != core::kNoLevel && want[v] <= stop + 1
                                ? want[v]
                                : core::kNoLevel;
                        ASSERT_EQ(got.level[v], expect) << "v " << v;
                    }
                    checkBfsTree(g, got, 0);
                }
            }
        }
    }
}

TEST(BfsEdgeCases, IsolatedSourceReachesOnlyItself)
{
    graph::GraphBuilder b(5);
    b.addEdge(1, 2);
    b.addEdge(2, 3);
    b.addEdge(3, 4);
    const graph::Graph g = std::move(b).build();
    for (const FrontierMode mode : kAllModes) {
        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(std::string(rt::frontierModeName(mode)) + " t" +
                         std::to_string(threads));
            rt::NativeExecutor exec(threads);
            const auto all = core::bfs(exec, threads, g, 0,
                                       graph::kNoVertex, nullptr, mode);
            EXPECT_EQ(all.reached, 1u);
            EXPECT_FALSE(all.found_target);
            EXPECT_EQ(all.level[0], 0u);
            EXPECT_EQ(all.parent[0], 0u);
            for (graph::VertexId v = 1; v < g.numVertices(); ++v) {
                EXPECT_EQ(all.level[v], core::kNoLevel) << "v " << v;
                EXPECT_EQ(all.parent[v], graph::kNoVertex) << "v " << v;
            }
            const auto self =
                core::bfs(exec, threads, g, 0, 0, nullptr, mode);
            EXPECT_TRUE(self.found_target);
            EXPECT_EQ(self.reached, 1u);
            const auto other =
                core::bfs(exec, threads, g, 0, 4, nullptr, mode);
            EXPECT_FALSE(other.found_target);
            EXPECT_EQ(other.reached, 1u);
        }
    }
}

TEST(BfsEdgeCases, DisconnectedGraphStaysInTheSourcesComponent)
{
    // Five disjoint 6-cliques: the source's clique is reached, and a
    // target in another clique is never found.
    const graph::Graph g = test::makeGraph("cliques");
    const auto want = core::seq::bfsLevels(g, 0);
    const auto in_component = static_cast<std::uint64_t>(
        std::count_if(want.begin(), want.end(), [](std::uint32_t l) {
            return l != core::kNoLevel;
        }));
    ASSERT_LT(in_component, g.numVertices());
    for (const FrontierMode mode : kAllModes) {
        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(std::string(rt::frontierModeName(mode)) + " t" +
                         std::to_string(threads));
            rt::NativeExecutor exec(threads);
            const auto got = core::bfs(exec, threads, g, 0,
                                       g.numVertices() - 1, nullptr, mode);
            EXPECT_FALSE(got.found_target);
            EXPECT_EQ(got.reached, in_component);
            for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
                ASSERT_EQ(got.level[v], want[v]) << "v " << v;
            }
            checkBfsTree(g, got, 0);
        }
    }
}

TEST(BfsEdgeCases, ParentsFormABfsTreeAtEveryThreadCount)
{
    for (const char* name : {"road", "uniform", "social"}) {
        const graph::Graph g = equivGraph(name);
        const auto want = core::seq::bfsLevels(g, 0);
        for (const FrontierMode mode : kAllModes) {
            for (const int threads : {1, 2, 3, 4, 8}) {
                SCOPED_TRACE(std::string(name) + " " +
                             rt::frontierModeName(mode) + " t" +
                             std::to_string(threads));
                rt::NativeExecutor exec(threads);
                const auto got = core::bfs(exec, threads, g, 0,
                                           graph::kNoVertex, nullptr, mode);
                for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
                    ASSERT_EQ(got.level[v], want[v]) << "v " << v;
                }
                checkBfsTree(g, got, 0);
            }
        }
    }
}

/**
 * Simulated-context half of the property: the same mode sweep on the
 * catalog-size graphs (the simulator is orders of magnitude slower),
 * compared against the native flag-scan baseline — one check that the
 * primitives' Ctx::read/write/fetchAdd modeling did not change the
 * algorithm.
 */
class ParEquivalenceSim : public ::testing::TestWithParam<std::string> {
};

TEST_P(ParEquivalenceSim, BfsAndSsspMatchNativeAcrossModes)
{
    const graph::Graph g = test::makeGraph(GetParam());
    rt::NativeExecutor exec(4);
    const auto native_bfs = core::bfs(exec, 4, g, 0);
    const auto native_sssp = core::sssp(exec, 4, g, 0);

    sim::Machine machine(test::smallSimConfig());
    for (const FrontierMode mode : kAllModes) {
        SCOPED_TRACE(rt::frontierModeName(mode));
        const auto bfs = core::bfs(machine, 4, g, 0, graph::kNoVertex,
                                   nullptr, mode);
        EXPECT_EQ(bfs.reached, native_bfs.reached);
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(bfs.level[v], native_bfs.level[v]) << "v " << v;
        }
        checkBfsTree(g, bfs, 0);
        const auto sssp = core::sssp(machine, 4, g, 0, nullptr, mode);
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            ASSERT_EQ(sssp.dist[v], native_sssp.dist[v]) << "v " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Generators, ParEquivalenceSim,
                         ::testing::Values("road", "sparse", "social"));

} // namespace
} // namespace crono
