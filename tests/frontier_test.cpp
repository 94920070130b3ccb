/**
 * @file
 * Frontier-engine tests: work-list push/pop/steal/drain mechanics,
 * dense<->sparse conversion round-trips under the adaptive policy,
 * the LocalWorklist ring, and parameterized checks that every
 * FrontierMode matches the sequential references for SSSP, BFS and
 * connected components on lattice, uniform-random and power-law
 * graphs. Simulator tests carry "Sim" in their suite name so the
 * TSan harness can filter them out (ucontext fibers and TSan do not
 * mix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/apsp.h"
#include "core/betweenness.h"
#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/sequential.h"
#include "core/sssp.h"
#include "graph/generators.h"
#include "runtime/frontier.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using rt::FrontierEngine;
using rt::FrontierMode;

/** Larger-than-catalog graphs so multi-chunk queues get exercised. */
graph::Graph
bigGraph(const std::string& name)
{
    namespace gen = graph::generators;
    if (name == "lattice") {
        return gen::grid(20, 20);
    }
    if (name == "uniform") {
        return gen::uniformRandom(1500, 6000, 32, 7);
    }
    if (name == "powerlaw") {
        return gen::socialNetwork(9, 5, 23);
    }
    ADD_FAILURE() << "unknown graph " << name;
    return gen::path(2);
}

FrontierMode
modeFromIndex(int index)
{
    switch (index) {
      case 1:
        return FrontierMode::kSparse;
      case 2:
        return FrontierMode::kAdaptive;
      default:
        return FrontierMode::kFlagScan;
    }
}

// ---------------------------------------------------------------------
// Engine mechanics (native contexts).
// ---------------------------------------------------------------------

TEST(FrontierEngine_, DenseFrontThreshold)
{
    // front > V^2 / (k * E), k = 4.
    EXPECT_EQ(rt::denseFrontThreshold(1024, 8192), 32u);
    EXPECT_EQ(rt::denseFrontThreshold(1000, 1000), 250u);
    // Degenerate inputs stay usable: no edges means never dense.
    EXPECT_EQ(rt::denseFrontThreshold(64, 0), 64u);
    // The threshold never collapses to zero (front==0 ends the run).
    EXPECT_GE(rt::denseFrontThreshold(10, 1000000), 1u);
}

TEST(FrontierEngine_, ModeNames)
{
    EXPECT_STREQ(rt::frontierModeName(FrontierMode::kFlagScan),
                 "flagscan");
    EXPECT_STREQ(rt::frontierModeName(FrontierMode::kSparse), "sparse");
    EXPECT_STREQ(rt::frontierModeName(FrontierMode::kAdaptive),
                 "adaptive");
}

TEST(FrontierEngine_, DenseRoundPerMode)
{
    FrontierEngine scan(1024, 8192, 1, FrontierMode::kFlagScan);
    FrontierEngine sparse(1024, 8192, 1, FrontierMode::kSparse);
    FrontierEngine adaptive(1024, 8192, 1, FrontierMode::kAdaptive);
    EXPECT_TRUE(scan.denseRound(1));
    EXPECT_FALSE(sparse.denseRound(1024));
    EXPECT_FALSE(adaptive.denseRound(32)); // threshold is exclusive
    EXPECT_TRUE(adaptive.denseRound(33));
}

TEST(FrontierEngine_, PlanRoundPerMode)
{
    using rt::RoundPlan;
    // V = 1024, E = 8192: pull above V / 20 = 51, dense above 32.
    FrontierEngine scan(1024, 8192, 1, FrontierMode::kFlagScan);
    FrontierEngine sparse(1024, 8192, 1, FrontierMode::kSparse);
    FrontierEngine adaptive(1024, 8192, 1, FrontierMode::kAdaptive);
    ASSERT_EQ(rt::pullFrontThreshold(1024), 51u);
    // Only kAdaptive ever plans a pull round.
    EXPECT_EQ(scan.planRound(1024, true), RoundPlan::kDensePush);
    EXPECT_EQ(scan.planRound(1, true), RoundPlan::kDensePush);
    EXPECT_EQ(sparse.planRound(1024, true), RoundPlan::kSparsePush);
    EXPECT_EQ(sparse.planRound(1, true), RoundPlan::kSparsePush);
    // Both thresholds are exclusive.
    EXPECT_EQ(adaptive.planRound(1024, true), RoundPlan::kPull);
    EXPECT_EQ(adaptive.planRound(52, true), RoundPlan::kPull);
    EXPECT_EQ(adaptive.planRound(51, true), RoundPlan::kDensePush);
    EXPECT_EQ(adaptive.planRound(33, true), RoundPlan::kDensePush);
    EXPECT_EQ(adaptive.planRound(32, true), RoundPlan::kSparsePush);
    // Without a pull formulation the push-only policy applies.
    EXPECT_EQ(adaptive.planRound(1024, false), RoundPlan::kDensePush);
    EXPECT_EQ(adaptive.planRound(52, false), RoundPlan::kDensePush);
    EXPECT_EQ(adaptive.planRound(32, false), RoundPlan::kSparsePush);
}

TEST(FrontierEngine_, SeedIsIdempotentAndDrainsSparse)
{
    FrontierEngine f(1000, 2000, 1, FrontierMode::kSparse);
    f.seed(3);
    f.seed(500);
    f.seed(999);
    f.seed(3); // duplicate must not double-count
    ASSERT_EQ(f.initialFrontSize(), 3u);

    std::vector<std::uint32_t> got;
    rt::NativeExecutor exec(1);
    exec.parallel(1, [&](rt::NativeCtx& ctx) {
        std::uint64_t front = f.initialFrontSize();
        std::uint64_t round = 0;
        while (front != 0) {
            f.processCurrent(ctx, round, f.denseRound(front),
                             [&](std::uint32_t v) { got.push_back(v); });
            front = f.advance(ctx, round);
            ++round;
        }
    });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::uint32_t>{3, 500, 999}));
}

TEST(FrontierEngine_, ActivatePropagatesAcrossRounds)
{
    // A chain: round r's single vertex activates vertex r+1. The
    // double-buffered queues must hand exactly {r} to round r.
    constexpr std::uint32_t kLen = 9;
    FrontierEngine f(64, 128, 1, FrontierMode::kSparse);
    f.seed(0);
    std::vector<std::vector<std::uint32_t>> per_round;
    rt::NativeExecutor exec(1);
    exec.parallel(1, [&](rt::NativeCtx& ctx) {
        std::uint64_t front = f.initialFrontSize();
        std::uint64_t round = 0;
        while (front != 0) {
            per_round.emplace_back();
            f.processCurrent(ctx, round, false, [&](std::uint32_t v) {
                per_round.back().push_back(v);
                if (v + 1 < kLen) {
                    EXPECT_TRUE(f.activate(ctx, round, v + 1));
                    // Re-activation of a pending vertex is a no-op.
                    EXPECT_FALSE(f.activate(ctx, round, v + 1));
                }
            });
            front = f.advance(ctx, round);
            ++round;
        }
    });
    ASSERT_EQ(per_round.size(), static_cast<std::size_t>(kLen));
    for (std::uint32_t r = 0; r < kLen; ++r) {
        EXPECT_EQ(per_round[r], std::vector<std::uint32_t>{r})
            << "round " << r;
    }
}

TEST(FrontierEngine_, AdaptiveDenseSparseRoundTrip)
{
    // V = 1024, E = 8192 => dense threshold 32. A binary-tree
    // expansion from vertex 1 produces fronts 1, 2, 4, ..., 512, so
    // rounds 0..5 run sparse and rounds 6..9 run dense; the level
    // sets [2^r, 2^(r+1)) must come out intact either way — i.e. the
    // dense<->sparse conversion round-trips.
    FrontierEngine f(1024, 8192, 1, FrontierMode::kAdaptive);
    f.seed(1);
    bool saw_sparse = false;
    bool saw_dense = false;
    std::vector<std::vector<std::uint32_t>> per_round;
    rt::NativeExecutor exec(1);
    exec.parallel(1, [&](rt::NativeCtx& ctx) {
        std::uint64_t front = f.initialFrontSize();
        std::uint64_t round = 0;
        while (front != 0) {
            const bool dense = f.denseRound(front);
            (dense ? saw_dense : saw_sparse) = true;
            per_round.emplace_back();
            f.processCurrent(ctx, round, dense, [&](std::uint32_t v) {
                per_round.back().push_back(v);
                if (2 * v + 1 < 1024) {
                    f.activate(ctx, round, 2 * v);
                    f.activate(ctx, round, 2 * v + 1);
                }
            });
            front = f.advance(ctx, round);
            ++round;
        }
    });
    EXPECT_TRUE(saw_sparse);
    EXPECT_TRUE(saw_dense);
    ASSERT_EQ(per_round.size(), 10u);
    for (std::uint32_t r = 0; r < 10; ++r) {
        std::vector<std::uint32_t> expect(1u << r);
        std::iota(expect.begin(), expect.end(), 1u << r);
        std::sort(per_round[r].begin(), per_round[r].end());
        EXPECT_EQ(per_round[r], expect) << "round " << r;
    }
}

TEST(FrontierEngine_, SeedAllExactlyOnceUnderStealing)
{
    // 4 native threads, every vertex seeded: own-queue draining plus
    // stealing must deliver each vertex to exactly one consumer.
    constexpr std::uint32_t kV = 50000;
    FrontierEngine f(kV, 100000, 4, FrontierMode::kSparse);
    f.seedAll();
    ASSERT_EQ(f.initialFrontSize(), static_cast<std::uint64_t>(kV));

    AlignedVector<std::uint32_t> count(kV, 0);
    rt::NativeExecutor exec(4);
    exec.parallel(4, [&](rt::NativeCtx& ctx) {
        std::uint64_t front = f.initialFrontSize();
        std::uint64_t round = 0;
        while (front != 0) {
            f.processCurrent(ctx, round, false, [&](std::uint32_t v) {
                ctx.fetchAdd(count[v], 1u);
            });
            front = f.advance(ctx, round);
            ++round;
        }
    });
    for (std::uint32_t v = 0; v < kV; ++v) {
        ASSERT_EQ(count[v], 1u) << "vertex " << v;
    }
}

TEST(FrontierEngine_, LocalWorklistFifoWithWraparound)
{
    rt::LocalWorklist wl(4); // ring of 5 slots
    rt::NativeExecutor exec(1);
    exec.parallel(1, [&](rt::NativeCtx& ctx) {
        EXPECT_TRUE(wl.empty());
        wl.push(ctx, 1);
        wl.push(ctx, 2);
        wl.push(ctx, 3);
        wl.push(ctx, 4);
        EXPECT_EQ(wl.pop(ctx), 1u);
        EXPECT_EQ(wl.pop(ctx), 2u);
        wl.push(ctx, 5); // wraps the tail cursor
        wl.push(ctx, 6);
        EXPECT_EQ(wl.pop(ctx), 3u);
        EXPECT_EQ(wl.pop(ctx), 4u);
        EXPECT_EQ(wl.pop(ctx), 5u);
        EXPECT_EQ(wl.pop(ctx), 6u);
        EXPECT_TRUE(wl.empty());
        wl.clear();
        EXPECT_TRUE(wl.empty());
    });
}

// ---------------------------------------------------------------------
// Engine mechanics on the simulator (deterministic scheduling).
// ---------------------------------------------------------------------

TEST(FrontierSim, ChunkStealingSpreadsOneThreadsQueue)
{
    // All 2000 seeds land in thread 0's block of V=16000 (block size
    // 2000 at 8 threads), i.e. 8 chunks in a single queue. With the
    // deterministic simulator schedule the other threads must steal a
    // share, and every vertex is still processed exactly once.
    constexpr std::uint32_t kV = 16000;
    constexpr std::uint32_t kSeeded = 2000;
    FrontierEngine f(kV, 32000, 8, FrontierMode::kSparse);
    for (std::uint32_t v = 0; v < kSeeded; ++v) {
        f.seed(v);
    }
    AlignedVector<std::uint32_t> count(kV, 0);
    std::vector<Padded<std::uint64_t>> per_thread(8);
    sim::Machine machine(test::smallSimConfig());
    machine.parallel(8, [&](sim::SimCtx& ctx) {
        std::uint64_t front = f.initialFrontSize();
        std::uint64_t round = 0;
        while (front != 0) {
            f.processCurrent(ctx, round, false, [&](std::uint32_t v) {
                ctx.fetchAdd(count[v], 1u);
                ctx.fetchAdd(per_thread[ctx.tid()].value,
                             std::uint64_t{1});
            });
            front = f.advance(ctx, round);
            ++round;
        }
    });
    std::uint64_t total = 0;
    int threads_with_work = 0;
    for (const auto& p : per_thread) {
        total += p.value;
        threads_with_work += p.value != 0 ? 1 : 0;
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(kSeeded));
    EXPECT_GE(threads_with_work, 2) << "no chunk was ever stolen";
    for (std::uint32_t v = 0; v < kSeeded; ++v) {
        ASSERT_EQ(count[v], 1u) << "vertex " << v;
    }
    for (std::uint32_t v = kSeeded; v < kV; ++v) {
        ASSERT_EQ(count[v], 0u) << "vertex " << v;
    }
}

// ---------------------------------------------------------------------
// Kernels: every mode matches the sequential reference.
// ---------------------------------------------------------------------

/** (graph name, mode index, thread count). */
using GraphModeThreads = std::tuple<std::string, int, int>;

std::string
graphModeThreadsName(const ::testing::TestParamInfo<GraphModeThreads>& i)
{
    return std::get<0>(i.param) + "_" +
           rt::frontierModeName(modeFromIndex(std::get<1>(i.param))) +
           "_t" + std::to_string(std::get<2>(i.param));
}

class FrontierKernelParamTest
    : public ::testing::TestWithParam<GraphModeThreads> {};

TEST_P(FrontierKernelParamTest, SsspMatchesSequential)
{
    const auto [name, mode_index, threads] = GetParam();
    const graph::Graph g = bigGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result = core::sssp(exec, threads, g, 0, nullptr,
                                   modeFromIndex(mode_index));
    const auto expect = core::seq::sssp(g, 0);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.dist[v], expect[v]) << name << " vertex " << v;
    }
}

TEST_P(FrontierKernelParamTest, BfsMatchesSequential)
{
    const auto [name, mode_index, threads] = GetParam();
    const graph::Graph g = bigGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result =
        core::bfs(exec, threads, g, 0, graph::kNoVertex, nullptr,
                  modeFromIndex(mode_index));
    const auto expect = core::seq::bfsLevels(g, 0);
    std::uint64_t expect_reached = 0;
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.level[v], expect[v]) << name << " vertex " << v;
        expect_reached += expect[v] != core::kNoLevel ? 1 : 0;
    }
    EXPECT_EQ(result.reached, expect_reached);
}

TEST_P(FrontierKernelParamTest, ConnectedComponentsMatchesSequential)
{
    const auto [name, mode_index, threads] = GetParam();
    const graph::Graph g = bigGraph(name);
    rt::NativeExecutor exec(threads);
    const auto result = core::connectedComponents(
        exec, threads, g, nullptr, modeFromIndex(mode_index));
    const auto expect = core::seq::componentLabels(g);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.label[v], expect[v]) << name << " vertex " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, FrontierKernelParamTest,
    ::testing::Combine(::testing::Values("lattice", "uniform",
                                         "powerlaw"),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 4)),
    graphModeThreadsName);

TEST(FrontierKernels, ApspWorklistMatchesFlagScan)
{
    const graph::AdjacencyMatrix m(test::makeGraph("sparse"));
    rt::NativeExecutor exec(4);
    const auto scan =
        core::apsp(exec, 4, m, nullptr, FrontierMode::kFlagScan);
    const auto wl = core::apsp(exec, 4, m, nullptr, FrontierMode::kSparse);
    ASSERT_EQ(scan.dist.size(), wl.dist.size());
    for (std::size_t i = 0; i < scan.dist.size(); ++i) {
        ASSERT_EQ(scan.dist[i], wl.dist[i]) << "entry " << i;
    }
}

TEST(FrontierKernels, BetweennessWorklistMatchesSequential)
{
    const graph::AdjacencyMatrix m(test::makeGraph("grid"));
    rt::NativeExecutor exec(4);
    const auto expect = core::seq::betweenness(m);
    for (const FrontierMode mode :
         {FrontierMode::kSparse, FrontierMode::kAdaptive}) {
        const auto result =
            core::betweenness(exec, 4, m, nullptr, mode);
        for (graph::VertexId v = 0; v < m.numVertices(); ++v) {
            ASSERT_EQ(result.centrality[v], expect[v])
                << rt::frontierModeName(mode) << " vertex " << v;
        }
    }
}

TEST(FrontierKernels, BfsEarlyStopStillFindsTarget)
{
    const graph::Graph g = bigGraph("lattice");
    rt::NativeExecutor exec(4);
    const auto expect = core::seq::bfsLevels(g, 0);
    const graph::VertexId target = g.numVertices() - 1;
    const auto result = core::bfs(exec, 4, g, 0, target, nullptr,
                                  FrontierMode::kSparse);
    EXPECT_TRUE(result.found_target);
    EXPECT_EQ(result.level[target], expect[target]);
}

// ---------------------------------------------------------------------
// Per-round variability reporting.
// ---------------------------------------------------------------------

TEST(FrontierVariability, PerRoundSeriesMatchesRoundCount)
{
    const graph::Graph g = test::makeGraph("road");
    rt::NativeExecutor exec(4);
    const auto result = core::sssp(exec, 4, g, 0, nullptr,
                                   FrontierMode::kSparse);
    ASSERT_EQ(result.run.round_variability.size(), result.rounds);
    ASSERT_GT(result.rounds, 1u);
    double sum = 0.0;
    for (const double v : result.run.round_variability) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
        sum += v;
    }
    // The scalar becomes the per-round mean for frontier kernels.
    EXPECT_DOUBLE_EQ(result.run.variability,
                     sum / static_cast<double>(result.rounds));
}

TEST(FrontierVariability, FlagScanKeepsWholeRunScalar)
{
    const graph::Graph g = test::makeGraph("road");
    rt::NativeExecutor exec(4);
    const auto result = core::sssp(exec, 4, g, 0, nullptr,
                                   FrontierMode::kFlagScan);
    EXPECT_TRUE(result.run.round_variability.empty());
}

// ---------------------------------------------------------------------
// Kernels on the simulated machine (kSparse / kAdaptive complete and
// stay correct under the deterministic fiber schedule).
// ---------------------------------------------------------------------

TEST(FrontierSim, SsspSparseMatchesSequential)
{
    const graph::Graph g = test::makeGraph("road");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::sssp(machine, 8, g, 17, nullptr,
                                   FrontierMode::kSparse);
    const auto expect = core::seq::sssp(g, 17);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.dist[v], expect[v]);
    }
    EXPECT_GT(result.run.time, 0.0);
}

TEST(FrontierSim, BfsAdaptiveMatchesSequential)
{
    const graph::Graph g = test::makeGraph("social");
    sim::Machine machine(test::smallSimConfig());
    const auto result =
        core::bfs(machine, 8, g, 3, graph::kNoVertex, nullptr,
                  FrontierMode::kAdaptive);
    const auto expect = core::seq::bfsLevels(g, 3);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.level[v], expect[v]);
    }
}

TEST(FrontierSim, ConnectedComponentsSparseMatchesSequential)
{
    const graph::Graph g = test::makeGraph("cliques");
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::connectedComponents(
        machine, 8, g, nullptr, FrontierMode::kSparse);
    const auto expect = core::seq::componentLabels(g);
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(result.label[v], expect[v]);
    }
    EXPECT_EQ(result.num_components, 5u);
}

TEST(FrontierSim, ApspWorklistMatchesSequential)
{
    const graph::AdjacencyMatrix m(test::makeGraph("ring"));
    sim::Machine machine(test::smallSimConfig());
    const auto result =
        core::apsp(machine, 8, m, nullptr, FrontierMode::kSparse);
    const auto expect = core::seq::apsp(m);
    ASSERT_EQ(result.dist.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(result.dist[i], expect[i]) << "entry " << i;
    }
}

TEST(FrontierSim, BetweennessWorklistMatchesSequential)
{
    const graph::AdjacencyMatrix m(test::makeGraph("star"));
    sim::Machine machine(test::smallSimConfig());
    const auto result = core::betweenness(machine, 8, m, nullptr,
                                          FrontierMode::kAdaptive);
    const auto expect = core::seq::betweenness(m);
    for (graph::VertexId v = 0; v < m.numVertices(); ++v) {
        ASSERT_EQ(result.centrality[v], expect[v]) << "vertex " << v;
    }
}

} // namespace
} // namespace crono
