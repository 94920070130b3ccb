/**
 * @file
 * Hook-and-compress connected components (the kernel behind every
 * non-flag-scan FrontierMode). Its labels must equal
 * core::seq::componentLabels byte for byte, i.e. the minimum member id
 * of each component, on:
 *  - road, social and Kronecker graphs at 1/2/3/4/8 threads;
 *  - graphs that stress the frequent-label skip: many small
 *    components plus isolated vertices, and two equal halves, where
 *    the sampled "most frequent" label is a near coin toss;
 *  - an 8-core simulated machine.
 * The CAS races differ from run to run, so each native case repeats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/connected_components.h"
#include "core/sequential.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "runtime/executor.h"
#include "sim/machine.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using graph::VertexId;
using rt::FrontierMode;

constexpr int kRepeats = 3;

/** Components of sizes 1..6 over shuffled ids; size 1 is isolated. */
graph::Graph
smallComponents(VertexId n, std::uint64_t seed)
{
    std::vector<VertexId> ids(n);
    std::iota(ids.begin(), ids.end(), VertexId{0});
    Rng rng(seed);
    for (VertexId i = n; i > 1; --i) {
        std::swap(ids[i - 1], ids[rng.nextBelow(i)]);
    }
    graph::GraphBuilder b(n);
    for (VertexId at = 0; at < n;) {
        const auto size = static_cast<VertexId>(
            std::min<std::uint64_t>(1 + rng.nextBelow(6), n - at));
        for (VertexId k = 1; k < size; ++k) {
            // A random tree: each member joins an earlier one.
            b.addEdge(ids[at + k], ids[at + rng.nextBelow(k)]);
        }
        at += size;
    }
    return std::move(b).build();
}

/**
 * Two disjoint side x side grids with interleaved ids (even ids one
 * half, odd ids the other): the samples split about evenly between
 * the two roots, so either may be skipped.
 */
graph::Graph
twoHalves(VertexId side)
{
    const VertexId half = side * side;
    graph::GraphBuilder b(2 * half);
    for (VertexId h = 0; h < 2; ++h) {
        const auto id = [&](VertexId r, VertexId c) {
            return 2 * (r * side + c) + h;
        };
        for (VertexId r = 0; r < side; ++r) {
            for (VertexId c = 0; c < side; ++c) {
                if (c + 1 < side) {
                    b.addEdge(id(r, c), id(r, c + 1));
                }
                if (r + 1 < side) {
                    b.addEdge(id(r, c), id(r + 1, c));
                }
            }
        }
    }
    return std::move(b).build();
}

graph::Graph
ccGraph(const std::string& name)
{
    namespace gen = graph::generators;
    if (name == "road") {
        return graph::reorderGraph(gen::roadNetwork(64, 64, 3),
                                   graph::Reordering::kRcm)
            .graph;
    }
    if (name == "social") {
        return gen::socialNetwork(12, 8, 5);
    }
    if (name == "kron") {
        return graph::reorderGraph(gen::kronecker(12, 16, 255, 7),
                                   graph::Reordering::kDegreeSort)
            .graph;
    }
    if (name == "small_components") {
        return smallComponents(3000, 11);
    }
    if (name == "two_halves") {
        return twoHalves(40);
    }
    ADD_FAILURE() << "unknown graph " << name;
    return gen::path(2);
}

/** Byte-for-byte label equality with the sequential oracle. */
void
expectSequentialLabels(const core::ConnectedComponentsResult& got,
                       const std::vector<VertexId>& want)
{
    ASSERT_EQ(got.label.size(), want.size());
    EXPECT_EQ(std::memcmp(got.label.data(), want.data(),
                          want.size() * sizeof(VertexId)),
              0);
    std::uint64_t components = 0;
    for (VertexId v = 0; v < want.size(); ++v) {
        components += want[v] == v ? 1 : 0;
    }
    EXPECT_EQ(got.num_components, components);
}

using CcCase = std::tuple<std::string, int>;

class CcHook : public ::testing::TestWithParam<CcCase> {};

TEST_P(CcHook, LabelsEqualSequential)
{
    const auto& [name, threads] = GetParam();
    const graph::Graph g = ccGraph(name);
    const std::vector<VertexId> want = core::seq::componentLabels(g);
    rt::NativeExecutor exec(threads);
    for (int rep = 0; rep < kRepeats; ++rep) {
        SCOPED_TRACE("repeat " + std::to_string(rep));
        expectSequentialLabels(
            core::connectedComponents(exec, threads, g, nullptr,
                                      FrontierMode::kAdaptive),
            want);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CcHook,
    ::testing::Combine(::testing::Values("road", "social", "kron",
                                         "small_components",
                                         "two_halves"),
                       ::testing::Values(1, 2, 3, 4, 8)),
    test::graphThreadsName);

TEST(CcHookModes, EveryNonFlagScanModeRunsTheSameKernel)
{
    const graph::Graph g = ccGraph("small_components");
    const std::vector<VertexId> want = core::seq::componentLabels(g);
    rt::NativeExecutor exec(4);
    for (const FrontierMode mode :
         {FrontierMode::kSparse, FrontierMode::kAdaptive}) {
        SCOPED_TRACE(rt::frontierModeName(mode));
        const auto got =
            core::connectedComponents(exec, 4, g, nullptr, mode);
        expectSequentialLabels(got, want);
        EXPECT_EQ(got.rounds, core::kHookSampleRounds + 1);
    }
}

TEST(CcHookModes, EmptyGraph)
{
    const graph::Graph g = graph::GraphBuilder(0).build();
    rt::NativeExecutor exec(2);
    const auto got = core::connectedComponents(exec, 2, g, nullptr,
                                               FrontierMode::kAdaptive);
    EXPECT_TRUE(got.label.empty());
    EXPECT_EQ(got.num_components, 0u);
}

TEST(CcHookDeathTest, DirectedGraphIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    graph::GraphBuilder b(4, /*undirected=*/false);
    b.addEdge(1, 0);
    b.addEdge(2, 3);
    const graph::Graph g = std::move(b).build();
    rt::NativeExecutor exec(1);
    EXPECT_DEATH(core::connectedComponents(exec, 1, g, nullptr,
                                           FrontierMode::kAdaptive),
                 "undirected");
}

TEST(CcHookSim, EightCoreMachineMatchesSequential)
{
    sim::Machine machine(test::smallSimConfig());
    for (const std::string name : {"small_components", "two_halves"}) {
        SCOPED_TRACE(name);
        const graph::Graph g = ccGraph(name);
        expectSequentialLabels(
            core::connectedComponents(machine, 8, g, nullptr,
                                      FrontierMode::kAdaptive),
            core::seq::componentLabels(g));
    }
    const graph::Graph road = test::makeGraph("road");
    expectSequentialLabels(
        core::connectedComponents(machine, 8, road, nullptr,
                                  FrontierMode::kAdaptive),
        core::seq::componentLabels(road));
}

} // namespace
} // namespace crono
