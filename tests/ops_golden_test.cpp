/**
 * @file
 * Golden native op counts: the per-thread instruction-count proxy
 * (`RunInfo::thread_ops`, the input of the paper's Variability metric,
 * Equation 2) of deterministic native runs, compared thread by thread
 * against recorded constants.
 *
 * NativeCtx counts one op per shared access, lock, barrier and unit
 * of `work()`. How a context implements an access (a plain load, an
 * atomic one) may change for speed, but the count it reports must
 * not, or `variability` drifts silently. The runs pinned here are the
 * deterministic ones: gather PageRank partitions its edges statically
 * at any thread count, and the flag-scan BFS/CC, hook-and-compress CC
 * and delta-stepping kernels schedule deterministically at one
 * thread. A mismatch prints the measured row in the table's own
 * syntax; a row may only be re-recorded by a change that is meant to
 * alter what a kernel counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/delta_stepping.h"
#include "core/pagerank.h"
#include "kernel_test_util.h"
#include "runtime/executor.h"

namespace crono::core {
namespace {

struct Golden {
    const char* graph;
    const char* kernel;
    int threads;
    std::vector<std::uint64_t> thread_ops;
};

// Recorded from native runs; see the file comment before editing.
const Golden kGolden[] = {
    {"road", "pagerank-gather", 1, {19624u}},
    {"road", "pagerank-gather", 2, {9814u, 9814u}},
    {"road", "pagerank-gather", 4, {5035u, 4783u, 5002u, 4816u}},
    {"road", "bfs-flagscan", 1, {11511u}},
    {"road", "cc-flagscan", 1, {37562u}},
    {"road", "cc-hook", 1, {8813u}},
    {"road", "sssp-delta", 1, {6778u}},
    {"social", "pagerank-gather", 1, {26722u}},
    {"social", "pagerank-gather", 2, {10924u, 15802u}},
    {"social", "pagerank-gather", 4, {5080u, 5848u, 7057u, 8749u}},
    {"social", "bfs-flagscan", 1, {8299u}},
    {"social", "cc-flagscan", 1, {21620u}},
    {"social", "cc-hook", 1, {6757u}},
    {"social", "sssp-delta", 1, {11719u}},
};

/** Run one kernel natively and return its per-thread op counts. */
std::vector<std::uint64_t>
opsOf(rt::NativeExecutor& exec, const std::string& kernel, int threads,
      const graph::Graph& g)
{
    if (kernel == "pagerank-gather") {
        return pageRank(exec, threads, g, 3, 0.15, nullptr,
                        PageRankMode::kGather)
            .run.thread_ops;
    }
    if (kernel == "bfs-flagscan") {
        return bfs(exec, threads, g, 0).run.thread_ops;
    }
    if (kernel == "cc-flagscan") {
        return connectedComponents(exec, threads, g).run.thread_ops;
    }
    if (kernel == "cc-hook") {
        return connectedComponents(exec, threads, g, nullptr,
                                   rt::FrontierMode::kAdaptive)
            .run.thread_ops;
    }
    return deltaSteppingSssp(exec, threads, g, 0).run.thread_ops;
}

std::string
rowOf(const Golden& g, const std::vector<std::uint64_t>& ops)
{
    std::ostringstream os;
    os << "    {\"" << g.graph << "\", \"" << g.kernel << "\", "
       << g.threads << ", {";
    for (std::size_t i = 0; i < ops.size(); ++i) {
        os << (i == 0 ? "" : ", ") << ops[i] << "u";
    }
    os << "}},";
    return os.str();
}

void
PrintTo(const Golden& g, std::ostream* os)
{
    *os << g.graph << "/" << g.kernel << "/t" << g.threads;
}

class OpsGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(OpsGolden, ThreadOpsMatchRecording)
{
    const Golden& want = GetParam();
    const graph::Graph g = test::makeGraph(want.graph);
    rt::NativeExecutor exec(want.threads);
    const std::vector<std::uint64_t> got =
        opsOf(exec, want.kernel, want.threads, g);
    EXPECT_EQ(got, want.thread_ops) << "measured:\n" << rowOf(want, got);
    // Deterministic runs repeat their counts exactly.
    EXPECT_EQ(opsOf(exec, want.kernel, want.threads, g), got);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, OpsGolden, ::testing::ValuesIn(kGolden), [](const auto& info) {
        std::string name = std::string(info.param.graph) + "_" +
                           info.param.kernel + "_t" +
                           std::to_string(info.param.threads);
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace crono::core
