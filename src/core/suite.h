/**
 * @file
 * The CRONO suite registry (Table I) and a uniform dispatcher.
 *
 * Benchmarks are identified by BenchmarkId; runBenchmark() executes
 * any of the ten kernels on any executor with a Workload bundle, so
 * the experiment harnesses can sweep the whole suite uniformly.
 */

#ifndef CRONO_CORE_SUITE_H_
#define CRONO_CORE_SUITE_H_

#include <span>
#include <string>

#include "core/apsp.h"
#include "core/betweenness.h"
#include "core/bfs.h"
#include "core/community.h"
#include "core/connected_components.h"
#include "core/delta_stepping.h"
#include "core/dfs.h"
#include "core/mcs.h"
#include "core/pagerank.h"
#include "core/sssp.h"
#include "core/triangle_count.h"
#include "core/tsp.h"

namespace crono::core {

/** The ten CRONO benchmarks plus the MCS extension kernel. */
enum class BenchmarkId : int {
    ssspDijk = 0,
    apsp,
    betwCent,
    bfs,
    dfs,
    tsp,
    connComp,
    triCnt,
    pageRank,
    comm,
    mcs, ///< maximum common subgraph (rt::bnb extension kernel)
};

/** Number of benchmarks in the suite. */
inline constexpr int kNumBenchmarks = 11;

/** Registry row (Table I of the paper). */
struct BenchmarkInfo {
    BenchmarkId id;
    const char* name;            ///< paper identifier, e.g. "SSSP_DIJK"
    const char* category;        ///< Path Planning / Search / Processing
    const char* parallelization; ///< Table I strategy
};

/** All registry rows, in paper order. */
std::span<const BenchmarkInfo> allBenchmarks();

/** Registry row for one benchmark. */
const BenchmarkInfo& benchmarkInfo(BenchmarkId id);

/** Paper identifier of @p id. */
const char* benchmarkName(BenchmarkId id);

/** Inputs consumed by runBenchmark (non-owning). */
struct Workload {
    const graph::Graph* graph = nullptr;            ///< CSR kernels
    const graph::AdjacencyMatrix* matrix = nullptr; ///< APSP / BETW_CENT
    const graph::AdjacencyMatrix* cities = nullptr; ///< TSP
    const graph::LabeledMatrix* mcs_pattern = nullptr; ///< MCS
    const graph::LabeledMatrix* mcs_target = nullptr;  ///< MCS
    graph::VertexId source = 0;
    unsigned pr_iterations = 5;
    unsigned comm_rounds = 8;
    /**
     * Frontier representation for the frontier-driven kernels (SSSP,
     * BFS, and the APSP/BETW_CENT forward pass); CONN_COMP runs
     * hook-and-compress in every mode but kFlagScan. The default
     * keeps every paper-figure experiment on the paper's flag-scan
     * structure.
     */
    rt::FrontierMode frontier_mode = rt::FrontierMode::kFlagScan;
    /**
     * PageRank phase structure; the default keeps the paper's
     * capture-and-scatter shape (see PageRankMode).
     */
    PageRankMode pr_mode = PageRankMode::kScatter;
    /**
     * SSSP algorithm: the paper's label-correcting work-list kernel
     * (default) or bucketed delta-stepping (delta_stepping.h). For
     * kDeltaStep, sssp_delta selects the bucket width (0 = auto).
     */
    SsspAlgo sssp_algo = SsspAlgo::kWorkList;
    graph::Dist sssp_delta = 0;
};

/**
 * Execute benchmark @p id with @p nthreads threads on @p exec.
 *
 * Results are discarded (correctness is the test suite's job); the
 * returned RunInfo carries completion time and per-thread ops.
 */
template <class Exec>
rt::RunInfo
runBenchmark(BenchmarkId id, Exec& exec, int nthreads, const Workload& w,
             rt::ActiveTracker* tracker = nullptr)
{
    switch (id) {
      case BenchmarkId::ssspDijk:
        if (w.sssp_algo == SsspAlgo::kDeltaStep) {
            return deltaSteppingSssp(exec, nthreads, *w.graph, w.source,
                                     tracker, w.sssp_delta)
                .run;
        }
        return sssp(exec, nthreads, *w.graph, w.source, tracker,
                    w.frontier_mode)
            .run;
      case BenchmarkId::apsp:
        return apsp(exec, nthreads, *w.matrix, tracker, w.frontier_mode)
            .run;
      case BenchmarkId::betwCent:
        return betweenness(exec, nthreads, *w.matrix, tracker,
                           w.frontier_mode)
            .run;
      case BenchmarkId::bfs:
        return bfs(exec, nthreads, *w.graph, w.source, graph::kNoVertex,
                   tracker, w.frontier_mode)
            .run;
      case BenchmarkId::dfs:
        return dfs(exec, nthreads, *w.graph, w.source, graph::kNoVertex,
                   tracker)
            .run;
      case BenchmarkId::tsp:
        return tsp(exec, nthreads, *w.cities, tracker).run;
      case BenchmarkId::connComp:
        return connectedComponents(exec, nthreads, *w.graph, tracker,
                                   w.frontier_mode)
            .run;
      case BenchmarkId::triCnt:
        return triangleCount(exec, nthreads, *w.graph, tracker).run;
      case BenchmarkId::pageRank:
        return pageRank(exec, nthreads, *w.graph, w.pr_iterations, 0.15,
                        tracker, w.pr_mode)
            .run;
      case BenchmarkId::comm:
        return communityDetection(exec, nthreads, *w.graph, w.comm_rounds,
                                  tracker)
            .run;
      case BenchmarkId::mcs:
        return mcs(exec, nthreads, *w.mcs_pattern, *w.mcs_target,
                   tracker)
            .run;
    }
    CRONO_ASSERT(false, "unknown benchmark id");
    return {};
}

} // namespace crono::core

#endif // CRONO_CORE_SUITE_H_
