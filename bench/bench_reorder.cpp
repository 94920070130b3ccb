/**
 * @file
 * Ordering x kernel speedup table for the reordering subsystem
 * (graph/reorder.h): every Reordering is applied to a road network
 * and a power-law social network, each kernel is timed natively, and
 * the table reports per-ordering speedup over kNone.
 * The acceptance bar recorded in EXPERIMENTS.md: the best ordering
 * must reach >= 1.2x over kNone on at least one social-graph kernel.
 *
 * A second section replays a reduced (ordering, kernel) grid on the
 * simulator and reports the locality movement — L1-D miss rate and
 * the paper's cache-hierarchy miss rate — that explains the native
 * wall-time wins.
 *
 * `--json=DIR` additionally writes DIR/table_reorder.json, a
 * "crono.bench.v1" document with one row per (kernel, graph,
 * ordering) cell; tests/report_schema_test.cpp parses it.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/reorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace {

using namespace crono;
using graph::Reordering;

constexpr int kThreads = 4;

struct KernelSpec {
    const char* name;   ///< row label and JSON name component
    const char* kernel; ///< paper identifier for the JSON row
    rt::RunInfo (*run)(rt::NativeExecutor&, const graph::Graph&,
                       graph::VertexId);
};

rt::RunInfo
runPageRankGather(rt::NativeExecutor& exec, const graph::Graph& g,
                  graph::VertexId)
{
    return core::pageRank(exec, kThreads, g, 5, 0.15, nullptr,
                          core::PageRankMode::kGather)
        .run;
}

rt::RunInfo
runBfs(rt::NativeExecutor& exec, const graph::Graph& g,
       graph::VertexId src)
{
    return core::bfs(exec, kThreads, g, src, graph::kNoVertex, nullptr,
                     rt::FrontierMode::kAdaptive)
        .run;
}

rt::RunInfo
runSssp(rt::NativeExecutor& exec, const graph::Graph& g,
        graph::VertexId src)
{
    return core::sssp(exec, kThreads, g, src, nullptr,
                      rt::FrontierMode::kAdaptive)
        .run;
}

rt::RunInfo
runConnComp(rt::NativeExecutor& exec, const graph::Graph& g,
            graph::VertexId)
{
    return core::connectedComponents(exec, kThreads, g, nullptr,
                                     rt::FrontierMode::kAdaptive)
        .run;
}

rt::RunInfo
runTriangles(rt::NativeExecutor& exec, const graph::Graph& g,
             graph::VertexId)
{
    return core::triangleCount(exec, kThreads, g).run;
}

const KernelSpec kKernels[] = {
    {"pagerank-gather", "PAGE_RANK", runPageRankGather},
    {"bfs", "BFS", runBfs},
    {"sssp", "SSSP_DIJK", runSssp},
    {"conncomp", "CONN_COMP", runConnComp},
    {"tricnt", "TRI_CNT", runTriangles},
};

/** One timed cell: best wall time of @p reps runs. */
struct Cell {
    double seconds = 0.0;
    rt::RunInfo info;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

Cell
timeCell(const KernelSpec& spec, rt::NativeExecutor& exec,
         const graph::ReorderedGraph& rg, int reps)
{
    Cell best;
    for (int rep = 0; rep < reps; ++rep) {
        obs::TelemetrySession session;
        const auto start = std::chrono::steady_clock::now();
        rt::RunInfo info =
            spec.run(exec, rg.graph, rg.perm.toNew(0));
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        if (rep == 0 || s < best.seconds) {
            best.seconds = s;
            best.info = std::move(info);
            best.counters = obs::counterTotals(session.recorder());
        }
    }
    return best;
}

struct BenchGraph {
    std::string name;   ///< table label, e.g. "social"
    std::string detail; ///< JSON graph field, e.g. "social(2^15,ef16)"
    graph::Graph g;
    bool is_social = false;
};

std::vector<BenchGraph>
benchGraphs(const bench::Options& opt)
{
    namespace gen = graph::generators;
    std::vector<BenchGraph> out;
    const unsigned scale = opt.quick ? 11 : 15;
    const graph::VertexId side = opt.quick ? 96 : 256;
    out.push_back({"road",
                   "road(" + std::to_string(side) + "," +
                       std::to_string(side) + ")",
                   gen::roadNetwork(side, side, opt.seed), false});
    out.push_back({"social",
                   "social(2^" + std::to_string(scale) + ",ef16)",
                   gen::socialNetwork(scale, 16, opt.seed + 1), true});
    return out;
}

/** Simulator locality movement for one (graph, ordering) pair. */
void
simLocalitySection(const bench::Options& opt)
{
    std::printf("\n== simulator locality (PageRank gather, 8 simulated "
                "cores) ==\n");
    std::printf("%-8s %-10s %14s %10s %12s\n", "graph", "ordering",
                "cycles", "L1D-miss", "hier-miss");
    sim::Config cfg = sim::Config::futuristic256();
    cfg.num_cores = 8;
    namespace gen = graph::generators;
    const graph::Graph road = gen::roadNetwork(24, 24, opt.seed);
    const graph::Graph social = gen::socialNetwork(9, 8, opt.seed + 1);
    const std::pair<const char*, const graph::Graph*> graphs[] = {
        {"road", &road}, {"social", &social}};
    for (const auto& [gname, gptr] : graphs) {
        for (const Reordering r :
             {Reordering::kNone, Reordering::kDegreeSort,
              Reordering::kRcm}) {
            const graph::ReorderedGraph rg = graph::reorderGraph(*gptr, r);
            sim::Machine machine(cfg);
            core::pageRank(machine, 8, rg.graph, 3, 0.15, nullptr,
                           core::PageRankMode::kGather);
            const sim::SimRunStats& st = machine.lastStats();
            std::printf("%-8s %-10s %14llu %9.2f%% %11.2f%%\n", gname,
                        graph::reorderingName(r),
                        static_cast<unsigned long long>(
                            st.completion_cycles),
                        100.0 * st.l1d.missRate(),
                        100.0 * st.cacheHierarchyMissRate());
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    const int reps = opt.quick ? 2 : 3;
    const std::vector<BenchGraph> graphs = benchGraphs(opt);

    std::vector<obs::BenchResult> rows;
    double best_social_speedup = 0.0;
    std::string best_social_label;

    for (const BenchGraph& bg : graphs) {
        std::printf("== %s: %u vertices, %llu edge slots ==\n",
                    bg.detail.c_str(), bg.g.numVertices(),
                    static_cast<unsigned long long>(bg.g.numEdges()));
        std::printf("%-16s", "kernel");
        for (const Reordering r : graph::allReorderings()) {
            std::printf(" %13s", graph::reorderingName(r));
        }
        std::printf("   (ms per run; speedup vs none)\n");

        // Relabel once per ordering, reporting the reorder cost.
        std::vector<graph::ReorderedGraph> relabeled;
        for (const Reordering r : graph::allReorderings()) {
            const auto start = std::chrono::steady_clock::now();
            relabeled.push_back(graph::reorderGraph(bg.g, r));
            const double ms =
                1e3 * std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
            std::printf("   reorder %-10s %8.2f ms\n",
                        graph::reorderingName(r), ms);
        }

        rt::NativeExecutor exec(kThreads);
        for (const KernelSpec& spec : kKernels) {
            std::printf("%-16s", spec.name);
            double base_seconds = 0.0;
            for (std::size_t ri = 0; ri < relabeled.size(); ++ri) {
                const Reordering r = graph::allReorderings()[ri];
                const Cell cell =
                    timeCell(spec, exec, relabeled[ri], reps);
                if (r == Reordering::kNone) {
                    base_seconds = cell.seconds;
                }
                const double speedup =
                    cell.seconds > 0.0 ? base_seconds / cell.seconds
                                       : 0.0;
                std::printf(" %7.2f %4.2fx", 1e3 * cell.seconds,
                            speedup);
                if (bg.is_social && r != Reordering::kNone &&
                    speedup > best_social_speedup) {
                    best_social_speedup = speedup;
                    best_social_label =
                        std::string(spec.name) + "/" +
                        graph::reorderingName(r);
                }

                obs::BenchResult row;
                row.name = std::string(spec.name) + "/" + bg.name +
                           "/" + graph::reorderingName(r) + "/t" +
                           std::to_string(kThreads);
                row.kernel = spec.kernel;
                row.graph = bg.detail;
                row.vertices = bg.g.numVertices();
                row.edges = bg.g.numEdges();
                row.threads = kThreads;
                row.mode = graph::reorderingName(r);
                row.time_seconds = cell.seconds;
                row.edges_per_second =
                    cell.seconds > 0.0
                        ? static_cast<double>(bg.g.numEdges()) /
                              cell.seconds
                        : 0.0;
                row.variability = cell.info.variability;
                row.counters = cell.counters;
                rows.push_back(std::move(row));
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

    std::printf("best social-graph speedup vs none: %.2fx (%s)\n",
                best_social_speedup, best_social_label.c_str());

    simLocalitySection(opt);

    if (!opt.json_dir.empty()) {
        const std::string path = opt.json_dir + "/table_reorder.json";
        if (!bench::writeBenchReport(path, rows)) {
            return 1;
        }
    }
    return 0;
}
