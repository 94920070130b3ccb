/**
 * @file
 * google-benchmark microbenchmarks: native kernel throughput (edges
 * per second per kernel) and the hot simulator components (cache
 * lookup, mesh routing, memory-system transactions, fiber switch).
 * These guard against performance regressions in the library itself
 * rather than reproducing a paper figure.
 *
 * `bench_micro --json <path>` switches to a machine-readable mode: it
 * runs one telemetry-instrumented pass of each kernel configuration
 * and writes a "crono.bench.v1" document (see obs/metrics.h) whose
 * rows carry wall time, edges/sec, variability and the telemetry
 * counters — the BENCH_micro.json perf trajectory across PRs.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "core/suite.h"
#include "core/workloads.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/machine.h"

namespace {

using namespace crono;

const graph::Graph&
microGraph()
{
    static const graph::Graph g =
        graph::generators::uniformRandom(4096, 32768, 32, 5);
    return g;
}

void
BM_NativeSssp(benchmark::State& state)
{
    const auto threads = static_cast<int>(state.range(0));
    rt::NativeExecutor exec(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::sssp(exec, threads, microGraph(), 0).dist.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(microGraph().numEdges()));
}
BENCHMARK(BM_NativeSssp)->Arg(1)->Arg(2)->Arg(4);

void
BM_NativeBfs(benchmark::State& state)
{
    const auto threads = static_cast<int>(state.range(0));
    rt::NativeExecutor exec(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::bfs(exec, threads, microGraph(), 0).reached);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(microGraph().numEdges()));
}
BENCHMARK(BM_NativeBfs)->Arg(1)->Arg(2)->Arg(4);

/**
 * Frontier-mode benchmarks: a 512x512 road network (262144 vertices,
 * avg degree ~2.6, huge diameter) is the regime where the flag-scan
 * structure rescans every vertex thousands of times. edges/sec for
 * every FrontierMode makes the sparse/adaptive win measurable
 * (acceptance: >= 2x over kFlagScan at 4 threads).
 */
const graph::Graph&
roadBenchGraph()
{
    static const graph::Graph g =
        graph::generators::roadNetwork(512, 512, 9);
    return g;
}

rt::FrontierMode
benchMode(benchmark::State& state)
{
    const auto mode = static_cast<rt::FrontierMode>(state.range(0));
    state.SetLabel(rt::frontierModeName(mode));
    return mode;
}

void
BM_RoadSssp(benchmark::State& state)
{
    const rt::FrontierMode mode = benchMode(state);
    const auto threads = static_cast<int>(state.range(1));
    rt::NativeExecutor exec(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::sssp(exec, threads, roadBenchGraph(), 0, nullptr, mode)
                .dist.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(roadBenchGraph().numEdges()));
}
BENCHMARK(BM_RoadSssp)
    ->ArgNames({"mode", "threads"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Unit(benchmark::kMillisecond);

void
BM_RoadBfs(benchmark::State& state)
{
    const rt::FrontierMode mode = benchMode(state);
    const auto threads = static_cast<int>(state.range(1));
    rt::NativeExecutor exec(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::bfs(exec, threads, roadBenchGraph(), 0,
                      graph::kNoVertex, nullptr, mode)
                .reached);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(roadBenchGraph().numEdges()));
}
BENCHMARK(BM_RoadBfs)
    ->ArgNames({"mode", "threads"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Unit(benchmark::kMillisecond);

/**
 * Direction-optimization benchmarks: an R-MAT social network (2^14
 * vertices, edge factor 16, low diameter, power-law degrees) is the
 * regime where a BFS puts a large fraction of the graph on the front
 * in two or three heavy middle rounds. Sweeping every FrontierMode —
 * including the direction-optimizing kAdaptive — makes the pull-side
 * win measurable (acceptance: adaptive beats the push-only modes
 * here).
 */
const graph::Graph&
socialBenchGraph()
{
    static const graph::Graph g =
        graph::generators::socialNetwork(14, 16, 11);
    return g;
}

void
BM_SocialBfs(benchmark::State& state)
{
    const rt::FrontierMode mode = benchMode(state);
    const auto threads = static_cast<int>(state.range(1));
    rt::NativeExecutor exec(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::bfs(exec, threads, socialBenchGraph(), 0,
                      graph::kNoVertex, nullptr, mode)
                .reached);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(socialBenchGraph().numEdges()));
}
BENCHMARK(BM_SocialBfs)
    ->ArgNames({"mode", "threads"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Unit(benchmark::kMillisecond);

void
BM_SocialPagerank(benchmark::State& state)
{
    const auto mode = static_cast<core::PageRankMode>(state.range(0));
    state.SetLabel(core::pageRankModeName(mode));
    const auto threads = static_cast<int>(state.range(1));
    rt::NativeExecutor exec(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::pageRank(exec, threads, socialBenchGraph(), 5, 0.15,
                           nullptr, mode)
                .rank.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 5 *
        static_cast<std::int64_t>(socialBenchGraph().numEdges()));
}
BENCHMARK(BM_SocialPagerank)
    ->ArgNames({"mode", "threads"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

void
BM_NativeTriangleCount(benchmark::State& state)
{
    rt::NativeExecutor exec(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::triangleCount(exec, 2, microGraph()).total);
    }
}
BENCHMARK(BM_NativeTriangleCount);

void
BM_NativePageRankIteration(benchmark::State& state)
{
    rt::NativeExecutor exec(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::pageRank(exec, 2, microGraph(), 1).rank.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(microGraph().numEdges()));
}
BENCHMARK(BM_NativePageRankIteration);

void
BM_SimCacheLookup(benchmark::State& state)
{
    sim::Config cfg;
    sim::Cache cache(cfg.l1d, cfg.line_bytes);
    for (sim::LineAddr line = 0; line < 512; ++line) {
        cache.insert(line, sim::LineState::shared);
    }
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(rng.nextBelow(512)));
    }
}
BENCHMARK(BM_SimCacheLookup);

void
BM_SimMeshSend(benchmark::State& state)
{
    sim::Mesh mesh(sim::Config::futuristic256());
    Rng rng(1);
    std::uint64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mesh.send(static_cast<int>(rng.nextBelow(256)),
                      static_cast<int>(rng.nextBelow(256)), 512, t));
        t += 20;
    }
}
BENCHMARK(BM_SimMeshSend);

void
BM_SimMemoryAccess(benchmark::State& state)
{
    sim::MemorySystem mem(sim::Config::futuristic256());
    Rng rng(1);
    std::vector<std::uint8_t> data(1 << 20);
    std::uint64_t t = 0;
    for (auto _ : state) {
        const auto addr = reinterpret_cast<std::uintptr_t>(
            &data[rng.nextBelow(data.size())]);
        benchmark::DoNotOptimize(
            mem.access(static_cast<int>(rng.nextBelow(256)), addr, 8,
                       rng.nextBelow(4) == 0, t));
        t += 4;
    }
}
BENCHMARK(BM_SimMemoryAccess);

void
BM_SimFiberSwitch(benchmark::State& state)
{
    sim::Fiber* handle = nullptr;
    bool stop = false;
    sim::Fiber fiber(
        [&] {
            while (!stop) {
                handle->yieldToHost();
            }
        },
        128 * 1024);
    handle = &fiber;
    for (auto _ : state) {
        fiber.resume(); // one round trip = two context switches
    }
    stop = true;
    fiber.resume();
}
BENCHMARK(BM_SimFiberSwitch);

void
BM_SimulatedBfsEndToEnd(benchmark::State& state)
{
    sim::Config cfg = sim::Config::futuristic256();
    cfg.num_cores = 16;
    sim::Machine machine(cfg);
    const graph::Graph g =
        graph::generators::uniformRandom(512, 2048, 16, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::bfs(machine, 16, g, 0).reached);
    }
}
BENCHMARK(BM_SimulatedBfsEndToEnd);

// ------------------------------------------------------- --json mode

/**
 * Smaller road instance than the wall-time benches use: the JSON
 * suite runs every configuration once per invocation, so it trades
 * statistical depth for breadth.
 */
const graph::Graph&
jsonRoadGraph()
{
    static const graph::Graph g = graph::generators::roadNetwork(256, 256, 9);
    return g;
}

obs::BenchResult
makeRow(std::string name, std::string kernel, std::string graph_name,
        const graph::Graph& g, int threads, std::string mode,
        double seconds, const rt::RunInfo& info, std::uint64_t rounds,
        const obs::Recorder& recorder)
{
    obs::BenchResult row;
    row.name = std::move(name);
    row.kernel = std::move(kernel);
    row.graph = std::move(graph_name);
    row.vertices = g.numVertices();
    row.edges = g.numEdges();
    row.threads = threads;
    row.mode = std::move(mode);
    row.time_seconds = seconds;
    row.edges_per_second =
        seconds > 0.0 ? static_cast<double>(g.numEdges()) / seconds : 0.0;
    row.variability = info.variability;
    row.rounds = rounds;
    row.counters = obs::counterTotals(recorder);
    return row;
}

/** Wall-clock one invocation of @p fn under a fresh telemetry session. */
template <class Fn>
obs::BenchResult
timedEntry(const std::string& name, const std::string& kernel,
           const std::string& graph_name, const graph::Graph& g,
           int threads, const std::string& mode, Fn&& fn)
{
    obs::TelemetrySession session;
    const auto start = std::chrono::steady_clock::now();
    const auto [info, rounds] = fn();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return makeRow(name, kernel, graph_name, g, threads, mode, seconds,
                   info, rounds, session.recorder());
}

int
runJsonSuite(const std::string& path)
{
    std::vector<obs::BenchResult> rows;
    const graph::Graph& road = jsonRoadGraph();
    const graph::Graph& rnd = microGraph();
    const std::string road_name = "road(256,256)";
    const std::string rnd_name = "uniform(4096,32768)";

    rt::NativeExecutor exec(4);
    const rt::FrontierMode modes[] = {rt::FrontierMode::kFlagScan,
                                      rt::FrontierMode::kSparse,
                                      rt::FrontierMode::kAdaptive};
    for (const rt::FrontierMode mode : modes) {
        const std::string mode_name = rt::frontierModeName(mode);
        for (const int threads : {1, 4}) {
            const std::string suffix =
                "/" + mode_name + "/t" + std::to_string(threads);
            rows.push_back(timedEntry(
                "sssp/road" + suffix, "SSSP_DIJK", road_name, road,
                threads, mode_name, [&] {
                    auto res =
                        core::sssp(exec, threads, road, 0, nullptr, mode);
                    return std::pair{res.run, res.rounds};
                }));
            rows.push_back(timedEntry(
                "bfs/road" + suffix, "BFS", road_name, road, threads,
                mode_name, [&] {
                    auto res = core::bfs(exec, threads, road, 0,
                                         graph::kNoVertex, nullptr, mode);
                    return std::pair{res.run, std::uint64_t{0}};
                }));
        }
    }
    // Direction-optimization rows: every mode on the social network
    // (the adaptive pull headline), plus scatter-vs-gather PageRank.
    const graph::Graph& social = socialBenchGraph();
    const std::string social_name = "social(2^14,ef16)";
    for (const rt::FrontierMode mode : modes) {
        const std::string mode_name = rt::frontierModeName(mode);
        rows.push_back(timedEntry(
            "bfs/social/" + mode_name + "/t4", "BFS", social_name,
            social, 4, mode_name, [&] {
                auto res = core::bfs(exec, 4, social, 0,
                                     graph::kNoVertex, nullptr, mode);
                return std::pair{res.run, std::uint64_t{0}};
            }));
    }
    for (const core::PageRankMode mode :
         {core::PageRankMode::kScatter, core::PageRankMode::kGather}) {
        const std::string mode_name = core::pageRankModeName(mode);
        rows.push_back(timedEntry(
            "pagerank/social/" + mode_name + "/t4", "PAGE_RANK",
            social_name, social, 4, mode_name, [&] {
                auto res = core::pageRank(exec, 4, social, 5, 0.15,
                                          nullptr, mode);
                return std::pair{res.run, std::uint64_t{res.iterations}};
            }));
    }

    rows.push_back(timedEntry(
        "cc/uniform/flagscan/t4", "CONN_COMP", rnd_name, rnd, 4,
        "flagscan", [&] {
            auto res = core::connectedComponents(exec, 4, rnd);
            return std::pair{res.run, res.rounds};
        }));
    rows.push_back(timedEntry(
        "pagerank/uniform/t4", "PAGE_RANK", rnd_name, rnd, 4, "", [&] {
            auto res = core::pageRank(exec, 4, rnd, 10);
            return std::pair{res.run, std::uint64_t{res.iterations}};
        }));
    rows.push_back(timedEntry(
        "trianglecount/uniform/t4", "TRI_CNT", rnd_name, rnd, 4, "",
        [&] {
            auto res = core::triangleCount(exec, 4, rnd);
            return std::pair{res.run, std::uint64_t{0}};
        }));

    if (!bench::writeBenchReport(path, rows)) {
        return 1;
    }
    for (const obs::BenchResult& row : rows) {
        std::printf("  %-28s %10.4f s  %12.0f edges/s\n",
                    row.name.c_str(), row.time_seconds,
                    row.edges_per_second);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // --json <path> (or --json=<path>) bypasses google-benchmark and
    // runs the machine-readable suite instead.
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[i + 1];
            break;
        }
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
            break;
        }
    }
    if (!json_path.empty()) {
        return runJsonSuite(json_path);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
