/**
 * @file
 * sim-sweep: the paper's futuristic 256-core machine (Table II,
 * in-order cores) running five kernels with the paper's default
 * modes — flag-scan BFS, SSSP and CONN_COMP, scatter PageRank, and
 * TRI_CNT — at 64 simulated threads on a uniform sparse graph.
 * Repetitions rotate BFS and SSSP through kSimSources sources: the
 * simulated work of both moves with the source by up to a third, so
 * one source per seed would tie the seed's BFS and SSSP times to it.
 *
 * Its host time is spent in src/sim alone, on one host thread, and
 * its simulated statistics are exact counts: a change that only
 * speeds up the host must leave them bit-identical. The driver calls
 * the kernel entry points core::runBenchmark dispatches to, with the
 * same arguments, because runBenchmark returns only the RunInfo and
 * the answers are checked against core::seq.
 */

#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "core/sequential.h"
#include "core/suite.h"
#include "core/workloads.h"
#include "obs/telemetry.h"
#include "sim/config.h"
#include "sim/machine.h"

namespace crono::perfbench {

namespace {

using graph::VertexId;

constexpr int kSimThreads = 64;
constexpr int kSimSources = 4;
constexpr unsigned kPrIterations = 5;
constexpr int kSetupReps = 25;
/** Ring per track; 64 thread tracks and one per simulated core. */
constexpr std::size_t kTraceRing = std::size_t{1} << 12;

constexpr const char* kKernels[] = {"bfs", "sssp", "pr", "cc", "tricnt"};
constexpr int kNumKernels = 5;

/** The exact statistics one kernel run must repeat. */
struct SimCounts {
    std::uint64_t cycles = 0;
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t noc_flits = 0;

    bool operator==(const SimCounts&) const = default;
};

SimCounts
countsOf(const sim::SimRunStats& s)
{
    return {s.completion_cycles, s.l1d.accesses, s.l2.totalMisses(),
            s.network.flits};
}

struct Oracle {
    std::vector<std::vector<std::uint32_t>> levels; ///< per source
    std::vector<std::vector<graph::Dist>> dist;     ///< per source
    std::vector<VertexId> component;
    std::vector<double> rank;
    std::uint64_t triangles = 0;
};

/** One repetition: host seconds and exact counts per kernel. */
struct Rep {
    int source = 0; ///< index into the source list
    double host_s[kNumKernels] = {};
    SimCounts counts[kNumKernels];
};

Rep
runRep(sim::Machine& m, const graph::Graph& g,
       const std::vector<VertexId>& sources, int source, const Oracle& o,
       bool corrupt, Result* r)
{
    Rep rep;
    rep.source = source;
    const auto i = static_cast<std::size_t>(source);
    const VertexId src = sources[i];
    const auto record = [&](int k, double s) {
        rep.host_s[k] = s;
        rep.counts[k] = countsOf(m.lastStats());
    };
    core::BfsResult bfs;
    record(0, timed([&] { bfs = core::bfs(m, kSimThreads, g, src); }));
    if (corrupt) {
        bfs.level[src] += 1; // self-test: must be counted as failed
    }
    r->check(sameValues(bfs.level, o.levels[i]));

    core::SsspResult sssp;
    record(1, timed([&] { sssp = core::sssp(m, kSimThreads, g, src); }));
    r->check(sameValues(sssp.dist, o.dist[i]));

    core::PageRankResult pr;
    record(2, timed([&] {
               pr = core::pageRank(m, kSimThreads, g, kPrIterations, 0.15);
           }));
    r->check(ranksClose(pr.rank, o.rank));

    core::ConnectedComponentsResult cc;
    record(3, timed([&] { cc = core::connectedComponents(m, kSimThreads, g); }));
    r->check(samePartition(cc.label, o.component));

    core::TriangleCountResult tc;
    record(4, timed([&] { tc = core::triangleCount(m, kSimThreads, g); }));
    r->check(tc.total == o.triangles);
    return rep;
}

double
repSeconds(const Rep& rep)
{
    double s = 0.0;
    for (const double t : rep.host_s) {
        s += t;
    }
    return s;
}

std::uint64_t
repAccesses(const Rep& rep)
{
    std::uint64_t a = 0;
    for (const SimCounts& c : rep.counts) {
        a += c.l1d_accesses;
    }
    return a;
}

} // namespace

Result
runSimSweep(const Options& opt)
{
    Result r;
    const VertexId n = opt.tiny ? 256 : 1024;

    // Set-up: input generation and Machine construction, repeated.
    std::vector<double> setup_s;
    std::optional<graph::Graph> g;
    std::unique_ptr<sim::Machine> machine;
    double generate_s = 0.0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        g.reset();
        machine.reset();
        setup_s.push_back(timed([&] {
            generate_s = timed([&] {
                g.emplace(core::makeGraph(core::GraphKind::sparse, n, 8,
                                          opt.seed));
            });
            machine = std::make_unique<sim::Machine>(
                sim::Config::futuristic256(sim::CoreType::inOrder));
        }));
    }
    // Sources spread over the id range; ids of a uniform graph carry
    // no structure, so the seed alone picks them.
    std::vector<VertexId> sources;
    for (int j = 0; j < kSimSources; ++j) {
        sources.push_back(static_cast<VertexId>(
            (opt.seed + static_cast<std::uint64_t>(j) * n / kSimSources) % n));
    }

    Oracle o;
    for (const VertexId src : sources) {
        o.levels.push_back(core::seq::bfsLevels(*g, src));
        o.dist.push_back(core::seq::sssp(*g, src));
    }
    o.component = core::seq::componentLabels(*g);
    o.rank = core::seq::pageRank(*g, kPrIterations, 0.15);
    o.triangles = core::seq::triangleCountFast(*g);

    r.describe("graph", "uniform sparse, edge factor 8");
    r.describe("vertices", n);
    r.describe("edge_slots", static_cast<double>(g->numEdges()));
    r.describe("machine", "futuristic256 in-order");
    r.describe("sim_threads", kSimThreads);
    r.describe("host_threads", 1);
    r.describe("sources", kSimSources);
    r.describe("setup_reps", kSetupReps);

    // The first repetition from each source fixes the exact counts
    // every later one from that source must repeat; a mismatch counts
    // as a failed operation.
    std::vector<Rep> reps;
    std::vector<std::size_t> first_rep(kSimSources, ~std::size_t{0});
    const auto runChecked = [&](int source, bool corrupt) {
        std::size_t& first = first_rep[static_cast<std::size_t>(source)];
        if (first == ~std::size_t{0}) {
            first = reps.size();
        }
        reps.push_back(
            runRep(*machine, *g, sources, source, o, corrupt, &r));
        for (int k = 0; k < kNumKernels; ++k) {
            r.check(reps.back().counts[k] == reps[first].counts[k]);
        }
    };

    if (!opt.trace) {
        // Whole passes over the sources, at least two, so every source
        // has the same weight and repeats its counts.
        const Clock::time_point start = Clock::now();
        do {
            runChecked(static_cast<int>(reps.size() % kSimSources),
                       opt.corrupt && reps.empty());
        } while (secondsSince(start) < opt.seconds ||
                 reps.size() < 2 * kSimSources ||
                 reps.size() % kSimSources != 0);
        // Per-kernel host time of one simulated call: median over reps;
        // for BFS and SSSP, per-source medians averaged over the sources.
        // The tail is over single simulated kernel calls, the unit a
        // simulator user waits for.
        std::vector<double> rates, calls;
        std::vector<std::vector<double>> per_kernel(kNumKernels);
        std::vector<std::vector<std::vector<double>>> per_source(
            kNumKernels, std::vector<std::vector<double>>(kSimSources));
        for (const Rep& rep : reps) {
            rates.push_back(static_cast<double>(repAccesses(rep)) /
                            repSeconds(rep));
            for (int k = 0; k < kNumKernels; ++k) {
                const auto ki = static_cast<std::size_t>(k);
                per_kernel[ki].push_back(rep.host_s[k]);
                per_source[ki][static_cast<std::size_t>(rep.source)]
                    .push_back(rep.host_s[k]);
                calls.push_back(rep.host_s[k]);
            }
        }
        const auto kernelMs = [&](int k) {
            return 1e3 * median(per_kernel[static_cast<std::size_t>(k)]);
        };
        const auto sourceKernelMs = [&](int k) {
            double sum = 0.0;
            for (const std::vector<double>& v :
                 per_source[static_cast<std::size_t>(k)]) {
                sum += median(v);
            }
            return 1e3 * sum / kSimSources;
        };
        double pct = 0.0;
        const double tail = tailWithTenBeyond(calls, &pct);
        r.add("setup_s", median(setup_s), "s");
        r.add("bfs_ms", sourceKernelMs(0), "ms");
        r.add("sssp_ms", sourceKernelMs(1), "ms");
        r.add("pr_ms", kernelMs(2), "ms");
        r.add("cc_ms", kernelMs(3), "ms");
        r.add("tail_ms", 1e3 * tail, "ms");
        r.add("ops_per_s", median(rates), "1/s");
        r.describe("tail_percentile", pct);
        r.describe("tail_samples", static_cast<double>(calls.size()));
        r.describe("repetitions", static_cast<double>(reps.size()));
        r.describe("calls_per_source",
                   static_cast<double>(reps.size()) / kSimSources);
        return r;
    }

    // A warm-up repetition, one untraced, then one traced, all from
    // the first source.
    runChecked(0, opt.corrupt);
    runChecked(0, false);
    const double untraced = repSeconds(reps.back());
    obs::TelemetrySession session(kTraceRing);
    runChecked(0, false);
    const Rep& traced = reps.back();
    SimCounts total;
    for (const SimCounts& c : traced.counts) {
        total.cycles += c.cycles;
        total.l1d_accesses += c.l1d_accesses;
        total.l2_misses += c.l2_misses;
        total.noc_flits += c.noc_flits;
    }
    r.add("graph.generate_s", generate_s, "s");
    r.add("graph.edge_slots", static_cast<double>(g->numEdges()), "count");
    r.add("sim.cycles", static_cast<double>(total.cycles), "cycles");
    r.add("sim.l1d_accesses", static_cast<double>(total.l1d_accesses),
          "count");
    r.add("sim.l2_misses", static_cast<double>(total.l2_misses), "count");
    r.add("sim.noc_flits", static_cast<double>(total.noc_flits), "count");
    const Rep& plain = reps[reps.size() - 2];
    r.add("sim.host_ns_per_access",
          1e9 * untraced / static_cast<double>(repAccesses(plain)), "ns");
    for (int k = 0; k < kNumKernels; ++k) {
        r.add(std::string("sim.") + kKernels[k] + ".host_s", plain.host_s[k],
              "s");
    }
    r.add("obs.trace_overhead", repSeconds(traced) / untraced, "ratio");
    r.add("obs.dropped_spans",
          static_cast<double>(session.recorder().totalDropped()), "count");
    r.describe("trace_ring_spans", static_cast<double>(kTraceRing));
    return r;
}

} // namespace crono::perfbench
