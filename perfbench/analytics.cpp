/**
 * @file
 * kron-analytics and road-analytics: GAP-style per-kernel timing.
 *
 * Rules (GAP Benchmark Suite, PAPERS.md): sources are drawn once from
 * the seed, before any timing; only the kernel call is timed; each
 * kernel is reported on its own. One sweep is one call of each kernel
 * (adaptive BFS, auto-delta delta-stepping SSSP, adaptive CC, gather
 * PageRank) from one source. The run makes whole passes over the
 * source list until --seconds have elapsed, so every source carries
 * the same weight and the sweep count only moves in whole passes.
 *
 * Every kernel answer is checked against core::seq outside the timed
 * calls: BFS levels and SSSP distances exactly, CC as the same vertex
 * partition, PageRank within kRankTolerance.
 *
 * Only kAdaptive (and kGather) modes are called, so the kPull and
 * kSparse frontier modes stay deletable without touching this file.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/delta_stepping.h"
#include "core/pagerank.h"
#include "core/sequential.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"

namespace crono::perfbench {

namespace {

using graph::VertexId;

constexpr unsigned kPrIterations = 5;
constexpr double kPrDamping = 0.15;
/** Telemetry ring per track; sized so a traced pass drops nothing. */
constexpr std::size_t kTraceRing = std::size_t{1} << 19;

struct Spec {
    const char* family;
    graph::Reordering reordering;
    /** Generator call for one seed. */
    graph::Graph (*generate)(std::uint64_t seed, bool tiny);
    int sources;
    int setup_reps;
};

graph::Graph
kronGraph(std::uint64_t seed, bool tiny)
{
    return graph::generators::kronecker(tiny ? 10 : 17, 16, 255, seed);
}

graph::Graph
roadGraph(std::uint64_t seed, bool tiny)
{
    const VertexId side = tiny ? 32 : 512;
    return graph::generators::roadNetwork(side, side, seed);
}

/** The measured input: reordered graph, blocked layout, SSSP split. */
struct Prepared {
    explicit Prepared(graph::Graph graph) : g(std::move(graph)) {}

    graph::Graph g;
    graph::Dist delta = 0;
    core::EdgeSplit split;
    double generate_s = 0.0;
    double reorder_s = 0.0;
};

std::unique_ptr<Prepared>
prepare(const Spec& spec, std::uint64_t seed, bool tiny, int nthreads)
{
    std::optional<graph::Graph> raw;
    std::optional<graph::ReorderedGraph> rg;
    const double generate_s =
        timed([&] { raw.emplace(spec.generate(seed, tiny)); });
    const double reorder_s = timed([&] {
        rg.emplace(graph::reorderGraph(*raw, spec.reordering,
                                       /*blocked=*/true));
    });
    raw.reset();
    auto p = std::make_unique<Prepared>(std::move(rg->graph));
    p->generate_s = generate_s;
    p->reorder_s = reorder_s;
    p->delta = core::autoDelta(p->g, nthreads);
    p->split = core::splitEdgesAtDelta(p->g, p->delta);
    return p;
}

/**
 * Sources drawn once per seed, before any timing (GAP rule), from the
 * largest component, one per stratum of its vertices in id order.
 * After degree sorting (kron) ids run from hubs to the periphery and
 * after RCM (road) they sweep across the map, so the strata spread
 * the list over the graph. Per-source BFS times are bimodal on kron:
 * plain random draws move the share of slow sources, and with it the
 * per-kernel means, from seed to seed.
 */
std::vector<VertexId>
drawSources(const std::vector<VertexId>& component, int k,
            std::uint64_t seed)
{
    std::vector<std::uint32_t> size(component.size(), 0);
    for (const VertexId c : component) {
        ++size[c];
    }
    const auto largest = static_cast<VertexId>(
        std::max_element(size.begin(), size.end()) - size.begin());
    std::vector<VertexId> members;
    for (VertexId v = 0; v < component.size(); ++v) {
        if (component[v] == largest) {
            members.push_back(v);
        }
    }
    Rng rng(seed * 7919 + 17);
    std::vector<VertexId> out;
    const auto m = static_cast<std::uint64_t>(members.size());
    for (int j = 0; j < k; ++j) {
        const std::uint64_t lo = m * static_cast<std::uint64_t>(j) /
                                 static_cast<std::uint64_t>(k);
        const std::uint64_t hi = m * static_cast<std::uint64_t>(j + 1) /
                                 static_cast<std::uint64_t>(k);
        out.push_back(members[lo + rng.nextBelow(std::max<std::uint64_t>(
                                        hi - lo, 1))]);
    }
    return out;
}

/** Work-efficient sequential answers, computed outside timing. */
struct Oracle {
    std::vector<std::vector<std::uint32_t>> levels; ///< per source
    std::vector<std::vector<graph::Dist>> dist;     ///< per source
    std::vector<VertexId> component;
    std::vector<double> rank;
    std::vector<double> bfs_s, sssp_s;
    double cc_s = 0.0, pr_s = 0.0;
};

Oracle
computeOracle(const graph::Graph& g, int num_sources, std::uint64_t seed,
              std::vector<VertexId>* sources)
{
    Oracle o;
    o.cc_s = timed([&] { o.component = core::seq::componentLabels(g); });
    *sources = drawSources(o.component, num_sources, seed);
    for (const VertexId s : *sources) {
        o.bfs_s.push_back(
            timed([&] { o.levels.push_back(core::seq::bfsLevels(g, s)); }));
        o.sssp_s.push_back(
            timed([&] { o.dist.push_back(core::seq::sssp(g, s)); }));
    }
    o.pr_s = timed(
        [&] { o.rank = core::seq::pageRank(g, kPrIterations, kPrDamping); });
    return o;
}

/** Per-kernel seconds of one sweep, plus what the traced run reads. */
struct SweepTimes {
    double bfs = 0.0, sssp = 0.0, cc = 0.0, pr = 0.0;
    double total() const { return bfs + sssp + cc + pr; }
};

/** Counters and results the traced pass accumulates per kernel. */
struct KernelTrace {
    std::uint64_t bfs_expansions = 0;
    std::uint64_t sssp_relaxations = 0;
    std::uint64_t sssp_reached = 0;
    std::uint64_t sssp_steps = 0;
    std::uint64_t cc_rounds = 0;
    double variability_sum = 0.0;
    std::uint64_t calls = 0;
};

class Runner {
  public:
    Runner(const Prepared& p, int workers, rt::NativeExecutor& exec,
           const Oracle& oracle, const std::vector<VertexId>& sources,
           bool corrupt, Result* result)
        : p_(p), nt_(workers), exec_(exec), oracle_(oracle),
          sources_(sources), corrupt_(corrupt), result_(result)
    {
    }

    /** One sweep from source index @p i; checks every answer. */
    SweepTimes
    sweep(std::size_t i, KernelTrace* trace)
    {
        const VertexId src = sources_[i];
        const graph::Graph& g = p_.g;
        SweepTimes t;
        obs::CounterSnapshot before = obs::counterSnapshot();

        core::BfsResult bfs;
        t.bfs = timed([&] {
            bfs = core::bfs(exec_, nt_, g, src, graph::kNoVertex, nullptr,
                            rt::FrontierMode::kAdaptive);
        });
        if (corrupt_ && !corrupted_) {
            bfs.level[src] += 1; // self-test: must be counted as failed
            corrupted_ = true;
        }
        result_->check(sameValues(bfs.level, oracle_.levels[i]));
        obs::CounterSnapshot after = obs::counterSnapshot();
        if (trace != nullptr) {
            trace->bfs_expansions += delta(before, after,
                                           obs::Counter::kExpansions);
            trace->variability_sum += bfs.run.variability;
        }

        core::SsspResult sssp;
        before = after;
        t.sssp = timed([&] {
            sssp = core::deltaSteppingSssp(exec_, nt_, g, src, nullptr,
                                           p_.delta, &p_.split);
        });
        result_->check(sameValues(sssp.dist, oracle_.dist[i]));
        after = obs::counterSnapshot();
        if (trace != nullptr) {
            trace->sssp_relaxations +=
                delta(before, after, obs::Counter::kRelaxations);
            trace->sssp_reached += static_cast<std::uint64_t>(
                std::count_if(sssp.dist.begin(), sssp.dist.end(),
                              [](graph::Dist d) {
                                  return d != graph::kInfDist;
                              }));
            trace->sssp_steps += sssp.rounds;
            trace->variability_sum += sssp.run.variability;
        }

        core::ConnectedComponentsResult cc;
        t.cc = timed([&] {
            cc = core::connectedComponents(exec_, nt_, g, nullptr,
                                           rt::FrontierMode::kAdaptive);
        });
        result_->check(samePartition(cc.label, oracle_.component));

        core::PageRankResult pr;
        t.pr = timed([&] {
            pr = core::pageRank(exec_, nt_, g, kPrIterations, kPrDamping,
                                nullptr, core::PageRankMode::kGather);
        });
        result_->check(ranksClose(pr.rank, oracle_.rank));
        if (trace != nullptr) {
            trace->cc_rounds += cc.rounds;
            trace->variability_sum += cc.run.variability +
                                      pr.run.variability;
            trace->calls += 4;
        }
        return t;
    }

  private:
    static std::uint64_t
    delta(const obs::CounterSnapshot& a, const obs::CounterSnapshot& b,
          obs::Counter c)
    {
        const auto i = static_cast<std::size_t>(c);
        return b[i] - a[i];
    }

    const Prepared& p_;
    int nt_;
    rt::NativeExecutor& exec_;
    const Oracle& oracle_;
    const std::vector<VertexId>& sources_;
    bool corrupt_;
    bool corrupted_ = false;
    Result* result_;
};

/**
 * Worker-span and barrier-wait time on the worker tracks, and the
 * executor regions on the host track, recorded since @p since_ns.
 */
struct SpanTotals {
    double worker_ns = 0.0;
    double barrier_ns = 0.0;
    std::uint64_t regions = 0;
};

SpanTotals
spanTotals(const obs::Recorder& rec, std::uint64_t since_ns)
{
    SpanTotals s;
    rec.forEachTrack([&](obs::TrackKind kind, int tid,
                         const obs::Track& track) {
        for (const obs::SpanEvent& ev : track.spans()) {
            if (ev.begin < since_ns) {
                continue;
            }
            const double ns = static_cast<double>(ev.end - ev.begin);
            if (kind == obs::TrackKind::kWorker) {
                if (ev.cat == obs::SpanCat::kKernel) {
                    s.worker_ns += ns;
                } else if (ev.cat == obs::SpanCat::kBarrierWait) {
                    s.barrier_ns += ns;
                }
            } else if (kind == obs::TrackKind::kHost && tid == 0 &&
                       ev.cat == obs::SpanCat::kKernel &&
                       std::string_view(ev.name) == "parallel") {
                ++s.regions;
            }
        }
    });
    return s;
}

Result
runAnalytics(const Spec& spec, const Options& opt)
{
    Result r;
    const int nt = analyticsThreads();
    const int reps = opt.tiny ? 2 : spec.setup_reps;

    // Set-up, repeated; the last preparation is the measured input.
    std::vector<double> setup_s;
    std::unique_ptr<Prepared> prep;
    std::unique_ptr<rt::NativeExecutor> exec;
    for (int rep = 0; rep < reps; ++rep) {
        prep.reset();
        exec.reset();
        setup_s.push_back(timed([&] {
            prep = prepare(spec, opt.seed, opt.tiny, nt);
            exec = std::make_unique<rt::NativeExecutor>(nt);
        }));
    }
    const graph::Graph& g = prep->g;
    std::vector<VertexId> sources;
    const Oracle oracle =
        computeOracle(g, opt.tiny ? 2 : spec.sources, opt.seed, &sources);
    Runner runner(*prep, nt, *exec, oracle, sources, opt.corrupt, &r);

    r.describe("graph", spec.family);
    r.describe("vertices", g.numVertices());
    r.describe("edge_slots", static_cast<double>(g.numEdges()));
    r.describe("reordering", graph::reorderingName(spec.reordering));
    r.describe("executor_threads", nt);
    r.describe("sources", static_cast<double>(sources.size()));
    r.describe("setup_reps", reps);
    r.describe("pr_iterations", kPrIterations);
    r.describe("rank_tolerance", kRankTolerance);
    r.describe("sssp_delta", static_cast<double>(prep->delta));

    if (!opt.trace) {
        // Source kernels: per-source medians, averaged over the
        // sources. Per-source times can sit in separate modes, and a
        // median over the pooled calls would land on a mode boundary.
        std::vector<std::vector<double>> bfs(sources.size());
        std::vector<std::vector<double>> sssp(sources.size());
        std::vector<double> cc, pr, sweeps;
        // Whole passes over the source list; stop at the pass boundary
        // nearest to --seconds, after at least two passes.
        const Clock::time_point start = Clock::now();
        int passes = 0;
        do {
            ++passes;
            for (std::size_t i = 0; i < sources.size(); ++i) {
                const SweepTimes t = runner.sweep(i, nullptr);
                bfs[i].push_back(t.bfs);
                sssp[i].push_back(t.sssp);
                cc.push_back(t.cc);
                pr.push_back(t.pr);
                sweeps.push_back(t.total());
            }
        } while (passes < 2 || sweeps.size() < 11 ||
                 secondsSince(start) * (1.0 + 0.5 / passes) < opt.seconds);
        const auto meanOfMedians = [](const std::vector<std::vector<double>>& v) {
            double sum = 0.0;
            for (const std::vector<double>& per_source : v) {
                sum += median(per_source);
            }
            return sum / static_cast<double>(v.size());
        };
        double pct = 0.0;
        const double tail = tailWithTenBeyond(sweeps, &pct);
        r.add("setup_s", median(setup_s), "s");
        r.add("bfs_ms", 1e3 * meanOfMedians(bfs), "ms");
        r.add("sssp_ms", 1e3 * meanOfMedians(sssp), "ms");
        r.add("cc_ms", 1e3 * median(cc), "ms");
        r.add("pr_ms", 1e3 * median(pr), "ms");
        r.add("tail_ms", 1e3 * tail, "ms");
        double kernel_s = 0.0;
        for (const double sw : sweeps) {
            kernel_s += sw;
        }
        r.add("ops_per_s", 4.0 * static_cast<double>(sweeps.size()) / kernel_s,
              "1/s");
        r.describe("sweeps", static_cast<double>(sweeps.size()));
        r.describe("calls_per_source", static_cast<double>(bfs[0].size()));
        r.describe("tail_percentile", pct);
        return r;
    }

    // Traced run: a warm-up pass, one untraced pass, then the same
    // pass traced.
    double untraced = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        untraced = 0.0;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            untraced += runner.sweep(i, nullptr).total();
        }
    }
    obs::TelemetrySession session(kTraceRing);
    const std::uint64_t trace_begin = obs::nowNs();
    const obs::CounterSnapshot before = obs::counterSnapshot();
    KernelTrace kt;
    std::vector<double> bfs_s;
    double traced = 0.0, pr_s = 0.0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        const SweepTimes t = runner.sweep(i, &kt);
        traced += t.total();
        bfs_s.push_back(t.bfs);
        pr_s += t.pr;
    }
    const obs::CounterSnapshot after = obs::counterSnapshot();
    const auto diff = [&](obs::Counter c) {
        const auto i = static_cast<std::size_t>(c);
        return static_cast<double>(after[i] - before[i]);
    };
    const SpanTotals spans = spanTotals(session.recorder(), trace_begin);
    const double k = static_cast<double>(sources.size());
    const double slots = static_cast<double>(g.numEdges());
    const double n = static_cast<double>(g.numVertices());
    double bfs_total = 0.0;
    for (const double s : bfs_s) {
        bfs_total += s;
    }

    r.add("graph.generate_s", prep->generate_s, "s");
    r.add("graph.reorder_s", prep->reorder_s, "s");
    r.add("graph.bandwidth",
          static_cast<double>(graph::adjacencyBandwidth(g)), "count");
    r.add("graph.edge_slots", slots, "count");
    r.add("runtime.regions", static_cast<double>(spans.regions) / k,
          "count/sweep");
    r.add("runtime.rounds",
          (diff(obs::Counter::kDenseRounds) +
           diff(obs::Counter::kSparseRounds) +
           diff(obs::Counter::kPullRounds)) / k,
          "count/sweep");
    r.add("runtime.barrier_waits", diff(obs::Counter::kBarrierWaits) / k,
          "count/sweep");
    r.add("runtime.barrier_share",
          spans.worker_ns > 0.0 ? spans.barrier_ns / spans.worker_ns : 0.0,
          "ratio");
    r.add("runtime.pull_rounds", diff(obs::Counter::kPullRounds) / k,
          "count/sweep");
    r.add("runtime.mode_switches", diff(obs::Counter::kModeSwitches) / k,
          "count/sweep");
    const double attempts = diff(obs::Counter::kStealAttempts);
    r.add("runtime.steal_ratio",
          attempts > 0.0 ? diff(obs::Counter::kStealChunks) / attempts : 0.0,
          "ratio");
    r.add("core.bfs.mteps",
          bfs_total > 0.0
              ? static_cast<double>(kt.bfs_expansions) / bfs_total / 1e6
              : 0.0,
          "Mexp/s");
    r.add("core.sssp.relax_per_reached",
          kt.sssp_reached > 0 ? static_cast<double>(kt.sssp_relaxations) /
                                    static_cast<double>(kt.sssp_reached)
                              : 0.0,
          "ratio");
    r.add("core.sssp.bucket_steps", static_cast<double>(kt.sssp_steps) / k,
          "count");
    r.add("core.cc.rounds", static_cast<double>(kt.cc_rounds) / k, "count");
    const double pr_edges = k * kPrIterations * slots;
    r.add("core.pr.ns_per_edge", pr_edges > 0.0 ? 1e9 * pr_s / pr_edges : 0.0,
          "ns");
    // Computed bytes per gather iteration: each edge slot reads a
    // neighbor id (4 B) and that neighbor's share (8 B); each vertex
    // reads two offsets and its rank and writes its share and rank
    // (5 x 8 B).
    const double pr_bytes = k * kPrIterations * (12.0 * slots + 40.0 * n);
    r.add("core.pr.gbps_computed", pr_s > 0.0 ? pr_bytes / pr_s / 1e9 : 0.0,
          "GB/s");
    r.add("core.variability",
          kt.calls > 0 ? kt.variability_sum / static_cast<double>(kt.calls)
                       : 0.0,
          "ratio");
    r.add("core.bfs.seq_ms", 1e3 * median(oracle.bfs_s), "ms");
    r.add("core.sssp.seq_ms", 1e3 * median(oracle.sssp_s), "ms");
    r.add("core.cc.seq_ms", 1e3 * oracle.cc_s, "ms");
    r.add("core.pr.seq_ms", 1e3 * oracle.pr_s, "ms");
    r.add("obs.trace_overhead", untraced > 0.0 ? traced / untraced : 0.0,
          "ratio");
    r.add("obs.dropped_spans",
          static_cast<double>(session.recorder().totalDropped()), "count");
    r.describe("trace_ring_spans", static_cast<double>(kTraceRing));
    r.describe("traced_sweeps", k);
    return r;
}

} // namespace

Result
runKronAnalytics(const Options& opt)
{
    // Power law, low diameter: few heavy rounds, so direction-optimizing
    // pull, the blocked gather and memory traffic dominate.
    static const Spec spec{"kron(2^17,ef16)", graph::Reordering::kDegreeSort,
                           kronGraph, 32, 3};
    return runAnalytics(spec, opt);
}

Result
runRoadAnalytics(const Options& opt)
{
    // Long diameter: thousands of rounds, so barriers, frontier set-up
    // and mode decisions dominate; delta-stepping's home regime.
    static const Spec spec{"road(512^2)", graph::Reordering::kRcm, roadGraph,
                           16, 3};
    return runAnalytics(spec, opt);
}

} // namespace crono::perfbench
