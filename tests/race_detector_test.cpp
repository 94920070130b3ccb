/**
 * @file
 * Whole-suite race-detector sweep: every benchmark kernel runs on a
 * simulated machine with the FastTrack/Eraser detector installed —
 * frontier-driven kernels under every FrontierMode, PageRank
 * under both phase structures — and must produce zero unsuppressed
 * races. Any entry in scripts/suppressions/detector.allow needs a
 * justification comment, so the gate is "explained or absent".
 *
 * A seeded-race fixture then proves the sweep has teeth: a racy
 * region run under a ScopedHostSpan must be flagged with the right
 * kernel name and address. Two unit cases pin the compareExchange
 * event the hook-and-compress CC kernel relies on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/race_detector.h"
#include "analysis/report.h"
#include "core/suite.h"
#include "core/workloads.h"
#include "obs/telemetry.h"
#include "sim/machine.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using analysis::RaceDetector;
using analysis::Suppressions;

/** Sweep-sized inputs: big enough for real contention patterns
 *  (work-stealing, pull rounds), small enough for shadow memory. */
core::WorkloadConfig
sweepConfig(core::GraphKind kind)
{
    core::WorkloadConfig wc;
    wc.kind = kind;
    wc.graph_vertices = 256;
    wc.edges_per_vertex = 6;
    wc.matrix_vertices = 20;
    wc.tsp_cities = 6;
    wc.mcs_pattern_vertices = 6;
    wc.mcs_target_vertices = 7;
    wc.mcs_labels = 2;
    wc.pr_iterations = 2;
    wc.comm_rounds = 3;
    return wc;
}

Suppressions
loadAllowlist()
{
    Suppressions s;
#ifdef CRONO_SUPPRESSIONS_FILE
    std::string err;
    EXPECT_TRUE(s.loadFile(CRONO_SUPPRESSIONS_FILE, &err)) << err;
#endif
    return s;
}

/** Run one benchmark in every mode combination it supports. */
void
sweepBenchmark(sim::Machine& machine, RaceDetector& det,
               const core::WorkloadSet& set,
               const core::BenchmarkInfo& info, const char* graph_tag)
{
    const bool frontier_driven =
        info.id == core::BenchmarkId::ssspDijk ||
        info.id == core::BenchmarkId::bfs ||
        info.id == core::BenchmarkId::connComp ||
        info.id == core::BenchmarkId::apsp ||
        info.id == core::BenchmarkId::betwCent;

    core::Workload w = set.forBenchmark(info.id);
    const auto runOne = [&](const std::string& mode_tag) {
        det.setRegionLabel(std::string(info.name) + "/" + graph_tag +
                           "/" + mode_tag);
        core::runBenchmark(info.id, machine, 8, w);
    };

    if (frontier_driven) {
        for (const rt::FrontierMode mode :
             {rt::FrontierMode::kFlagScan, rt::FrontierMode::kSparse,
              rt::FrontierMode::kAdaptive}) {
            w.frontier_mode = mode;
            runOne(rt::frontierModeName(mode));
        }
        if (info.id == core::BenchmarkId::ssspDijk) {
            // Delta-stepping variant: its intentionally racy probes
            // (bucket-range filter, compare-and-swap min loop) are
            // declared via readAtomic, so the sweep must stay clean.
            w.sssp_algo = core::SsspAlgo::kDeltaStep;
            runOne("delta");
            w.sssp_algo = core::SsspAlgo::kWorkList;
        }
    } else if (info.id == core::BenchmarkId::pageRank) {
        for (const core::PageRankMode mode :
             {core::PageRankMode::kScatter, core::PageRankMode::kGather}) {
            w.pr_mode = mode;
            runOne(core::pageRankModeName(mode));
        }
    } else {
        runOne("default");
    }
}

TEST(RaceDetectorSweep, AllKernelsAllModesHaveNoUnsuppressedRaces)
{
    sim::Machine machine(test::smallSimConfig());
    RaceDetector det(loadAllowlist());
    machine.setObserver(&det);

    for (const core::GraphKind kind :
         {core::GraphKind::road, core::GraphKind::social}) {
        const core::WorkloadSet set(sweepConfig(kind));
        for (const auto& info : core::allBenchmarks()) {
            sweepBenchmark(machine, det, set, info,
                           core::graphKindName(kind));
        }
    }

    EXPECT_EQ(det.unsuppressedCount(), 0u)
        << analysis::racesJson(det);
}

TEST(RaceDetectorSweep, DegreeSortedSocialHasNoUnsuppressedRaces)
{
    // Degree sorting packs the hubs into the lowest ids, which changes
    // which thread touches which (vertex, edge) pair under the static
    // divisions; one full kernel sweep on a degree-sorted social graph
    // proves the ownership discipline does not depend on id order.
    sim::Machine machine(test::smallSimConfig());
    RaceDetector det(loadAllowlist());
    machine.setObserver(&det);

    core::WorkloadConfig wc = sweepConfig(core::GraphKind::social);
    wc.reordering = graph::Reordering::kDegreeSort;
    const core::WorkloadSet set(wc);
    for (const auto& info : core::allBenchmarks()) {
        sweepBenchmark(machine, det, set, info, "social+degree");
    }

    EXPECT_EQ(det.unsuppressedCount(), 0u)
        << analysis::racesJson(det);
}

/**
 * The sweep checks the pull path of kAdaptive BFS (racy level probes
 * beside owner writes) only if its inputs take a pull round: on both
 * social inputs of the sweep the BFS must pull at least once, and
 * stay race-free. The round count comes from telemetry, so a
 * CRONO_TELEMETRY=OFF build skips the test.
 */
TEST(RaceDetectorSweepSim, AdaptiveBfsTakesPullRounds)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    GTEST_SKIP() << "pull rounds are counted by telemetry";
#else
    for (const graph::Reordering r :
         {graph::Reordering::kNone, graph::Reordering::kDegreeSort}) {
        SCOPED_TRACE(graph::reorderingName(r));
        core::WorkloadConfig wc = sweepConfig(core::GraphKind::social);
        wc.reordering = r;
        const core::WorkloadSet set(wc);
        core::Workload w = set.forBenchmark(core::BenchmarkId::bfs);
        w.frontier_mode = rt::FrontierMode::kAdaptive;

        obs::TelemetrySession session;
        sim::Machine machine(test::smallSimConfig());
        RaceDetector det(loadAllowlist());
        machine.setObserver(&det);
        core::runBenchmark(core::BenchmarkId::bfs, machine, 8, w);
        EXPECT_GT(
            session.recorder().totalCounter(obs::Counter::kPullRounds),
            0u);
        EXPECT_EQ(det.unsuppressedCount(), 0u)
            << analysis::racesJson(det);
    }
#endif
}

TEST(RaceDetectorSweep, SeededRaceFixtureIsAttributed)
{
    obs::TelemetrySession session;
    sim::Machine machine(test::smallSimConfig());
    RaceDetector det;
    machine.setObserver(&det);
    det.setRegionLabel("fixture/seeded");

    std::uint64_t shared_word = 0;
    {
        obs::ScopedHostSpan host("SEEDED_RACE_FIXTURE");
        machine.run(4, [&](sim::SimCtx& ctx) {
            // Deliberate unsynchronized read-modify-write.
            ctx.write(shared_word,
                      ctx.read(shared_word) + std::uint64_t(ctx.tid()));
        });
    }
    ASSERT_GE(det.totalRaces(), 1u);
    ASSERT_FALSE(det.races().empty());
    const analysis::RaceRecord& r = det.races().front();
    EXPECT_EQ(r.addr, reinterpret_cast<std::uintptr_t>(&shared_word));
#if !defined(CRONO_TELEMETRY_DISABLED)
    // The kernel name comes from the recorder's live host span.
    EXPECT_EQ(r.kernel, "SEEDED_RACE_FIXTURE");
#endif
    EXPECT_EQ(r.region, "fixture/seeded");
    EXPECT_TRUE(r.lockset_empty);
}

TEST(RaceDetectorCas, UnorderedCasesOnOneWordSilent)
{
    sim::Machine machine(test::smallSimConfig());
    RaceDetector det;
    machine.setObserver(&det);
    std::uint32_t word = 0;
    int wins = 0;
    machine.run(4, [&](sim::SimCtx& ctx) {
        // Every contender but one loses; each CAS is still an atomic
        // RMW, so the detector orders them against each other.
        if (ctx.compareExchange(word, 0u,
                                static_cast<std::uint32_t>(ctx.tid() + 1))) {
            ++wins;
        }
    });
    EXPECT_EQ(wins, 1);
    EXPECT_EQ(det.totalRaces(), 0u) << analysis::racesJson(det);
}

TEST(RaceDetectorCas, CasAgainstUnorderedPlainReadFlagged)
{
    sim::Machine machine(test::smallSimConfig());
    RaceDetector det;
    machine.setObserver(&det);
    std::uint32_t word = 0;
    machine.run(2, [&](sim::SimCtx& ctx) {
        if (ctx.tid() == 0) {
            // A losing CAS: it stores nothing but is still an RMW.
            (void)ctx.compareExchange(word, 5u, 6u);
        } else {
            (void)ctx.read(word); // unordered plain read: a race
        }
    });
    EXPECT_EQ(word, 0u);
    EXPECT_EQ(det.totalRaces(), 1u);
}

} // namespace
} // namespace crono
