/**
 * @file
 * Tests for the hardware-counter profiling layer: LogHistogram bucket
 * math and edge cases, the ThreadCounters degradation chain (with the
 * CRONO_PROFILE=off forced-fallback path that counter-less CI
 * containers rely on), span-attributed aggregation through
 * ProfileSession, and the imbalance distillation.
 *
 * Everything here must pass on any tier — the assertions about
 * counter *values* only use counters the fallback tier also fills.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/suite.h"
#include "graph/generators.h"
#include "obs/histogram.h"
#include "obs/perf/counters.h"
#include "obs/perf/sampler.h"
#include "obs/profile_report.h"
#include "obs/telemetry.h"
#include "runtime/executor.h"

namespace crono {
namespace {

namespace perf = obs::perf;

// ------------------------------------------------------- histogram

TEST(LogHistogram, EmptyReportsZeros)
{
    obs::LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(LogHistogram, SingleSampleIsExactAtEveryQuantile)
{
    obs::LogHistogram h;
    h.add(123456789);
    EXPECT_EQ(h.count(), 1u);
    // The clamp to [min, max] makes one sample exact even though its
    // covering bucket is ~6% wide.
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(h.quantile(q), 123456789.0) << q;
    }
    EXPECT_DOUBLE_EQ(h.mean(), 123456789.0);
}

TEST(LogHistogram, SmallValuesLandInExactUnitBuckets)
{
    obs::LogHistogram h(4);
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(h.indexFor(v), v);
        EXPECT_EQ(h.bucketLo(v), v);
        EXPECT_EQ(h.bucketHi(v), v + 1);
    }
}

TEST(LogHistogram, BucketBoundsCoverTheirValues)
{
    obs::LogHistogram h(4);
    for (const std::uint64_t v :
         {std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{1000},
          std::uint64_t{1} << 32, (std::uint64_t{1} << 40) + 12345,
          std::numeric_limits<std::uint64_t>::max()}) {
        const std::size_t i = h.indexFor(v);
        EXPECT_LE(h.bucketLo(i), v) << v;
        EXPECT_GT(h.bucketHi(i), v - 1) << v; // hi is exclusive
    }
}

TEST(LogHistogram, OverflowBucketHandlesUint64Max)
{
    obs::LogHistogram h;
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    h.add(top);
    h.add(top - 1);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), top);
    // The final bucket's exclusive bound saturates instead of
    // wrapping, and the quantile clamp keeps the answer in range.
    EXPECT_LE(h.quantile(1.0), static_cast<double>(top));
    EXPECT_GE(h.quantile(0.0), static_cast<double>(top - 1));
}

TEST(LogHistogram, QuantilesAreOrderedAndWithinRelativeError)
{
    obs::LogHistogram h(4);
    std::vector<double> raw;
    std::uint64_t v = 100;
    for (int i = 0; i < 1000; ++i) {
        v = v * 1103515245 + 12345; // LCG, full-range spread
        const std::uint64_t sample = (v >> 16) % 1000000 + 1;
        h.add(sample);
        raw.push_back(static_cast<double>(sample));
    }
    double prev = 0.0;
    for (const double q : {0.10, 0.50, 0.90, 0.99}) {
        const double approx = h.quantile(q);
        const double exact = obs::exactQuantile(raw, q);
        EXPECT_GE(approx, prev);
        // Half-bucket midpoint error: 2^-sub_bits on either side.
        EXPECT_NEAR(approx, exact, exact * 0.08 + 1.0) << q;
        prev = approx;
    }
}

TEST(LogHistogram, MergeMatchesSequentialFill)
{
    obs::LogHistogram a(4), b(4), all(4);
    for (std::uint64_t v = 1; v < 500; ++v) {
        ((v % 2 == 0) ? a : b).add(v * 37);
        all.add(v * 37);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
}

TEST(LogHistogram, MergeIntoEmptyAdoptsBounds)
{
    obs::LogHistogram a(4), b(4);
    b.add(7);
    b.add(9000);
    a.merge(b);
    EXPECT_EQ(a.min(), 7u);
    EXPECT_EQ(a.max(), 9000u);
    a.merge(obs::LogHistogram(4)); // merging an empty one is a no-op
    EXPECT_EQ(a.count(), 2u);
}

TEST(ExactQuantile, InterpolatesOrderStatistics)
{
    EXPECT_DOUBLE_EQ(obs::exactQuantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(obs::exactQuantile({3.0}, 0.99), 3.0);
    EXPECT_DOUBLE_EQ(obs::exactQuantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(obs::exactQuantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::exactQuantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
}

// ------------------------------------------------- counter chain

TEST(ThreadCounters, ProbesSomeTier)
{
    perf::ThreadCounters tc;
    // Whatever this host allows, the chain must land somewhere and
    // sampling must never fail.
    EXPECT_NE(tc.source(), perf::CounterSource::kNone);
    const perf::Sample a = tc.sample();
    // Burn a little CPU so time-based counters advance.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 2000000; ++i) {
        sink = sink + static_cast<std::uint64_t>(i) * 7;
    }
    const perf::Sample b = tc.sample();
    const perf::CounterDelta d = perf::sampleDelta(a, b, tc.source());
    EXPECT_TRUE(d.any()) << "no counter advanced across busy work";
}

TEST(ThreadCounters, EnvOffForcesFallback)
{
    ASSERT_EQ(setenv("CRONO_PROFILE", "off", 1), 0);
    {
        perf::ThreadCounters tc;
        EXPECT_EQ(tc.source(), perf::CounterSource::kFallback);
        const perf::Sample a = tc.sample();
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 2000000; ++i) {
            sink = sink + static_cast<std::uint64_t>(i);
        }
        const perf::Sample b = tc.sample();
        const perf::CounterDelta d =
            perf::sampleDelta(a, b, tc.source());
        // Fallback always has the steady clock.
        EXPECT_GT(d.get(perf::HwCounter::kWallNs), 0u);
    }
    ASSERT_EQ(unsetenv("CRONO_PROFILE"), 0);
}

TEST(CounterDelta, DerivedRatesComeFromHardwareCounters)
{
    perf::CounterDelta d;
    EXPECT_DOUBLE_EQ(d.ipc(), 0.0); // no inputs -> no rate
    d.v[static_cast<std::size_t>(perf::HwCounter::kCycles)] = 1000;
    d.v[static_cast<std::size_t>(perf::HwCounter::kInstructions)] = 2500;
    d.v[static_cast<std::size_t>(perf::HwCounter::kLlcRefs)] = 200;
    d.v[static_cast<std::size_t>(perf::HwCounter::kLlcMisses)] = 50;
    EXPECT_DOUBLE_EQ(d.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(d.llcMissRate(), 0.25);
}

// ------------------------------------------- span attribution

TEST(ProfileSession, AttributesHostSpans)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    GTEST_SKIP() << "telemetry compiled out (CRONO_TELEMETRY=OFF)";
#endif
    obs::TelemetrySession telemetry;
    perf::ProfileSession profile;
    for (int i = 0; i < 3; ++i) {
        obs::ScopedHostSpan span("test_region");
        volatile std::uint64_t sink = 0;
        for (int j = 0; j < 100000; ++j) {
            sink = sink + static_cast<std::uint64_t>(j);
        }
    }
    const std::vector<obs::SpanProfile> spans =
        obs::collectSpanProfiles(profile.sessionCollector());
    const obs::SpanProfile* region = nullptr;
    for (const obs::SpanProfile& sp : spans) {
        if (sp.name == "test_region") {
            region = &sp;
        }
    }
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->count, 3u);
    EXPECT_EQ(region->duration_ns.count(), 3u);
    EXPECT_GT(region->duration_ns.max(), 0u);
    EXPECT_TRUE(region->total.any());
}

TEST(ProfileSession, InactiveSessionRecordsNothing)
{
    obs::TelemetrySession telemetry;
    {
        obs::ScopedHostSpan span("before_session");
    }
    perf::ProfileSession profile;
    const std::vector<obs::SpanProfile> spans =
        obs::collectSpanProfiles(profile.sessionCollector());
    EXPECT_TRUE(spans.empty());
}

TEST(ProfileSession, KernelRunAttributesWorkerAndKernelSpans)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    GTEST_SKIP() << "telemetry compiled out (CRONO_TELEMETRY=OFF)";
#endif
    const graph::Graph g = graph::generators::socialNetwork(7, 6, 3);
    obs::TelemetrySession telemetry;
    perf::ProfileSession profile;
    {
        rt::NativeExecutor exec(2);
        core::bfs(exec, 2, g, 0, graph::kNoVertex, nullptr,
                  rt::FrontierMode::kAdaptive);
    }
    bool kernel = false, worker = false;
    for (const obs::SpanProfile& sp :
         obs::collectSpanProfiles(profile.sessionCollector())) {
        if (sp.name == "BFS") {
            kernel = true;
            EXPECT_TRUE(sp.total.any()) << "kernel span has no delta";
        }
        if (sp.name == "worker") {
            worker = true;
        }
    }
    EXPECT_TRUE(kernel);
    EXPECT_TRUE(worker);
}

TEST(ProfileSession, SessionsDoNotLeakAcrossInstalls)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    GTEST_SKIP() << "telemetry compiled out (CRONO_TELEMETRY=OFF)";
#endif
    obs::TelemetrySession telemetry;
    {
        perf::ProfileSession first;
        obs::ScopedHostSpan span("first_only");
    }
    perf::ProfileSession second;
    {
        obs::ScopedHostSpan span("second_only");
    }
    const std::vector<obs::SpanProfile> spans =
        obs::collectSpanProfiles(second.sessionCollector());
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.front().name, "second_only");
}

// ------------------------------------------------- imbalance

TEST(Imbalance, FractionsAreSaneForRealRun)
{
#if defined(CRONO_TELEMETRY_DISABLED)
    GTEST_SKIP() << "telemetry compiled out (CRONO_TELEMETRY=OFF)";
#endif
    const graph::Graph g = graph::generators::socialNetwork(8, 8, 5);
    obs::TelemetrySession telemetry;
    {
        rt::NativeExecutor exec(2);
        core::pageRank(exec, 2, g, 3, 0.15, nullptr,
                       core::PageRankMode::kScatter);
    }
    const obs::ImbalanceSummary s =
        obs::imbalanceFromRecorder(telemetry.recorder());
    ASSERT_FALSE(s.threads.empty());
    for (const obs::ThreadImbalance& t : s.threads) {
        EXPECT_GT(t.wall_ns, 0.0);
        EXPECT_GE(t.busy_frac, 0.0);
        EXPECT_LE(t.busy_frac, 1.0);
        EXPECT_GE(t.barrier_frac, 0.0);
        EXPECT_LE(t.barrier_frac, 1.0);
        EXPECT_GE(t.steal_frac, 0.0);
        EXPECT_LE(t.steal_frac, 1.0);
        EXPECT_NEAR(t.busy_frac + t.barrier_frac + t.steal_frac, 1.0,
                    1e-9);
    }
    EXPECT_GE(s.busy_cv, 0.0);
}

TEST(Imbalance, EmptyRecorderYieldsNoThreads)
{
    obs::Recorder recorder(16);
    const obs::ImbalanceSummary s = obs::imbalanceFromRecorder(recorder);
    EXPECT_TRUE(s.threads.empty());
    EXPECT_DOUBLE_EQ(s.busy_cv, 0.0);
}

} // namespace
} // namespace crono
