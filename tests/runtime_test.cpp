/**
 * @file
 * Parallel-runtime tests: spinlocks, barriers, partitioners, the
 * vertex-capture and global-bound strategies, the executor, the
 * instrumentation (Variability metric, ActiveTracker), and
 * compareExchange on the native and simulated contexts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/barrier.h"
#include "runtime/executor.h"
#include "runtime/instrumentation.h"
#include "runtime/partition.h"
#include "runtime/spinlock.h"
#include "runtime/strategies.h"
#include "sim/machine.h"
#include "tests/kernel_test_util.h"

namespace crono::rt {
namespace {

TEST(Spinlock, MutualExclusionUnderContention)
{
    Spinlock lock;
    std::uint64_t counter = 0;
    std::vector<std::thread> threads;
    constexpr int kThreads = 4, kIters = 20000;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                lock.lock();
                ++counter; // non-atomic: only safe under the lock
                lock.unlock();
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Spinlock, TryLockReflectsState)
{
    Spinlock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(Barrier, SingleParticipantNeverBlocks)
{
    Barrier b(1);
    for (int i = 0; i < 100; ++i) {
        b.arriveAndWait();
    }
}

TEST(Barrier, EpisodesSeparatePhases)
{
    constexpr int kThreads = 4, kEpisodes = 50;
    Barrier barrier(kThreads);
    std::atomic<int> phase_sum{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int e = 0; e < kEpisodes; ++e) {
                phase_sum.fetch_add(1);
                barrier.arriveAndWait();
                // After the barrier every participant of episode e has
                // contributed.
                if (phase_sum.load() < (e + 1) * kThreads) {
                    failed = true;
                }
                barrier.arriveAndWait();
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(phase_sum.load(), kThreads * kEpisodes);
}

TEST(Partition, BlocksCoverRangeExactlyOnce)
{
    for (std::uint64_t total : {0ull, 1ull, 7ull, 100ull, 1024ull}) {
        for (int nthreads : {1, 3, 8, 17}) {
            std::uint64_t covered = 0;
            std::uint64_t prev_end = 0;
            for (int t = 0; t < nthreads; ++t) {
                const Range r = blockPartition(total, t, nthreads);
                EXPECT_EQ(r.begin, prev_end);
                prev_end = r.end;
                covered += r.size();
            }
            EXPECT_EQ(prev_end, total);
            EXPECT_EQ(covered, total);
        }
    }
}

TEST(Partition, BlockSizesDifferByAtMostOne)
{
    for (int t = 0; t < 7; ++t) {
        const Range r = blockPartition(23, t, 7);
        EXPECT_GE(r.size(), 3u);
        EXPECT_LE(r.size(), 4u);
    }
}

TEST(Partition, CyclicVisitsEveryIndexOnce)
{
    std::vector<int> seen(100, 0);
    for (int t = 0; t < 7; ++t) {
        cyclicPartition(100, t, 7, [&](std::uint64_t i) { ++seen[i]; });
    }
    for (int count : seen) {
        EXPECT_EQ(count, 1);
    }
}

TEST(Variability, MatchesEquationTwo)
{
    // (max - min) / max
    EXPECT_DOUBLE_EQ(variability({100, 50}), 0.5);
    EXPECT_DOUBLE_EQ(variability({10, 10, 10}), 0.0);
    EXPECT_DOUBLE_EQ(variability({0, 100}), 1.0);
    EXPECT_DOUBLE_EQ(variability({}), 0.0);
    EXPECT_DOUBLE_EQ(variability({0, 0}), 0.0);
}

TEST(ActiveTracker, CountsEventsAndSamples)
{
    ActiveTracker tracker(64, 1);
    for (int i = 0; i < 10; ++i) {
        tracker.add(1);
    }
    for (int i = 0; i < 4; ++i) {
        tracker.sub(1);
    }
    EXPECT_EQ(tracker.events(), 14u);
    const auto samples = tracker.samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(samples.back().active, 6);
}

TEST(ActiveTracker, CompactsWhenFull)
{
    ActiveTracker tracker(16, 1);
    for (int i = 0; i < 1000; ++i) {
        tracker.add(1);
    }
    EXPECT_EQ(tracker.events(), 1000u);
    EXPECT_LE(tracker.samples().size(), 16u);
    EXPECT_FALSE(tracker.samples().empty());
}

TEST(ActiveTracker, NormalizedSeriesShapes)
{
    ActiveTracker tracker(1024, 1);
    // Ramp up then down: the series should peak in the middle.
    for (int i = 0; i < 100; ++i) {
        tracker.add(1);
    }
    for (int i = 0; i < 100; ++i) {
        tracker.sub(1);
    }
    const auto series = tracker.normalizedSeries(10);
    ASSERT_EQ(series.size(), 10u);
    EXPECT_GT(series[4], series[0]);
    EXPECT_GT(series[4], series[9]);
    for (double v : series) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(Executor, RunsBodyOnEveryThread)
{
    NativeExecutor exec(8);
    std::vector<int> hits(8, 0);
    const RunInfo info = exec.parallel(8, [&](NativeCtx& ctx) {
        hits[ctx.tid()] = 1;
        EXPECT_EQ(ctx.nthreads(), 8);
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
    EXPECT_EQ(info.thread_ops.size(), 8u);
    EXPECT_GT(info.time, 0.0);
}

TEST(Executor, ReusableAcrossRegionsAndWidths)
{
    NativeExecutor exec(4);
    for (int n = 1; n <= 4; ++n) {
        std::atomic<int> count{0};
        exec.parallel(n, [&](NativeCtx&) { count.fetch_add(1); });
        EXPECT_EQ(count.load(), n);
    }
}

TEST(Executor, BarrierSynchronizesRegion)
{
    NativeExecutor exec(4);
    std::vector<std::uint64_t> data(4, 0);
    std::vector<std::uint64_t> sums(4, 0);
    exec.parallel(4, [&](NativeCtx& ctx) {
        data[ctx.tid()] = ctx.tid() + 1;
        ctx.barrier();
        std::uint64_t sum = 0;
        for (int t = 0; t < 4; ++t) {
            sum += ctx.read(data[t]);
        }
        sums[ctx.tid()] = sum;
    });
    for (std::uint64_t s : sums) {
        EXPECT_EQ(s, 10u);
    }
}

TEST(Executor, OpsCountLoadsStoresAndWork)
{
    NativeExecutor exec(2);
    const RunInfo info = exec.parallel(2, [&](NativeCtx& ctx) {
        std::uint64_t x = 0;
        ctx.write(x, std::uint64_t{1}); // 1 op
        (void)ctx.read(x);              // 1 op
        ctx.work(10);                   // 10 ops
    });
    for (std::uint64_t ops : info.thread_ops) {
        EXPECT_EQ(ops, 12u);
    }
}

TEST(NativeCtxCas, WinAndLoseReturnsAndOneOpEach)
{
    NativeExecutor exec(1);
    std::uint32_t word = 7;
    bool won = false;
    bool lost = true;
    const RunInfo info = exec.parallel(1, [&](NativeCtx& ctx) {
        won = ctx.compareExchange(word, 7u, 3u);  // stores
        lost = ctx.compareExchange(word, 7u, 1u); // word is 3 now
    });
    EXPECT_TRUE(won);
    EXPECT_FALSE(lost);
    EXPECT_EQ(word, 3u);
    EXPECT_EQ(info.thread_ops, std::vector<std::uint64_t>{2u});
}

TEST(NativeCtxCas, ExactlyOneContenderWins)
{
    NativeExecutor exec(4);
    std::uint32_t word = 0;
    std::atomic<int> wins{0};
    exec.parallel(4, [&](NativeCtx& ctx) {
        const auto mine = static_cast<std::uint32_t>(ctx.tid() + 1);
        if (ctx.compareExchange(word, 0u, mine)) {
            wins.fetch_add(1);
        }
    });
    EXPECT_EQ(wins.load(), 1);
    EXPECT_NE(word, 0u);
}

TEST(SimCtxCas, WinAndLoseReturnsModeledLikeFetchAdd)
{
    sim::Machine machine(test::smallSimConfig());
    std::uint64_t word = 7;
    bool won = false;
    bool lost = true;
    const sim::SimRunStats cas = machine.run(1, [&](sim::SimCtx& ctx) {
        won = ctx.compareExchange(word, std::uint64_t{7}, std::uint64_t{3});
        lost = ctx.compareExchange(word, std::uint64_t{7}, std::uint64_t{1});
    });
    EXPECT_TRUE(won);
    EXPECT_FALSE(lost);
    EXPECT_EQ(word, 3u);
    EXPECT_EQ(cas.thread_ops, std::vector<std::uint64_t>{2u});
    // Win or lose, a CAS costs what a fetchAdd on the same word costs.
    const sim::SimRunStats add = machine.run(1, [&](sim::SimCtx& ctx) {
        ctx.fetchAdd(word, std::uint64_t{1});
        ctx.fetchAdd(word, std::uint64_t{1});
    });
    EXPECT_EQ(cas.completion_cycles, add.completion_cycles);
    EXPECT_EQ(cas.l1d, add.l1d);
    EXPECT_EQ(cas.network, add.network);
}

TEST(Executor, VariabilityReportedForImbalancedWork)
{
    NativeExecutor exec(2);
    const RunInfo info = exec.parallel(2, [&](NativeCtx& ctx) {
        ctx.work(ctx.tid() == 0 ? 1000 : 100);
    });
    EXPECT_GT(info.variability, 0.5);
}

TEST(Strategies, CaptureNextDistributesAllItems)
{
    NativeExecutor exec(4);
    CaptureCounter counter;
    std::vector<std::atomic<int>> claimed(100);
    exec.parallel(4, [&](NativeCtx& ctx) {
        for (;;) {
            const std::uint64_t i = captureNext(ctx, counter, 100);
            if (i == kCaptureDone) {
                break;
            }
            claimed[i].fetch_add(1);
        }
    });
    for (auto& c : claimed) {
        EXPECT_EQ(c.load(), 1);
    }
}

TEST(Strategies, GlobalBoundOnlyImproves)
{
    NativeExecutor exec(4);
    GlobalBound<NativeCtx> bound;
    exec.parallel(4, [&](NativeCtx& ctx) {
        for (std::uint64_t c = 1000; c > 100; c -= 7) {
            bound.tryImprove(ctx, c + ctx.tid());
        }
        // A worse candidate never wins.
        EXPECT_FALSE(bound.tryImprove(ctx, 5000));
    });
    EXPECT_LE(bound.value, 108u);
}

} // namespace
} // namespace crono::rt
