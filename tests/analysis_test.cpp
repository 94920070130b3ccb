/**
 * @file
 * Unit tests for the dynamic race detector and its allowlist: every
 * interleaving is hand-built on a sim::Machine, so each test states
 * exactly which happens-before edges exist and asserts the detector
 * flags a seeded race — or stays silent for lock-, barrier-,
 * atomic-publish- and claim-protected patterns.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/race_detector.h"
#include "analysis/report.h"
#include "core/bfs.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "sim/machine.h"
#include "sim/sync.h"
#include "tests/kernel_test_util.h"

namespace crono {
namespace {

using analysis::AccessKind;
using analysis::RaceDetector;
using analysis::RaceRecord;
using analysis::Suppressions;

/** A machine + detector pair wired together. */
struct Rig {
    sim::Machine machine{test::smallSimConfig()};
    RaceDetector det;

    Rig() { machine.setObserver(&det); }
};

TEST(RaceDetector, SeededWriteWriteRaceFlagged)
{
    Rig rig;
    std::uint32_t x = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        ctx.write(x, static_cast<std::uint32_t>(ctx.tid()));
    });
    ASSERT_EQ(rig.det.totalRaces(), 1u);
    ASSERT_EQ(rig.det.unsuppressedCount(), 1u);
    const RaceRecord& r = rig.det.races().front();
    EXPECT_EQ(r.addr, reinterpret_cast<std::uintptr_t>(&x));
    EXPECT_EQ(r.size, sizeof(x));
    EXPECT_EQ(r.prior_kind, AccessKind::kWrite);
    EXPECT_EQ(r.current_kind, AccessKind::kWrite);
    EXPECT_NE(r.prior_tid, r.current_tid);
    EXPECT_TRUE(r.lockset_empty);
}

TEST(RaceDetector, UnorderedWriteReadPairFlagged)
{
    Rig rig;
    std::uint64_t x = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        if (ctx.tid() == 0) {
            ctx.write(x, std::uint64_t{7});
        } else {
            (void)ctx.read(x);
        }
    });
    ASSERT_EQ(rig.det.totalRaces(), 1u);
    EXPECT_EQ(rig.det.races().front().addr,
              reinterpret_cast<std::uintptr_t>(&x));
}

TEST(RaceDetector, ConcurrentReadersSilent)
{
    Rig rig;
    const std::uint64_t x = 42; // written before the region: no race
    rig.machine.run(4, [&](sim::SimCtx& ctx) {
        for (int i = 0; i < 3; ++i) {
            (void)ctx.read(x);
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u);
}

TEST(RaceDetector, LockProtectedCounterSilent)
{
    Rig rig;
    sim::SimMutex m;
    std::uint64_t counter = 0;
    rig.machine.run(4, [&](sim::SimCtx& ctx) {
        for (int i = 0; i < 4; ++i) {
            ctx.lock(m);
            ctx.write(counter, ctx.read(counter) + 1);
            ctx.unlock(m);
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u) << analysis::racesJson(rig.det);
    EXPECT_EQ(counter, 16u);
}

TEST(RaceDetector, SameDataDifferentLocksFlaggedWithLockset)
{
    Rig rig;
    sim::SimMutex locks[2];
    std::uint64_t counter = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        sim::SimMutex& m = locks[ctx.tid()]; // disjoint locks: a race
        ctx.lock(m);
        ctx.write(counter, ctx.read(counter) + 1);
        ctx.unlock(m);
    });
    ASSERT_EQ(rig.det.totalRaces(), 1u);
    // Eraser cross-check: a lock *was* held on both sides, just never
    // a common one, so the candidate set is empty too.
    EXPECT_TRUE(rig.det.races().front().lockset_empty);
}

TEST(RaceDetector, BarrierSeparatedPhasesSilent)
{
    Rig rig;
    std::uint64_t cells[4] = {0, 0, 0, 0};
    rig.machine.run(4, [&](sim::SimCtx& ctx) {
        ctx.write(cells[ctx.tid()], std::uint64_t(ctx.tid()) + 1);
        ctx.barrier();
        // After the barrier every thread may read every cell.
        std::uint64_t sum = 0;
        for (const std::uint64_t& c : cells) {
            sum += ctx.read(c);
        }
        // A second barrier before writing again: without it the write
        // would race with the other threads' reads of this cell.
        ctx.barrier();
        ctx.write(cells[ctx.tid()], sum); // owner-exclusive again
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u) << analysis::racesJson(rig.det);
}

TEST(RaceDetector, MissingBarrierFlagged)
{
    Rig rig;
    std::uint64_t cells[2] = {0, 0};
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        ctx.write(cells[ctx.tid()], std::uint64_t(ctx.tid()) + 1);
        // No barrier: reading the peer's cell races with its write.
        (void)ctx.read(cells[1 - ctx.tid()]);
    });
    EXPECT_GE(rig.det.totalRaces(), 1u);
}

TEST(RaceDetector, FetchAddAccumulatorSilent)
{
    Rig rig;
    std::uint64_t total = 0;
    rig.machine.run(4, [&](sim::SimCtx& ctx) {
        for (int i = 0; i < 4; ++i) {
            ctx.fetchAdd(total, std::uint64_t{1});
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u);
    EXPECT_EQ(total, 16u);
}

TEST(RaceDetector, PlainReadOfFetchAddWordFlagged)
{
    Rig rig;
    std::uint64_t total = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        if (ctx.tid() == 0) {
            ctx.fetchAdd(total, std::uint64_t{1});
        } else {
            (void)ctx.read(total); // unordered plain read: a race
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 1u);
}

TEST(RaceDetector, ReadAtomicProbeIsExempt)
{
    Rig rig;
    std::uint64_t flag = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        if (ctx.tid() == 0) {
            ctx.write(flag, std::uint64_t{1});
        } else {
            // The declared-racy probe: same interleaving as
            // UnorderedWriteReadPairFlagged, but through readAtomic.
            (void)ctx.readAtomic(flag);
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u);
}

TEST(RaceDetector, AtomicPublishThenAcquireSilent)
{
    Rig rig;
    std::uint64_t data = 0;
    std::uint64_t flag = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        if (ctx.tid() == 0) {
            ctx.write(data, std::uint64_t{99});
            ctx.fetchAdd(flag, std::uint64_t{1}); // release-publish
        } else {
            while (ctx.readAtomic(flag) == 0) { // acquire on observe
            }
            EXPECT_EQ(ctx.read(data), 99u);
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u) << analysis::racesJson(rig.det);
}

TEST(RaceDetector, ClaimProtectedSlotsSilent)
{
    // The suite's capture idiom: threads claim disjoint indices via
    // fetchAdd on a shared cursor, then own their slots outright.
    Rig rig;
    std::uint64_t cursor = 0;
    std::uint64_t slots[8] = {};
    rig.machine.run(4, [&](sim::SimCtx& ctx) {
        for (;;) {
            const std::uint64_t i = ctx.fetchAdd(cursor, std::uint64_t{1});
            if (i >= 8) {
                break;
            }
            ctx.write(slots[i], i + 1);
            (void)ctx.read(slots[i]);
        }
    });
    EXPECT_EQ(rig.det.totalRaces(), 0u) << analysis::racesJson(rig.det);
}

TEST(RaceDetector, OneRecordPerAddressPerRegionButFreshAcrossRegions)
{
    Rig rig;
    std::uint32_t x = 0;
    const auto racy = [&](sim::SimCtx& ctx) {
        for (int i = 0; i < 3; ++i) {
            ctx.write(x, static_cast<std::uint32_t>(i));
        }
    };
    rig.machine.run(2, racy);
    EXPECT_EQ(rig.det.totalRaces(), 1u); // deduped within the region
    rig.machine.run(2, racy);
    EXPECT_EQ(rig.det.totalRaces(), 2u); // but re-reported next region
}

TEST(RaceDetector, AttributionUsesLiveSpansAndRegionLabel)
{
    obs::TelemetrySession session;
    Rig rig;
    rig.det.setRegionLabel("unit/attribution");
    std::uint32_t x = 0;
    {
        obs::ScopedHostSpan host("SEEDED_KERNEL");
        rig.machine.run(2, [&](sim::SimCtx& ctx) {
            ctx.write(x, static_cast<std::uint32_t>(ctx.tid()));
        });
    }
    ASSERT_EQ(rig.det.races().size(), 1u);
    const RaceRecord& r = rig.det.races().front();
    EXPECT_EQ(r.region, "unit/attribution");
#if !defined(CRONO_TELEMETRY_DISABLED)
    // The kernel name comes from the recorder's live host span.
    EXPECT_EQ(r.kernel, "SEEDED_KERNEL");
#endif
}

TEST(RaceDetector, SuppressionMatchesAndCounts)
{
    Suppressions allow;
    std::string err;
    ASSERT_TRUE(allow.parse("# seeded unit-test race, validated by\n"
                            "# RaceDetector.SeededWriteWriteRaceFlagged\n"
                            "race:unit/suppressed\n",
                            &err))
        << err;
    sim::Machine machine(test::smallSimConfig());
    RaceDetector det(std::move(allow));
    det.setRegionLabel("unit/suppressed");
    machine.setObserver(&det);
    std::uint32_t x = 0;
    machine.run(2, [&](sim::SimCtx& ctx) {
        ctx.write(x, static_cast<std::uint32_t>(ctx.tid()));
    });
    EXPECT_EQ(det.totalRaces(), 1u);
    EXPECT_EQ(det.unsuppressedCount(), 0u);
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_EQ(det.races().front().suppressed_by, "unit/suppressed");
}

TEST(Suppressions, JustificationIsRequired)
{
    Suppressions s;
    std::string err;
    EXPECT_FALSE(s.parse("race:BFS\n", &err));
    EXPECT_NE(err.find("justification"), std::string::npos) << err;

    // A blank line detaches a comment from the entry below it.
    EXPECT_FALSE(s.parse("# reason\n\nrace:BFS\n", &err));

    EXPECT_TRUE(s.parse("# reason\nrace:BFS\n", &err)) << err;
    ASSERT_EQ(s.entries().size(), 1u);
    EXPECT_EQ(s.entries()[0].pattern, "BFS");
    EXPECT_EQ(s.entries()[0].justification, "reason");
}

TEST(Suppressions, RejectsUnknownDirectivesAndEmptyPatterns)
{
    Suppressions s;
    std::string err;
    EXPECT_FALSE(s.parse("# x\nmutex:BFS\n", &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_FALSE(s.parse("# x\nrace:\n", &err));
}

TEST(RacesReport, SchemaRoundTrips)
{
    Rig rig;
    rig.det.setRegionLabel("unit/report");
    std::uint32_t x = 0;
    rig.machine.run(2, [&](sim::SimCtx& ctx) {
        ctx.write(x, static_cast<std::uint32_t>(ctx.tid()));
    });
    const std::string doc = analysis::racesJson(rig.det);
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(doc, v, &err)) << err << "\n" << doc;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("schema")->str, "crono.races.v1");
    EXPECT_EQ(v.find("total_races")->asU64(), 1u);
    EXPECT_EQ(v.find("unsuppressed")->asU64(), 1u);
    const obs::json::Value* races = v.find("races");
    ASSERT_TRUE(races != nullptr && races->isArray());
    ASSERT_EQ(races->arr.size(), 1u);
    const obs::json::Value& r = races->arr[0];
    EXPECT_EQ(r.find("region")->str, "unit/report");
    EXPECT_EQ(r.find("prior")->find("kind")->str, "write");
    EXPECT_EQ(r.find("current")->find("kind")->str, "write");
}

TEST(RaceDetector, ObserverDoesNotPerturbSimStats)
{
    // The modeled statistics must be bit-identical with and without
    // an observer installed — analysis is free, measurement-wise.
    const graph::Graph g = test::makeGraph("road");
    sim::Machine plain(test::smallSimConfig());
    const auto base = core::bfs(plain, 4, g, 0);

    sim::Machine watched(test::smallSimConfig());
    RaceDetector det;
    watched.setObserver(&det);
    const auto obs_run = core::bfs(watched, 4, g, 0);

    EXPECT_EQ(base.run.time, obs_run.run.time);
    const sim::SimRunStats& a = plain.lastStats();
    const sim::SimRunStats& b = watched.lastStats();
    EXPECT_EQ(a.completion_cycles, b.completion_cycles);
    EXPECT_EQ(a.l1d.accesses, b.l1d.accesses);
    EXPECT_EQ(a.l1d.totalMisses(), b.l1d.totalMisses());
    EXPECT_EQ(a.network.flit_hops, b.network.flit_hops);
    EXPECT_EQ(a.dram.accesses, b.dram.accesses);
}

} // namespace
} // namespace crono
