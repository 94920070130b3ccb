/**
 * @file
 * Randomized MESI protocol checker: drives the memory system with
 * long random access sequences from random cores and re-validates the
 * global coherence invariants after every access:
 *
 *   - at most one core holds a line Modified or Exclusive;
 *   - an M/E copy never coexists with Shared copies elsewhere;
 *   - the directory state agrees with the aggregate of L1 states.
 *
 * Runs across several seeds, with and without ACKwise overflow
 * pressure, in classic, remote-only and adaptive coherence modes.
 * A differential case checks that MemorySystem::reset() restores the
 * freshly constructed state in each mode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/memory_system.h"

namespace crono::sim {
namespace {

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {
  protected:
    /** Check every invariant for @p line. */
    void
    checkLine(MemorySystem& mem, int cores, LineAddr line)
    {
        int modified = 0, exclusive = 0, shared = 0;
        for (int c = 0; c < cores; ++c) {
            switch (mem.l1State(c, line)) {
              case LineState::modified:
                ++modified;
                break;
              case LineState::exclusive:
                ++exclusive;
                break;
              case LineState::shared:
                ++shared;
                break;
              case LineState::invalid:
                break;
            }
        }
        ASSERT_LE(modified + exclusive, 1) << "line " << line;
        if (modified + exclusive == 1) {
            ASSERT_EQ(shared, 0) << "line " << line;
            ASSERT_EQ(mem.dirState(line), DirState::exclusive)
                << "line " << line;
        } else if (shared > 0) {
            ASSERT_EQ(mem.dirState(line), DirState::shared)
                << "line " << line;
        } else {
            ASSERT_EQ(mem.dirState(line), DirState::uncached)
                << "line " << line;
        }
    }

    void
    fuzz(Config cfg, int cores, std::size_t lines, int steps)
    {
        cfg.num_cores = cores;
        MemorySystem mem(cfg);
        Rng rng(GetParam());
        std::vector<LineAddr> sim_lines;
        for (std::size_t i = 0; i < lines; ++i) {
            sim_lines.push_back(mem.translateLine(0x1000 + i));
        }
        std::uint64_t t = 0;
        for (int step = 0; step < steps; ++step) {
            const auto idx = rng.nextBelow(lines);
            const int core = static_cast<int>(rng.nextBelow(cores));
            const bool store = rng.nextBelow(3) == 0;
            mem.access(core, (0x1000 + idx) * cfg.line_bytes, 8, store,
                       t);
            t += rng.nextBelow(50);
            checkLine(mem, cores, sim_lines[idx]);
        }
        // Final full sweep over every line.
        for (LineAddr line : sim_lines) {
            checkLine(mem, cores, line);
        }
        // Conservation: hits + misses == accesses after the storm.
        EXPECT_EQ(mem.l1dStats().hits + mem.l1dStats().totalMisses(),
                  mem.l1dStats().accesses);
    }
};

TEST_P(ProtocolFuzz, ClassicMesiFewLines)
{
    // Few lines, many cores: constant invalidation and recall churn,
    // guaranteed ACKwise overflow (9 cores > 4 pointers).
    fuzz(Config::futuristic256(), 9, 4, 4000);
}

TEST_P(ProtocolFuzz, ClassicMesiManyLines)
{
    // Enough lines to force L1 evictions into the mix.
    Config cfg = Config::futuristic256();
    cfg.l1d = CacheConfig{4 * 1024, 2, 1}; // tiny L1: heavy eviction
    fuzz(cfg, 6, 256, 4000);
}

TEST_P(ProtocolFuzz, SingleCoreDegenerate)
{
    fuzz(Config::futuristic256(), 1, 16, 1000);
}

TEST_P(ProtocolFuzz, AdaptiveLocalityMode)
{
    Config cfg = Config::futuristic256();
    cfg.locality_threshold = 2;
    fuzz(cfg, 8, 8, 3000);
}

TEST_P(ProtocolFuzz, RemoteOnlyModeNeverCaches)
{
    Config cfg = Config::futuristic256();
    cfg.l1_allocation = false;
    cfg.num_cores = 8;
    MemorySystem mem(cfg);
    Rng rng(GetParam());
    std::uint64_t t = 0;
    for (int step = 0; step < 2000; ++step) {
        const auto idx = rng.nextBelow(8);
        mem.access(static_cast<int>(rng.nextBelow(8)),
                   (0x1000 + idx) * cfg.line_bytes, 8,
                   rng.nextBelow(3) == 0, t);
        t += 20;
        ASSERT_EQ(mem.dirState(mem.translateLine(0x1000 + idx)),
                  DirState::uncached);
    }
    EXPECT_EQ(mem.l1dStats().hits, 0u);
    EXPECT_EQ(mem.directoryStats().invalidations, 0u);
}

/**
 * reset() must restore the freshly constructed state: a storm, a
 * reset, then a second storm must match a fresh memory system fed the
 * second storm alone, counter for counter and line for line.
 */
class ResetDifferential : public ::testing::TestWithParam<std::uint64_t> {
  protected:
    static constexpr std::size_t kLines = 24;
    static constexpr int kSteps = 3000;

    /**
     * Random accesses to kLines host lines from @p base, starting at
     * time 0, with instruction fetches mixed in.
     */
    static void
    storm(MemorySystem& mem, const Config& cfg, std::uintptr_t base,
          std::uint64_t seed)
    {
        Rng rng(seed);
        std::uint64_t t = 0;
        for (int step = 0; step < kSteps; ++step) {
            const auto idx = rng.nextBelow(kLines);
            const int core = static_cast<int>(rng.nextBelow(cfg.num_cores));
            mem.access(core, (base + idx) * cfg.line_bytes, 8,
                       rng.nextBelow(3) == 0, t);
            mem.instructionFetch(rng.nextBelow(4));
            t += rng.nextBelow(50);
        }
    }

    void
    check(Config cfg, int cores)
    {
        cfg.num_cores = cores;
        // The first storm's lines half overlap the second's, so a
        // translation left behind by reset() would move some of them.
        MemorySystem reused(cfg);
        storm(reused, cfg, 0x1000 + kLines / 2, GetParam() + 1);
        reused.reset();
        storm(reused, cfg, 0x1000, GetParam());

        MemorySystem fresh(cfg);
        storm(fresh, cfg, 0x1000, GetParam());

        EXPECT_EQ(reused.l1dStats(), fresh.l1dStats());
        EXPECT_EQ(reused.l2Stats(), fresh.l2Stats());
        EXPECT_EQ(reused.directoryStats(), fresh.directoryStats());
        EXPECT_EQ(reused.networkStats(), fresh.networkStats());
        EXPECT_EQ(reused.dramStats(), fresh.dramStats());
        EXPECT_EQ(reused.l1iAccesses(), fresh.l1iAccesses());
        for (std::size_t i = 0; i < kLines; ++i) {
            const LineAddr line = fresh.translateLine(0x1000 + i);
            ASSERT_EQ(reused.translateLine(0x1000 + i), line);
            EXPECT_EQ(reused.dirState(line), fresh.dirState(line))
                << "line " << line;
            for (int c = 0; c < cores; ++c) {
                EXPECT_EQ(reused.l1State(c, line), fresh.l1State(c, line))
                    << "line " << line << " core " << c;
            }
        }
    }
};

TEST_P(ResetDifferential, ClassicMesiWithAckwiseOverflow)
{
    // 9 cores on 24 lines overflow the 4 ACKwise pointers; the tiny L1
    // adds evictions.
    Config cfg = Config::futuristic256();
    cfg.l1d = CacheConfig{1024, 2, 1};
    check(cfg, 9);
}

TEST_P(ResetDifferential, RemoteOnlyMode)
{
    Config cfg = Config::futuristic256();
    cfg.l1_allocation = false;
    check(cfg, 8);
}

TEST_P(ResetDifferential, LocalityMode)
{
    Config cfg = Config::futuristic256();
    cfg.locality_threshold = 3;
    check(cfg, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResetDifferential,
                         ::testing::Values(5, 61, 233));

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(11, 23, 47, 89, 177));

} // namespace
} // namespace crono::sim
