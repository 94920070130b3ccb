/**
 * @file
 * Coherence-protocol tests driven directly against MemorySystem:
 * MESI state transitions, miss classification (cold / capacity /
 * sharing), invalidation and write-back accounting, ACKwise broadcast
 * on overflow, inclusive-L2 back-invalidation, line serialization, and
 * address translation.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sim/memory_system.h"

namespace crono::sim {
namespace {

class MemorySystemTest : public ::testing::Test {
  protected:
    MemorySystemTest() : cfg_(Config::futuristic256()), mem_(cfg_) {}

    /** Distinct, line-aligned fake host addresses. */
    std::uintptr_t
    lineAddr(std::uint64_t index)
    {
        return (index + 1000) * cfg_.line_bytes;
    }

    LineAddr
    simLine(std::uint64_t index)
    {
        return mem_.translateLine(lineAddr(index) / cfg_.line_bytes);
    }

    AccessLatency
    read(int core, std::uint64_t index)
    {
        return mem_.access(core, lineAddr(index), 8, false, time_);
    }

    AccessLatency
    write(int core, std::uint64_t index)
    {
        return mem_.access(core, lineAddr(index), 8, true, time_);
    }

    Config cfg_;
    MemorySystem mem_;
    std::uint64_t time_ = 0;
};

TEST_F(MemorySystemTest, FirstReadGrantsExclusive)
{
    read(3, 0);
    EXPECT_EQ(mem_.l1State(3, simLine(0)), LineState::exclusive);
    EXPECT_EQ(mem_.dirState(simLine(0)), DirState::exclusive);
    EXPECT_EQ(mem_.l1dStats().misses[0], 1u); // cold
    EXPECT_EQ(mem_.dramStats().accesses, 1u);
}

TEST_F(MemorySystemTest, FirstWriteGrantsModified)
{
    write(3, 0);
    EXPECT_EQ(mem_.l1State(3, simLine(0)), LineState::modified);
    EXPECT_EQ(mem_.dirState(simLine(0)), DirState::exclusive);
}

TEST_F(MemorySystemTest, SecondReaderDowngradesToShared)
{
    read(1, 0);
    read(2, 0);
    EXPECT_EQ(mem_.l1State(1, simLine(0)), LineState::shared);
    EXPECT_EQ(mem_.l1State(2, simLine(0)), LineState::shared);
    EXPECT_EQ(mem_.dirState(simLine(0)), DirState::shared);
}

TEST_F(MemorySystemTest, HitsDoNotTouchDirectory)
{
    read(1, 0);
    const auto lookups = mem_.directoryStats().lookups;
    const AccessLatency lat = read(1, 0); // L1 hit
    EXPECT_EQ(lat.total(), 0u);
    EXPECT_EQ(mem_.directoryStats().lookups, lookups);
    EXPECT_EQ(mem_.l1dStats().hits, 1u);
}

TEST_F(MemorySystemTest, WriteInvalidatesReadersAsSharingMisses)
{
    read(1, 0);
    read(2, 0);
    write(3, 0); // invalidates cores 1 and 2
    EXPECT_EQ(mem_.l1State(1, simLine(0)), LineState::invalid);
    EXPECT_EQ(mem_.l1State(2, simLine(0)), LineState::invalid);
    EXPECT_EQ(mem_.l1State(3, simLine(0)), LineState::modified);
    EXPECT_GE(mem_.directoryStats().invalidations, 2u);

    // The displaced reader's next access classifies as a sharing miss.
    read(1, 0);
    EXPECT_EQ(mem_.l1dStats().misses[static_cast<int>(MissClass::sharing)],
              1u);
}

TEST_F(MemorySystemTest, WriteAfterWriteRecallsOwner)
{
    write(1, 0);
    const AccessLatency lat = write(2, 0);
    EXPECT_GT(lat.sharers, 0u); // owner recall round trip
    EXPECT_EQ(mem_.l1State(1, simLine(0)), LineState::invalid);
    EXPECT_EQ(mem_.l1State(2, simLine(0)), LineState::modified);
    EXPECT_GE(mem_.directoryStats().write_backs, 1u);
}

TEST_F(MemorySystemTest, ReadAfterWriteDowngradesOwner)
{
    write(1, 0);
    read(2, 0);
    EXPECT_EQ(mem_.l1State(1, simLine(0)), LineState::shared);
    EXPECT_EQ(mem_.l1State(2, simLine(0)), LineState::shared);
    EXPECT_EQ(mem_.dirState(simLine(0)), DirState::shared);
}

TEST_F(MemorySystemTest, SilentEToMUpgrade)
{
    read(1, 0); // E
    const auto invalidations = mem_.directoryStats().invalidations;
    const AccessLatency lat = write(1, 0); // silent E -> M
    EXPECT_EQ(lat.total(), 0u);
    EXPECT_EQ(mem_.l1State(1, simLine(0)), LineState::modified);
    EXPECT_EQ(mem_.directoryStats().invalidations, invalidations);
}

TEST_F(MemorySystemTest, SharedUpgradeInvalidatesPeersButCountsAsHit)
{
    read(1, 0);
    read(2, 0);
    const auto hits = mem_.l1dStats().hits;
    const AccessLatency lat = write(1, 0); // S -> M upgrade
    EXPECT_GT(lat.sharers, 0u);
    EXPECT_EQ(mem_.l1dStats().hits, hits + 1); // upgrade counted a hit
    EXPECT_EQ(mem_.l1State(1, simLine(0)), LineState::modified);
    EXPECT_EQ(mem_.l1State(2, simLine(0)), LineState::invalid);
}

TEST_F(MemorySystemTest, AckwiseOverflowBroadcasts)
{
    // 5 readers overflow the 4 precise pointers; the next write must
    // broadcast.
    for (int core = 1; core <= 5; ++core) {
        read(core, 0);
    }
    write(6, 0);
    EXPECT_EQ(mem_.directoryStats().broadcasts, 1u);
    for (int core = 1; core <= 5; ++core) {
        EXPECT_EQ(mem_.l1State(core, simLine(0)), LineState::invalid);
    }
}

TEST_F(MemorySystemTest, CapacityMissAfterEviction)
{
    // L1: 128 sets x 4 ways. Lines spaced numSets apart collide in
    // one set; the translation layer is first-touch sequential, so
    // touching 5 such host lines in order maps them to 5 consecutive
    // sim lines -- not the same set. Instead, force eviction by
    // touching more lines than the whole L1 holds.
    const std::uint32_t l1_lines =
        cfg_.l1d.size_bytes / cfg_.line_bytes; // 512
    for (std::uint64_t i = 0; i <= l1_lines; ++i) {
        read(0, i);
    }
    // Line 0 was evicted (LRU) by the (l1_lines+1)-th distinct line.
    read(0, 0);
    EXPECT_EQ(
        mem_.l1dStats().misses[static_cast<int>(MissClass::capacity)], 1u);
}

TEST_F(MemorySystemTest, L2HitAfterL1Eviction)
{
    const std::uint32_t l1_lines =
        cfg_.l1d.size_bytes / cfg_.line_bytes;
    for (std::uint64_t i = 0; i <= l1_lines; ++i) {
        read(0, i);
    }
    const auto dram = mem_.dramStats().accesses;
    read(0, 0); // L1 capacity miss, but the L2 slice still holds it
    EXPECT_EQ(mem_.dramStats().accesses, dram);
}

/**
 * Fixture for inclusive-L2 back-invalidation: every line is translated
 * up front, so line index i is sim line i + 1 and lines a fixed stride
 * apart share both a home slice and an L2 set.
 */
class L2BackInvalidationTest : public MemorySystemTest {
  protected:
    L2BackInvalidationTest()
        : stride_(std::lcm<std::uint64_t>(
              cfg_.num_cores, cfg_.l2.numSets(cfg_.line_bytes)))
    {
        for (std::uint64_t i = 0; i <= kVictim + ways() * stride_; ++i) {
            simLine(i);
        }
    }

    std::uint64_t ways() const { return cfg_.l2.associativity; }

    /**
     * @p sharers read the victim line, then core 0 reads one line per
     * way of its L2 set; the victim, least recently used, is evicted.
     * Each former sharer must lose its copy and re-miss as capacity.
     */
    void
    checkBackInvalidation(const std::vector<int>& sharers, bool overflowed)
    {
        for (int core : sharers) {
            read(core, kVictim);
        }
        ASSERT_EQ(mem_.dirState(simLine(kVictim)), DirState::shared);
        const DirectoryStats before = mem_.directoryStats();
        for (std::uint64_t w = 1; w <= ways(); ++w) {
            read(0, kVictim + w * stride_);
        }
        EXPECT_EQ(mem_.dirState(simLine(kVictim)), DirState::uncached);
        EXPECT_EQ(mem_.directoryStats().invalidations,
                  before.invalidations + sharers.size());
        EXPECT_EQ(mem_.directoryStats().broadcasts,
                  before.broadcasts + (overflowed ? 1 : 0));
        const auto capacity = static_cast<int>(MissClass::capacity);
        for (int core : sharers) {
            EXPECT_EQ(mem_.l1State(core, simLine(kVictim)),
                      LineState::invalid)
                << "core " << core;
            const std::uint64_t misses = mem_.l1dStats().misses[capacity];
            read(core, kVictim);
            EXPECT_EQ(mem_.l1dStats().misses[capacity], misses + 1)
                << "core " << core;
        }
    }

    static constexpr std::uint64_t kVictim = 3;
    const std::uint64_t stride_;
};

TEST_F(L2BackInvalidationTest, PreciseSharersLoseTheirCopies)
{
    checkBackInvalidation({4, 9, 200}, /*overflowed=*/false);
}

TEST_F(L2BackInvalidationTest, OverflowedSharersLoseTheirCopies)
{
    // Six readers overflow the four ACKwise pointers.
    checkBackInvalidation({1, 2, 5, 7, 100, 255}, /*overflowed=*/true);
}

TEST_F(MemorySystemTest, LineSerializationChargesWaiting)
{
    // Two accesses to the same line at the same timestamp: the second
    // transaction queues behind the first at the home slice.
    const AccessLatency first =
        mem_.access(1, lineAddr(0), 8, false, 5000);
    const AccessLatency second =
        mem_.access(2, lineAddr(0), 8, false, 5000);
    EXPECT_EQ(first.waiting, 0u);
    EXPECT_GT(second.waiting, 0u);
}

TEST_F(MemorySystemTest, AccessSpanningTwoLines)
{
    // An 8-byte access at 4 bytes before a line boundary touches two
    // lines and performs two transactions.
    const std::uintptr_t addr = lineAddr(10) + cfg_.line_bytes - 4;
    mem_.access(0, addr, 8, false, 0);
    EXPECT_EQ(mem_.l1dStats().accesses, 2u);
}

TEST_F(MemorySystemTest, TranslationIsFirstTouchSequential)
{
    const LineAddr a = mem_.translateLine(0xdeadbeef);
    const LineAddr b = mem_.translateLine(0xcafebabe);
    const LineAddr a2 = mem_.translateLine(0xdeadbeef);
    EXPECT_EQ(a, a2);
    EXPECT_EQ(b, a + 1);
}

TEST_F(MemorySystemTest, OffChipLatencyChargedOnColdMiss)
{
    const AccessLatency lat = read(0, 0);
    EXPECT_GE(lat.offchip, cfg_.dram_latency_cycles);
    EXPECT_GT(lat.l1_to_l2, 0u);
}

TEST_F(MemorySystemTest, InstructionFetchCounter)
{
    mem_.instructionFetch(10);
    mem_.instructionFetch(5);
    EXPECT_EQ(mem_.l1iAccesses(), 15u);
}

} // namespace
} // namespace crono::sim
