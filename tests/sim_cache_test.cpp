/**
 * @file
 * Set-associative cache model tests: lookup, LRU replacement,
 * eviction reporting, state maintenance and reset, on a 2-way
 * geometry as well as direct-mapped and single-set ones.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache.h"

namespace crono::sim {
namespace {

CacheConfig
tinyConfig()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheConfig{512, 2, 1};
}

CacheConfig
directMappedConfig()
{
    // 4 sets x 1 way x 64 B lines = 256 B.
    return CacheConfig{256, 1, 1};
}

CacheConfig
singleSetConfig()
{
    // 1 set x 4 ways x 64 B lines = 256 B: every line conflicts.
    return CacheConfig{256, 4, 1};
}

TEST(Cache, GeometryFromConfig)
{
    Cache c(tinyConfig(), 64);
    EXPECT_EQ(c.numSets(), 4u);
    EXPECT_EQ(Cache(directMappedConfig(), 64).numSets(), 4u);
    EXPECT_EQ(Cache(singleSetConfig(), 64).numSets(), 1u);
    const Config table2; // Table II defaults
    Cache l1(table2.l1d, table2.line_bytes);
    EXPECT_EQ(l1.numSets(), 128u); // 32 KB / (64 B x 4 ways)
    Cache l2(table2.l2, table2.line_bytes);
    EXPECT_EQ(l2.numSets(), 512u); // 256 KB / (64 B x 8 ways)
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyConfig(), 64);
    EXPECT_EQ(c.lookup(100), LineState::invalid);
    c.insert(100, LineState::shared);
    EXPECT_EQ(c.lookup(100), LineState::shared);
}

TEST(Cache, PeekDoesNotTouchLru)
{
    Cache c(tinyConfig(), 64);
    // Same set: lines 0, 4, 8 (4 sets).
    c.insert(0, LineState::shared);
    c.insert(4, LineState::shared);
    // peek(0) must not refresh line 0; lookup(4) makes 0 the LRU.
    EXPECT_EQ(c.peek(0), LineState::shared);
    c.lookup(4);
    c.lookup(0); // now 4 is LRU
    const auto victim = c.insert(8, LineState::shared);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, 4u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig(), 64);
    c.insert(0, LineState::shared);
    c.insert(4, LineState::shared);
    c.lookup(0); // 4 becomes LRU
    const auto victim = c.insert(8, LineState::modified);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, 4u);
    EXPECT_EQ(victim.state, LineState::shared);
    EXPECT_EQ(c.peek(0), LineState::shared);
    EXPECT_EQ(c.peek(8), LineState::modified);

    // Direct-mapped: the set's one resident line is the victim.
    Cache dm(directMappedConfig(), 64);
    dm.insert(1, LineState::shared);
    dm.insert(2, LineState::modified); // another set
    dm.lookup(1);
    const auto dm_victim = dm.insert(5, LineState::shared); // set 1
    ASSERT_TRUE(dm_victim.valid);
    EXPECT_EQ(dm_victim.line, 1u);
    EXPECT_EQ(dm.peek(2), LineState::modified);

    // Single set: the LRU way is the third of four, then the first.
    Cache one(singleSetConfig(), 64);
    for (LineAddr line = 0; line < 4; ++line) {
        one.insert(line, LineState::shared);
    }
    one.lookup(0);
    one.lookup(1);
    one.lookup(3);
    auto one_victim = one.insert(10, LineState::shared);
    ASSERT_TRUE(one_victim.valid);
    EXPECT_EQ(one_victim.line, 2u);
    one_victim = one.insert(11, LineState::shared);
    ASSERT_TRUE(one_victim.valid);
    EXPECT_EQ(one_victim.line, 0u);
}

TEST(Cache, InsertPrefersInvalidWay)
{
    Cache c(tinyConfig(), 64);
    c.insert(0, LineState::shared);
    c.insert(4, LineState::shared);
    c.invalidate(0);
    const auto victim = c.insert(8, LineState::shared);
    EXPECT_FALSE(victim.valid); // reused the invalidated way
    EXPECT_EQ(c.peek(4), LineState::shared);

    // Direct-mapped: the set's only way, once invalidated, is reused.
    Cache dm(directMappedConfig(), 64);
    dm.insert(3, LineState::modified);
    dm.invalidate(3);
    EXPECT_FALSE(dm.insert(7, LineState::shared).valid);
    EXPECT_EQ(dm.peek(7), LineState::shared);

    // An invalid way at a non-first position beats the LRU way (the
    // first): the set keeps lines 0, 1 and 3.
    Cache one(singleSetConfig(), 64);
    for (LineAddr line = 0; line < 4; ++line) {
        one.insert(line, LineState::shared);
    }
    one.invalidate(2);
    EXPECT_FALSE(one.insert(10, LineState::shared).valid);
    for (LineAddr line : {0, 1, 3, 10}) {
        EXPECT_EQ(one.peek(line), LineState::shared) << "line " << line;
    }
    const auto one_victim = one.insert(11, LineState::shared);
    ASSERT_TRUE(one_victim.valid);
    EXPECT_EQ(one_victim.line, 0u);
}

TEST(Cache, DifferentSetsDoNotConflict)
{
    Cache c(tinyConfig(), 64);
    for (LineAddr line = 0; line < 8; ++line) {
        EXPECT_FALSE(c.insert(line, LineState::shared).valid)
            << "line " << line;
    }
    EXPECT_EQ(c.occupancy(), 8u);

    Cache dm(directMappedConfig(), 64);
    for (LineAddr line = 0; line < 4; ++line) {
        EXPECT_FALSE(dm.insert(line, LineState::shared).valid)
            << "line " << line;
    }
    for (LineAddr line = 0; line < 4; ++line) {
        EXPECT_EQ(dm.peek(line), LineState::shared) << "line " << line;
    }
}

TEST(Cache, SetStateTransitions)
{
    Cache c(tinyConfig(), 64);
    c.insert(3, LineState::exclusive);
    c.setState(3, LineState::modified);
    EXPECT_EQ(c.peek(3), LineState::modified);
    c.setState(3, LineState::shared);
    EXPECT_EQ(c.peek(3), LineState::shared);
}

TEST(Cache, InvalidateReturnsPriorState)
{
    Cache c(tinyConfig(), 64);
    c.insert(3, LineState::modified);
    EXPECT_EQ(c.invalidate(3), LineState::modified);
    EXPECT_EQ(c.invalidate(3), LineState::invalid); // already gone
    EXPECT_EQ(c.peek(3), LineState::invalid);
}

TEST(Cache, OccupancyTracksContents)
{
    Cache c(tinyConfig(), 64);
    EXPECT_EQ(c.occupancy(), 0u);
    c.insert(1, LineState::shared);
    c.insert(2, LineState::shared);
    EXPECT_EQ(c.occupancy(), 2u);
    c.invalidate(1);
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, FullCacheKeepsCapacity)
{
    Cache c(tinyConfig(), 64);
    for (LineAddr line = 0; line < 100; ++line) {
        c.insert(line, LineState::shared);
    }
    EXPECT_EQ(c.occupancy(), 8u); // 4 sets x 2 ways
    for (const CacheConfig& cfg : {directMappedConfig(), singleSetConfig()}) {
        Cache other(cfg, 64);
        for (LineAddr line = 0; line < 100; ++line) {
            other.insert(line, LineState::shared);
        }
        EXPECT_EQ(other.occupancy(), 4u); // 4 x 1 and 1 x 4
    }
}

TEST(Cache, ResetMatchesFreshCache)
{
    // The same insert/lookup/invalidate sequence must pick the same
    // victims on a reset cache as on a fresh one.
    const auto replay = [](Cache& c) {
        std::vector<LineAddr> victims;
        for (LineAddr i = 0; i < 40; ++i) {
            const LineAddr line = (i * 7) % 13;
            if (c.lookup(line) != LineState::invalid) {
                if (i % 3 == 0) {
                    c.invalidate(line);
                }
                continue;
            }
            const Cache::Victim v = c.insert(line, LineState::shared);
            victims.push_back(v.valid ? v.line : ~LineAddr{0});
        }
        return victims;
    };
    Cache fresh(tinyConfig(), 64);
    const std::vector<LineAddr> want = replay(fresh);
    Cache reused(tinyConfig(), 64);
    replay(reused); // leaves holes: it invalidates some hits
    reused.reset();
    EXPECT_EQ(reused.occupancy(), 0u);
    EXPECT_EQ(replay(reused), want);
}

} // namespace
} // namespace crono::sim
