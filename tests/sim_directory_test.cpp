/**
 * @file
 * ACKwise-k sharer-set tests: precise tracking, overflow to
 * count-only mode, and recovery when the set empties.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/directory.h"

namespace crono::sim {
namespace {

/** The precise pointers of @p s, in the order forEachPointer visits. */
std::vector<int>
pointersOf(const AckwiseSharers& s)
{
    std::vector<int> out;
    s.forEachPointer([&](int core) { out.push_back(core); });
    return out;
}

TEST(Ackwise, TracksUpToKPointersPrecisely)
{
    AckwiseSharers s(4);
    for (int core : {3, 7, 11, 15}) {
        s.add(core);
    }
    EXPECT_EQ(s.count(), 4);
    EXPECT_FALSE(s.overflowed());
    for (int core : {3, 7, 11, 15}) {
        EXPECT_TRUE(s.contains(core));
    }
    EXPECT_FALSE(s.contains(5));
    EXPECT_EQ(pointersOf(s), (std::vector<int>{3, 7, 11, 15}));
}

TEST(Ackwise, OverflowsOnKPlusOne)
{
    AckwiseSharers s(4);
    for (int core = 0; core < 5; ++core) {
        s.add(core);
    }
    EXPECT_TRUE(s.overflowed());
    EXPECT_EQ(s.count(), 5); // count stays exact
    // In overflow mode anyone may be a sharer.
    EXPECT_TRUE(s.contains(200));
}

TEST(Ackwise, RemoveRestoresPointerSlot)
{
    AckwiseSharers s(4);
    s.add(1);
    s.add(2);
    s.remove(1);
    EXPECT_EQ(s.count(), 1);
    EXPECT_FALSE(s.contains(1));
    s.add(3); // reuses the freed slot without overflowing
    EXPECT_FALSE(s.overflowed());
    EXPECT_EQ(s.count(), 2);
    EXPECT_EQ(pointersOf(s), (std::vector<int>{3, 2})); // slot order
}

TEST(Ackwise, OverflowClearsWhenEmptied)
{
    AckwiseSharers s(2);
    for (int core = 0; core < 3; ++core) {
        s.add(core);
    }
    EXPECT_TRUE(s.overflowed());
    for (int core = 0; core < 3; ++core) {
        s.remove(core);
    }
    EXPECT_EQ(s.count(), 0);
    EXPECT_FALSE(s.overflowed()); // identities recoverable again
    s.add(9);
    EXPECT_TRUE(s.contains(9));
    EXPECT_FALSE(s.contains(0));
}

TEST(Ackwise, ClearResetsEverything)
{
    AckwiseSharers s(4);
    for (int core = 0; core < 6; ++core) {
        s.add(core);
    }
    s.clear();
    EXPECT_EQ(s.count(), 0);
    EXPECT_FALSE(s.overflowed());
    EXPECT_TRUE(pointersOf(s).empty());
    EXPECT_TRUE(s.empty());
}

TEST(Ackwise, SingleSharerLifecycle)
{
    AckwiseSharers s(1);
    s.add(42);
    EXPECT_FALSE(s.overflowed());
    s.add(43); // second sharer overflows a 1-pointer directory
    EXPECT_TRUE(s.overflowed());
    EXPECT_EQ(s.count(), 2);
}

TEST(DirEntry, DefaultsToUncached)
{
    DirEntry e(4);
    EXPECT_EQ(e.state, DirState::uncached);
    EXPECT_EQ(e.owner, -1);
    EXPECT_TRUE(e.sharers.empty());
}

} // namespace
} // namespace crono::sim
