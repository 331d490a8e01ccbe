/**
 * @file
 * Index-cache tests (the structure behind the paper's Tables 6 and 7).
 */

#include <gtest/gtest.h>

#include "cache/index_cache.hh"

namespace cps
{
namespace
{

TEST(IndexCache, BaselineCachesLastEntryOnly)
{
    IndexCache ic(1, 1); // the paper's baseline CodePack
    EXPECT_FALSE(ic.access(5));
    ic.fill(5);
    EXPECT_TRUE(ic.access(5));
    ic.fill(6);
    EXPECT_TRUE(ic.access(6));
    EXPECT_FALSE(ic.access(5)); // displaced
}

TEST(IndexCache, LineCoversConsecutiveGroups)
{
    IndexCache ic(1, 4);
    ic.fill(8); // covers groups 8..11
    EXPECT_TRUE(ic.access(8));
    EXPECT_TRUE(ic.access(9));
    EXPECT_TRUE(ic.access(11));
    EXPECT_FALSE(ic.access(12));
    EXPECT_FALSE(ic.access(7));
}

TEST(IndexCache, LineAlignmentIsByTag)
{
    IndexCache ic(1, 4);
    ic.fill(10); // tag 2 -> groups 8..11
    EXPECT_TRUE(ic.access(8));
    EXPECT_TRUE(ic.access(11));
}

TEST(IndexCache, FullyAssociativeLru)
{
    IndexCache ic(2, 1);
    ic.fill(1);
    ic.fill(2);
    EXPECT_TRUE(ic.access(1)); // refresh 1
    ic.fill(3);                // evicts 2
    EXPECT_TRUE(ic.access(1));
    EXPECT_FALSE(ic.access(2));
    EXPECT_TRUE(ic.access(3));
}

TEST(IndexCache, OptimizedGeometryBytes)
{
    // The paper: a 64-line x 4-index cache holds 1KB of index entries.
    IndexCache ic(64, 4);
    EXPECT_EQ(ic.dataBytes(), 1024u);
    EXPECT_EQ(ic.numLines(), 64u);
    EXPECT_EQ(ic.indexesPerLine(), 4u);
}

TEST(IndexCache, InvalidateAll)
{
    IndexCache ic(4, 2);
    ic.fill(0);
    ic.fill(2);
    ic.invalidateAll();
    EXPECT_FALSE(ic.access(0));
    EXPECT_FALSE(ic.access(2));
}

/** Table 6 sweep shapes: bigger caches and longer lines miss less on a
 *  sequential group walk with periodic revisits. */
class IndexCacheSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(IndexCacheSweep, SequentialWalkMissRatio)
{
    auto [lines, per_line] = GetParam();
    IndexCache ic(lines, per_line);
    u64 misses = 0, accesses = 0;
    // Walk 4096 groups sequentially (the common I-stream pattern).
    for (u32 g = 0; g < 4096; ++g) {
        ++accesses;
        if (!ic.access(g)) {
            ++misses;
            ic.fill(g);
        }
    }
    // Sequential walk misses exactly once per line worth of groups.
    EXPECT_EQ(misses, 4096u / per_line);
    (void)accesses;
}

INSTANTIATE_TEST_SUITE_P(
    Table6Geometries, IndexCacheSweep,
    ::testing::Combine(::testing::Values(4u, 16u, 32u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(IndexCache, CapacityRetainsWorkingSet)
{
    IndexCache ic(64, 4); // maps 256 groups
    for (u32 g = 0; g < 256; ++g) {
        if (!ic.access(g))
            ic.fill(g);
    }
    // The whole working set is now resident.
    for (u32 g = 0; g < 256; ++g)
        EXPECT_TRUE(ic.access(g)) << g;
}

} // namespace
} // namespace cps
