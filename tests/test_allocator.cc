/**
 * @file
 * Unit and property tests for the dilated-crossbar allocator: the
 * randomized output selection of Section 4 and the determinism that
 * width cascading requires.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/random.hh"
#include "router/allocator.hh"

namespace metro
{
namespace
{

std::vector<bool>
allFree(unsigned o)
{
    return std::vector<bool>(o, true);
}

TEST(Allocator, RejectsRaggedPortGroups)
{
    // 7 ports cannot form dilation-2 groups; silent truncation here
    // used to shrink the radix by one and mask the last port group.
    EXPECT_DEATH(allocateCrossbar({{0, 0}}, allFree(7), 2, 1),
                 "whole number");
}

TEST(Allocator, LastPortGroupIsReachable)
{
    // Regression for the truncation the assert now rejects: with 8
    // ports at dilation 2 there are exactly 4 direction groups and
    // the last one (ports 6/7) must be allocatable.
    std::set<PortIndex> seen;
    for (std::uint64_t word = 0; word < 64; ++word) {
        const auto grants =
            allocateCrossbar({{0, 3}}, allFree(8), 2, word);
        ASSERT_TRUE(grants[0].granted());
        seen.insert(grants[0].backwardPort);
    }
    EXPECT_EQ(seen, (std::set<PortIndex>{6, 7}));
}

TEST(Allocator, SingleRequestGetsPortInItsDirection)
{
    for (std::uint64_t word = 0; word < 32; ++word) {
        const auto grants = allocateCrossbar(
            {{0, 1}}, allFree(8), /*dilation=*/2, word);
        ASSERT_EQ(grants.size(), 1u);
        EXPECT_TRUE(grants[0].granted());
        // Direction 1 of a dilation-2 router owns ports 2 and 3.
        EXPECT_GE(grants[0].backwardPort, 2u);
        EXPECT_LE(grants[0].backwardPort, 3u);
    }
}

TEST(Allocator, BothEquivalentPortsGetUsed)
{
    std::set<PortIndex> seen;
    for (std::uint64_t word = 0; word < 64; ++word) {
        const auto grants =
            allocateCrossbar({{0, 0}}, allFree(4), 2, word);
        seen.insert(grants[0].backwardPort);
    }
    EXPECT_EQ(seen, (std::set<PortIndex>{0, 1}));
}

TEST(Allocator, SelectionIsRoughlyUniform)
{
    std::map<PortIndex, int> counts;
    const int n = 20000;
    RandomSource rand_bits(11);
    for (int i = 0; i < n; ++i) {
        const auto grants = allocateCrossbar(
            {{0, 0}}, allFree(8), 4,
            rand_bits.wordForCycle(static_cast<Cycle>(i)));
        ++counts[grants[0].backwardPort];
    }
    ASSERT_EQ(counts.size(), 4u);
    for (const auto &[port, c] : counts) {
        EXPECT_GT(c, n / 4 * 0.9) << "port " << port;
        EXPECT_LT(c, n / 4 * 1.1) << "port " << port;
    }
}

TEST(Allocator, ContentionBlocksTheExcess)
{
    // Three requests, direction 0, dilation 2: exactly one blocked.
    const auto grants = allocateCrossbar(
        {{0, 0}, {1, 0}, {2, 0}}, allFree(4), 2, 99);
    int granted = 0, blocked = 0;
    for (const auto &g : grants)
        g.granted() ? ++granted : ++blocked;
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(blocked, 1);
}

TEST(Allocator, NoDoubleGrantOfAPort)
{
    RandomSource rand_bits(77);
    for (Cycle c = 0; c < 500; ++c) {
        const auto grants = allocateCrossbar(
            {{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 0}, {5, 1}},
            allFree(8), 2, rand_bits.wordForCycle(c));
        std::set<PortIndex> used;
        for (const auto &g : grants) {
            if (!g.granted())
                continue;
            EXPECT_TRUE(used.insert(g.backwardPort).second)
                << "port " << g.backwardPort << " granted twice";
        }
    }
}

TEST(Allocator, GrantsRespectDirectionGroups)
{
    RandomSource rand_bits(31);
    for (Cycle c = 0; c < 200; ++c) {
        const auto grants = allocateCrossbar(
            {{0, 0}, {1, 1}, {2, 2}, {3, 3}}, allFree(8), 2,
            rand_bits.wordForCycle(c));
        for (std::size_t k = 0; k < grants.size(); ++k) {
            ASSERT_TRUE(grants[k].granted());
            EXPECT_EQ(grants[k].backwardPort / 2, k)
                << "request " << k;
        }
    }
}

TEST(Allocator, UnavailablePortsAreNeverGranted)
{
    std::vector<bool> avail(4, true);
    avail[0] = false; // direction 0's first port is down
    for (std::uint64_t word = 0; word < 64; ++word) {
        const auto grants =
            allocateCrossbar({{0, 0}}, avail, 2, word);
        ASSERT_TRUE(grants[0].granted());
        EXPECT_EQ(grants[0].backwardPort, 1u);
    }
}

TEST(Allocator, FullyBusyDirectionBlocks)
{
    std::vector<bool> avail(4, true);
    avail[2] = avail[3] = false;
    const auto grants = allocateCrossbar({{5, 1}}, avail, 2, 1);
    EXPECT_FALSE(grants[0].granted());
    EXPECT_EQ(grants[0].forwardPort, 5u);
}

TEST(Allocator, DeterministicForCascading)
{
    // Same requests + same shared random word => identical
    // allocations (Section 5.1, shared randomness).
    const std::vector<AllocRequest> reqs = {
        {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 1}};
    for (std::uint64_t word = 0; word < 128; ++word) {
        const auto a = allocateCrossbar(reqs, allFree(8), 2, word);
        const auto b = allocateCrossbar(reqs, allFree(8), 2, word);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(a[k].backwardPort, b[k].backwardPort);
            EXPECT_EQ(a[k].forwardPort, b[k].forwardPort);
        }
    }
}

TEST(Allocator, PriorityRotationIsFair)
{
    // Two requests fight for one free port; over many draws each
    // forward port should win about half the time.
    std::vector<bool> avail(4, false);
    avail[0] = true;
    RandomSource rand_bits(5);
    int wins0 = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const auto grants = allocateCrossbar(
            {{0, 0}, {1, 0}}, avail, 2,
            rand_bits.wordForCycle(static_cast<Cycle>(i)));
        if (grants[0].granted())
            ++wins0;
        EXPECT_NE(grants[0].granted(), grants[1].granted());
    }
    EXPECT_GT(wins0, n / 2 * 0.9);
    EXPECT_LT(wins0, n / 2 * 1.1);
}

TEST(Allocator, Dilation1BehavesLikePlainCrossbar)
{
    // dilation 1: port k <=> direction k; contention on the same
    // direction blocks all but one.
    const auto grants = allocateCrossbar(
        {{0, 3}, {1, 3}}, allFree(4), 1, 17);
    int granted = 0;
    for (const auto &g : grants) {
        if (g.granted()) {
            EXPECT_EQ(g.backwardPort, 3u);
            ++granted;
        }
    }
    EXPECT_EQ(granted, 1);
}

/** The allocator as first written — a vector per direction, a
 *  free-port vector with erase — kept as the reference the
 *  allocation-free version must match draw for draw. */
std::vector<AllocGrant>
referenceAllocate(const std::vector<AllocRequest> &requests,
                  const std::vector<bool> &available, unsigned dilation,
                  std::uint64_t random_word, bool randomize)
{
    std::vector<AllocGrant> result(requests.size());
    const unsigned num_directions =
        static_cast<unsigned>(available.size()) / dilation;
    std::vector<std::vector<std::size_t>> by_dir(num_directions);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        result[i].forwardPort = requests[i].forwardPort;
        by_dir[requests[i].direction].push_back(i);
    }
    for (unsigned dir = 0; dir < num_directions; ++dir) {
        auto &reqs = by_dir[dir];
        if (reqs.empty())
            continue;
        std::vector<PortIndex> free_ports;
        for (unsigned k = 0; k < dilation; ++k) {
            const PortIndex b = dir * dilation + k;
            if (available[b])
                free_ports.push_back(b);
        }
        Xoshiro256 draw(random_word ^
                        (0x9e3779b97f4a7c15ULL * (dir + 1)));
        if (randomize && reqs.size() > 1) {
            const auto rot = static_cast<std::size_t>(
                draw.below(reqs.size()));
            std::rotate(reqs.begin(), reqs.begin() + rot, reqs.end());
        }
        for (std::size_t idx : reqs) {
            if (free_ports.empty())
                break;
            const auto pick =
                randomize ? static_cast<std::size_t>(
                                draw.below(free_ports.size()))
                          : 0;
            result[idx].backwardPort = free_ports[pick];
            free_ports.erase(free_ports.begin() +
                             static_cast<std::ptrdiff_t>(pick));
        }
    }
    return result;
}

TEST(Allocator, MatchesReferenceOnRandomRequestSets)
{
    Xoshiro256 rng(0xA110CULL);
    std::vector<AllocGrant> reused; // keeps stale grants between calls
    for (int trial = 0; trial < 10000; ++trial) {
        const unsigned dilation = 1u << rng.below(3);     // 1, 2, 4
        const unsigned ports = dilation << rng.below(4);  // ≤ 32
        const unsigned forward = 1u << (1 + rng.below(4)); // 2..16
        std::vector<bool> avail(ports);
        for (unsigned b = 0; b < ports; ++b)
            avail[b] = rng.below(4) != 0;
        std::vector<AllocRequest> reqs;
        for (unsigned f = 0; f < forward; ++f) {
            if (rng.below(2) == 0)
                reqs.push_back({f, static_cast<unsigned>(
                                       rng.below(ports / dilation))});
        }
        const std::uint64_t word = rng.next();
        const bool randomize = rng.below(2) == 0;
        SCOPED_TRACE("trial " + std::to_string(trial));

        const auto want =
            referenceAllocate(reqs, avail, dilation, word, randomize);
        const auto got =
            allocateCrossbar(reqs, avail, dilation, word, randomize);
        allocateCrossbar(reqs, avail, dilation, word, randomize,
                         reused);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(reused.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k) {
            ASSERT_EQ(got[k].forwardPort, want[k].forwardPort);
            ASSERT_EQ(got[k].backwardPort, want[k].backwardPort);
            ASSERT_EQ(reused[k].forwardPort, want[k].forwardPort);
            ASSERT_EQ(reused[k].backwardPort, want[k].backwardPort);
        }
    }
}

TEST(Allocator, EmptyRequestListIsFine)
{
    const auto grants = allocateCrossbar({}, allFree(8), 2, 1);
    EXPECT_TRUE(grants.empty());
}

} // namespace
} // namespace metro
