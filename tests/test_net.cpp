/**
 * @file
 * Tests for the network substrate: loss model, topology/routing.
 */

#include <gtest/gtest.h>

#include "net/loss.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

TEST(LossModel, DefaultMatchesPaperRate)
{
    const LossModel::Config cfg;
    EXPECT_DOUBLE_EQ(cfg.successRate, 0.9925);
    EXPECT_EQ(cfg.maxRetries, 0);
}

TEST(LossModel, LossFrequencyConverges)
{
    const LossModel::Config cfg;
    LossModel::State loss;
    Rng rng(5);
    const int n = 200000;
    int delivered = 0;
    for (int i = 0; i < n; ++i)
        delivered += loss.attempt(cfg, rng) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(delivered) / n, 0.9925, 0.002);
    EXPECT_EQ(loss.attempts, static_cast<std::uint64_t>(n));
    EXPECT_NEAR(static_cast<double>(loss.losses) / n, 0.0075, 0.002);
}

TEST(LossModel, RetriesReduceEndToEndLoss)
{
    LossModel::Config cfg;
    cfg.successRate = 0.8;
    cfg.maxRetries = 2;
    LossModel::State loss;
    Rng rng(7);
    int failures = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (!loss.deliver(cfg, rng).delivered)
            ++failures;
    }
    // P(3 consecutive failures) = 0.2^3 = 0.008.
    EXPECT_NEAR(static_cast<double>(failures) / n, 0.008, 0.002);
}

TEST(LossModel, WeatherFactorDegrades)
{
    LossModel::Config cfg;
    cfg.weatherFactor = 0.5;
    EXPECT_NEAR(cfg.effectiveRate(), 0.9925 * 0.5, 1e-12);
}

TEST(LossModel, RejectsBadConfig)
{
    EXPECT_NO_THROW(LossModel::check(LossModel::Config{}));
    LossModel::Config cfg;
    cfg.successRate = 0.0;
    EXPECT_THROW(LossModel::check(cfg), FatalError);
    LossModel::Config cfg2;
    cfg2.maxRetries = -1;
    EXPECT_THROW(LossModel::check(cfg2), FatalError);
}

TEST(Topology, DistanceAndRssi)
{
    EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
    // RSSI decreases with distance.
    EXPECT_GT(rssiAtDistance(1.0), rssiAtDistance(10.0));
    EXPECT_GT(rssiAtDistance(10.0), rssiAtDistance(100.0));
}

TEST(Topology, LinearChainHops)
{
    const ChainMesh mesh = ChainMesh::makeLinear(10, 12.0);
    const auto route = mesh.greedyRoute(0, 9, 15.0);
    EXPECT_EQ(ChainMesh::hopCount(route), 9u);
    EXPECT_EQ(route.front(), 0u);
    EXPECT_EQ(route.back(), 9u);
}

TEST(Topology, RouteUnreachableWhenRangeTooShort)
{
    const ChainMesh mesh = ChainMesh::makeLinear(5, 12.0);
    EXPECT_TRUE(mesh.greedyRoute(0, 4, 5.0).empty());
}

TEST(Topology, DeadNodeBypassedWithLongerRange)
{
    const ChainMesh mesh = ChainMesh::makeLinear(5, 10.0);
    std::vector<bool> alive(5, true);
    alive[2] = false;
    // Range covers a two-hop skip: orphan-scan bypass A->C.
    const auto route = mesh.greedyRoute(0, 4, 25.0, alive);
    ASSERT_FALSE(route.empty());
    for (std::size_t idx : route)
        EXPECT_NE(idx, 2u);
}

TEST(Topology, DeadNodePartitionsAtShortRange)
{
    const ChainMesh mesh = ChainMesh::makeLinear(5, 10.0);
    std::vector<bool> alive(5, true);
    alive[2] = false;
    EXPECT_TRUE(mesh.greedyRoute(0, 4, 12.0, alive).empty());
}

TEST(Topology, GreedyPrefersShortHops)
{
    // Nodes at 0, 6, 12: with range 15 the greedy route goes 0->1->2,
    // the hop-maximizing route goes 0->2 directly.
    ChainMesh mesh({{0, 0}, {6, 0}, {12, 0}});
    EXPECT_EQ(ChainMesh::hopCount(mesh.greedyRoute(0, 2, 15.0)), 2u);
    EXPECT_EQ(ChainMesh::hopCount(mesh.longestHopRoute(0, 2, 15.0)), 1u);
}

TEST(Topology, DenseChainInflatesGreedyHops)
{
    Rng rng(42);
    const ChainMesh base = ChainMesh::makeLinear(10, 12.0);
    const ChainMesh dense =
        ChainMesh::makeDenseChain(10, 4, 12.0, 5.0, rng);
    EXPECT_EQ(dense.size(), 40u);
    const auto base_route = base.greedyRoute(0, 9, 18.0);
    const auto dense_route = dense.greedyRoute(0, 36, 18.0);
    ASSERT_FALSE(base_route.empty());
    ASSERT_FALSE(dense_route.empty());
    EXPECT_GT(ChainMesh::hopCount(dense_route),
              2 * ChainMesh::hopCount(base_route));
}

TEST(Topology, ClosestNeighbor)
{
    ChainMesh mesh({{0, 0}, {1, 0}, {10, 0}});
    EXPECT_EQ(mesh.closestNeighbor(0), 1u);
    EXPECT_EQ(mesh.closestNeighbor(1), 0u);
    EXPECT_EQ(mesh.closestNeighbor(2), 1u);
}

TEST(Topology, NeighborsInRangeSorted)
{
    ChainMesh mesh({{0, 0}, {5, 0}, {2, 0}, {30, 0}});
    const auto n = mesh.neighborsInRange(0, 10.0);
    ASSERT_EQ(n.size(), 2u);
    EXPECT_EQ(n[0], 2u); // nearest first
    EXPECT_EQ(n[1], 1u);
}

TEST(Packet, KindNames)
{
    EXPECT_EQ(packetKindName(PacketKind::Data), "data");
    EXPECT_EQ(packetKindName(PacketKind::OrphanScan), "orphan-scan");
    EXPECT_EQ(packetKindName(PacketKind::CloneSync), "clone-sync");
}

} // namespace
} // namespace neofog
