/**
 * @file
 * Model-based stress tests: the node state machine under randomized
 * slot drives.
 */

#include <gtest/gtest.h>

#include <memory>

#include "energy/power_trace.hh"
#include "node/node.hh"
#include "sim/rng.hh"

namespace neofog {
namespace {

class NodeFuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(NodeFuzzTest, RandomDrivesNeverBreakInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 5);
    Node::Config cfg;
    cfg.mode = static_cast<OperatingMode>(rng.uniformInt(0, 2));
    cfg.processorMhz = rng.uniform(1.0, 120.0);
    cfg.rawPackageBytes = static_cast<std::size_t>(
        rng.uniformInt(16, 1024));
    cfg.compressedPackageBytes = static_cast<std::size_t>(
        rng.uniformInt(4, 64));
    cfg.samplesPerPackage = static_cast<std::size_t>(
        rng.uniformInt(1, 256));
    cfg.fogInstructionsPerPackage = static_cast<std::uint64_t>(
        rng.uniformInt(10'000, 40'000'000));
    cfg.packageDeadlineSlots = static_cast<int>(rng.uniformInt(1, 4));
    cfg.enableIncidentalComputing = rng.chance(0.5);
    cfg.cap.initial = Energy::fromMillijoules(rng.uniform(0.0, 200.0));

    Rng trace_rng = rng.fork();
    auto trace = traces::makeForestTrace(
        trace_rng, 2 * kHour,
        Power::fromMilliwatts(rng.uniform(0.05, 8.0)));
    Node node(cfg, std::move(trace));

    const Tick slot = 12 * kSec;
    Tick t = 0;
    for (int s = 0; s < 200; ++s) {
        // Random slot gaps (multiplexing-like sleeps).
        t += slot * rng.uniformInt(1, 3);
        node.beginSlot(t, slot);
        EXPECT_GE(node.stored().joules(), -1e-12);
        EXPECT_LE(node.stored().joules(),
                  node.capacitor().capacity().joules() + 1e-12);

        if (!node.tryWake())
            continue;
        if (rng.chance(0.9))
            node.samplePackage();
        if (rng.chance(0.3))
            node.payControl(node.spec().beacon);
        if (rng.chance(0.5))
            node.executeTasks(static_cast<int>(rng.uniformInt(1, 3)));
        if (rng.chance(0.3))
            node.executeIncidentalTasks(1);
        if (rng.chance(0.5))
            node.payTransmit(node.spec().resultPackage.send);
        if (rng.chance(0.2))
            node.payListen(node.spec().rawPackage.listen);
        if (rng.chance(0.1))
            node.discardPendingPackages();
        EXPECT_GE(node.pendingPackages(), 0);
        EXPECT_GE(node.spareTaskCapacity(), 0.0);
    }

    // Accounting stayed consistent.
    const NodeStats &st = node.stats();
    EXPECT_LE(st.packagesInFog.value() + st.tasksExecuted.value(),
              st.packagesSampled.value() + st.tasksReceived.value() +
                  st.tasksExecuted.value());
    const double spent =
        st.spentCompute.joules() + st.spentTx.joules() +
        st.spentRx.joules() + st.spentSample.joules() +
        st.spentWake.joules();
    EXPECT_LE(spent, st.harvestedTotal.joules() +
                         cfg.cap.initial.joules() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeFuzzTest,
                         ::testing::Range(1, 13));

} // namespace
} // namespace neofog
