/**
 * @file
 * Tests for the NodeObserver phase-reporting hook.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/power_trace.hh"
#include "fog/presets.hh"
#include "node/node.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

struct RecordingObserver : NodeObserver
{
    struct Event
    {
        std::uint32_t node;
        Phase phase;
        Tick start;
        Tick duration;
        Energy energy;
    };
    std::vector<Event> events;

    void
    onPhase(std::uint32_t node_id, Phase phase, Tick start,
            Tick duration, Energy energy) override
    {
        events.push_back({node_id, phase, start, duration, energy});
    }
};

std::unique_ptr<Node>
makeNode(RecordingObserver *obs)
{
    Node::Config cfg = presets::systemNodeTemplate();
    cfg.id = 42;
    auto node = std::make_unique<Node>(
        cfg, std::make_unique<ConstantTrace>(8.0_mW));
    node->setObserver(obs);
    return node;
}

TEST(Observer, PhasesArriveInExecutionOrder)
{
    RecordingObserver obs;
    auto node = makeNode(&obs);
    node->beginSlot(0, 12 * kSec);
    ASSERT_TRUE(node->tryWake());
    ASSERT_TRUE(node->samplePackage());
    ASSERT_GT(node->executeTasks(1), 0);
    ASSERT_TRUE(node->payTransmit(node->spec().resultPackage.send));

    ASSERT_GE(obs.events.size(), 4u);
    EXPECT_EQ(obs.events[0].phase, NodeObserver::Phase::Wake);
    EXPECT_EQ(obs.events[1].phase, NodeObserver::Phase::Sample);
    EXPECT_EQ(obs.events[2].phase, NodeObserver::Phase::Compute);
    EXPECT_EQ(obs.events[3].phase, NodeObserver::Phase::Transmit);

    // Phases are contiguous: each starts where the previous ended.
    for (std::size_t i = 1; i < obs.events.size(); ++i) {
        EXPECT_EQ(obs.events[i].start,
                  obs.events[i - 1].start + obs.events[i - 1].duration);
    }
    for (const auto &e : obs.events) {
        EXPECT_EQ(e.node, 42u);
        EXPECT_GT(e.energy.joules(), 0.0);
    }
}

TEST(Observer, DetachStopsReporting)
{
    RecordingObserver obs;
    auto node = makeNode(&obs);
    node->beginSlot(0, 12 * kSec);
    ASSERT_TRUE(node->tryWake());
    const std::size_t before = obs.events.size();
    node->setObserver(nullptr);
    node->samplePackage();
    EXPECT_EQ(obs.events.size(), before);
}

TEST(Observer, PhaseNamesComplete)
{
    for (auto p : {NodeObserver::Phase::Wake,
                   NodeObserver::Phase::Sample,
                   NodeObserver::Phase::Compute,
                   NodeObserver::Phase::IncidentalCompute,
                   NodeObserver::Phase::Transmit,
                   NodeObserver::Phase::Receive,
                   NodeObserver::Phase::Control})
        EXPECT_NE(phaseName(p), "?");
}

// A slot's point is the stored energy right after the slot's income is
// banked, through either entry point; the phases that follow add none.
TEST(Observer, SlotBeginReportsStoredAfterBanking)
{
    const Tick slot = 12 * kSec;
    for (const bool hoisted : {false, true}) {
        StoredEnergyLog log;
        auto node = makeNode(nullptr);
        node->setObserver(&log);
        std::vector<double> expected;
        for (int s = 0; s < 3; ++s) {
            // Every other slot, so a gap accrues before each turn.
            const Tick t = 2 * s * slot;
            if (hoisted) {
                const PowerTrace &trace = node->trace();
                node->beginSlotWithIncome(
                    t, slot, trace.integrate(node->lastAccrualTime(), t),
                    trace.integrate(t, t + slot));
            } else {
                node->beginSlot(t, slot);
            }
            expected.push_back(node->stored().millijoules());
            ASSERT_TRUE(node->tryWake());
            ASSERT_TRUE(node->samplePackage());
        }
        const auto &points = log.series().points();
        ASSERT_EQ(points.size(), 3u) << hoisted;
        for (std::size_t k = 0; k < points.size(); ++k) {
            EXPECT_EQ(points[k].when, static_cast<Tick>(2 * k) * slot);
            EXPECT_EQ(points[k].value, expected[k]) << hoisted << k;
        }
    }
}

TEST(Observer, ControlAndReceivePhasesReported)
{
    RecordingObserver obs;
    auto node = makeNode(&obs);
    node->beginSlot(0, 12 * kSec);
    ASSERT_TRUE(node->tryWake());
    ASSERT_TRUE(node->payControl(node->spec().beacon));
    ASSERT_TRUE(node->payListen(node->spec().resultPackage.listen));
    EXPECT_EQ(obs.events.back().phase, NodeObserver::Phase::Receive);
    EXPECT_EQ(obs.events[obs.events.size() - 2].phase,
              NodeObserver::Phase::Control);
}

} // namespace
} // namespace neofog
