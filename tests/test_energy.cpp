/**
 * @file
 * Tests for the energy substrate: traces, capacitor, front ends.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "energy/capacitor.hh"
#include "energy/frontend.hh"
#include "energy/power_trace.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

TEST(ConstantTrace, ExactIntegration)
{
    ConstantTrace trace(Power::fromMilliwatts(2.0));
    EXPECT_DOUBLE_EQ(trace.integrate(0, kSec).millijoules(), 2.0);
    EXPECT_DOUBLE_EQ(trace.integrate(kSec, 3 * kSec).millijoules(), 4.0);
    EXPECT_DOUBLE_EQ(trace.integrate(5, 5).joules(), 0.0);
}

TEST(PiecewiseTrace, StepLookup)
{
    PiecewiseTrace trace({{0, 1.0_mW}, {kSec, 3.0_mW}, {2 * kSec, 0.0_mW}});
    EXPECT_DOUBLE_EQ(trace.at(0).milliwatts(), 1.0);
    EXPECT_DOUBLE_EQ(trace.at(kSec - 1).milliwatts(), 1.0);
    EXPECT_DOUBLE_EQ(trace.at(kSec).milliwatts(), 3.0);
    EXPECT_DOUBLE_EQ(trace.at(10 * kSec).milliwatts(), 0.0);
}

TEST(PiecewiseTrace, ZeroBeforeFirstSegment)
{
    PiecewiseTrace trace({{kSec, 1.0_mW}});
    EXPECT_DOUBLE_EQ(trace.at(0).watts(), 0.0);
    EXPECT_DOUBLE_EQ(trace.integrate(0, kSec).joules(), 0.0);
}

TEST(PiecewiseTrace, ExactIntegralAcrossSegments)
{
    PiecewiseTrace trace({{0, 1.0_mW}, {kSec, 3.0_mW}});
    // 0.5 s at 1 mW + 1.5 s spanning the boundary.
    const Energy e = trace.integrate(500 * kMs, 2 * kSec);
    EXPECT_NEAR(e.millijoules(), 0.5 * 1.0 + 1.0 * 3.0, 1e-12);
}

TEST(PiecewiseTrace, DefaultIntegrateMatchesExact)
{
    PiecewiseTrace trace({{0, 2.0_mW}, {3 * kSec, 5.0_mW}});
    const Energy exact = trace.integrate(0, 6 * kSec);
    // Base-class sampling path via a PowerTrace reference.
    const PowerTrace &base = trace;
    const Energy sampled = base.PowerTrace::integrate(0, 6 * kSec);
    // Trapezoid sampling smears the step over one ~1 s substep: the
    // error bound is |dP| * step / 2 = 1.5 mJ here.
    EXPECT_NEAR(sampled.joules(), exact.joules(), 1.6e-3);
}

TEST(DiurnalSolarTrace, ZeroAtNightPeakAtNoon)
{
    DiurnalSolarTrace::Config cfg;
    cfg.peak = 100.0_mW;
    cfg.dayLength = 12 * kHour;
    cfg.sunriseOffset = 0;
    DiurnalSolarTrace trace(cfg);
    EXPECT_DOUBLE_EQ(trace.at(12 * kHour).watts(), 0.0);
    EXPECT_DOUBLE_EQ(trace.at(13 * kHour).watts(), 0.0);
    EXPECT_NEAR(trace.at(6 * kHour).milliwatts(), 100.0, 1e-9);
    EXPECT_GT(trace.at(3 * kHour).milliwatts(), 60.0);
}

TEST(DiurnalSolarTrace, AttenuationScales)
{
    DiurnalSolarTrace::Config cfg;
    cfg.peak = 100.0_mW;
    cfg.sunriseOffset = 0;
    cfg.attenuation = 0.1;
    DiurnalSolarTrace trace(cfg);
    EXPECT_NEAR(trace.at(6 * kHour).milliwatts(), 10.0, 1e-9);
}

class TraceFactoryTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceFactoryTest, ForestTraceMeanNearTarget)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Tick horizon = 5 * kHour;
    const Power target = 2.0_mW;
    // Average over several nodes: individual nodes vary by design
    // (site gains), but the ensemble mean should be near the target.
    double sum = 0.0;
    const int nodes = 40;
    for (int i = 0; i < nodes; ++i) {
        auto t = traces::makeForestTrace(rng, horizon, target);
        sum += t->integrate(0, horizon).joules() /
               secondsFromTicks(horizon);
    }
    EXPECT_NEAR(sum / nodes, target.watts(), target.watts() * 0.5);
}

TEST_P(TraceFactoryTest, BridgeTraceMeanCloseAndDependent)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
    const Tick horizon = 5 * kHour;
    const Power target = 2.4_mW;
    auto t = traces::makeBridgeTrace(GetParam() % 5, rng, horizon,
                                     target);
    const double mean =
        t->integrate(0, horizon).joules() / secondsFromTicks(horizon);
    // Dependent traces have only 30% per-node variance.
    EXPECT_NEAR(mean, target.watts(), target.watts() * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFactoryTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TraceFactories, RainSharedScheduleIsShared)
{
    // Two nodes build the stream from one deployment seed on their
    // own, each with its own gain.
    Rng n1(1), n2(2);
    const Tick horizon = kHour;
    const auto node = [&](Rng &rng) {
        return ScaledTrace(1.0e-3 * traces::rainNodeGain(rng),
                           traces::makeRainUnitStream(555, horizon));
    };
    const ScaledTrace a = node(n1);
    const ScaledTrace b = node(n2);
    // Same spell schedule: the power ratio between nodes is constant
    // over time (only the per-node gain differs).
    const double r0 = a.at(10 * kMin).watts() / b.at(10 * kMin).watts();
    for (Tick t = 0; t < horizon; t += 7 * kMin) {
        if (b.at(t).watts() <= 0.0)
            continue;
        EXPECT_NEAR(a.at(t).watts() / b.at(t).watts(), r0, 1e-9);
    }
}

// Property: integration is additive over adjacent intervals for every
// trace family.
class TraceAdditivity : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<PowerTrace>
    make(int kind)
    {
        Rng rng(99);
        const Tick h = kHour;
        switch (kind) {
          case 0:
            return std::make_unique<ConstantTrace>(2.0_mW);
          case 1:
            return std::make_unique<PiecewiseTrace>(
                std::vector<PiecewiseTrace::Segment>{
                    {0, 1.0_mW}, {10 * kMin, 4.0_mW},
                    {30 * kMin, 0.5_mW}});
          case 2:
            return traces::makeForestTrace(rng, h, 2.0_mW);
          case 3:
            return traces::makeBridgeTrace(1, rng, h, 2.0_mW);
          case 4:
            return std::make_unique<ScaledTrace>(
                1.0e-3 * traces::rainNodeGain(rng),
                traces::makeRainUnitStream(5, h));
          case 5:
            return traces::makeMountainTrace(rng, h, 5.0_mW);
          case 6:
            return traces::makePiezoTrace(rng, h, 5.0_mW, 10.0);
          default:
            return traces::makeRfTrace(rng, h, 0.3_mW);
        }
    }
};

TEST_P(TraceAdditivity, SplitIntegralsSum)
{
    auto trace = make(GetParam());
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        const Tick a = rng.uniformInt(0, kHour - 2);
        const Tick c = rng.uniformInt(a + 2, kHour);
        const Tick b = rng.uniformInt(a + 1, c - 1);
        const double whole = trace->integrate(a, c).joules();
        const double split = trace->integrate(a, b).joules() +
                             trace->integrate(b, c).joules();
        EXPECT_NEAR(split, whole, std::max(1e-12, whole * 0.02))
            << trace->describe();
    }
}

TEST_P(TraceAdditivity, NonNegativeEverywhere)
{
    auto trace = make(GetParam());
    for (Tick t = 0; t < kHour; t += 97 * kSec)
        EXPECT_GE(trace->at(t).watts(), 0.0) << trace->describe();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TraceAdditivity,
                         ::testing::Range(0, 8));

TEST(TraceFactories, PiezoIsBursty)
{
    Rng rng(5);
    auto t = traces::makePiezoTrace(rng, kHour, 10.0_mW, 6.0);
    int zero = 0, nonzero = 0;
    for (Tick at = 0; at < kHour; at += kSec) {
        if (t->at(at).watts() > 0.0)
            ++nonzero;
        else
            ++zero;
    }
    EXPECT_GT(zero, nonzero); // mostly quiet
    EXPECT_GT(nonzero, 0);    // but some pulses land
}

TEST(TraceFactories, RfTraceAlwaysPositive)
{
    Rng rng(6);
    auto t = traces::makeRfTrace(rng, kHour, 0.1_mW);
    for (Tick at = 0; at < kHour; at += 30 * kSec)
        EXPECT_GT(t->at(at).watts(), 0.0);
}

TEST(SuperCapacitor, ChargeRespectsCapacity)
{
    const SuperCapacitor::Config cfg{10.0_mJ, 0.0_mJ, Power::zero()};
    SuperCapacitor::State state = SuperCapacitor::initialState(cfg);
    CapacitorView cap(cfg, state);
    EXPECT_DOUBLE_EQ(cap.charge(4.0_mJ).millijoules(), 4.0);
    EXPECT_DOUBLE_EQ(cap.charge(8.0_mJ).millijoules(), 6.0);
    EXPECT_DOUBLE_EQ(cap.stored().millijoules(), 10.0);
    EXPECT_DOUBLE_EQ(cap.overflowTotal().millijoules(), 2.0);
    EXPECT_DOUBLE_EQ(cap.fillFraction(), 1.0);
}

TEST(SuperCapacitor, TryDischargeAtomicity)
{
    const SuperCapacitor::Config cfg{10.0_mJ, 5.0_mJ, Power::zero()};
    SuperCapacitor::State state = SuperCapacitor::initialState(cfg);
    CapacitorView cap(cfg, state);
    EXPECT_FALSE(cap.tryDischarge(6.0_mJ));
    EXPECT_DOUBLE_EQ(cap.stored().millijoules(), 5.0);
    EXPECT_TRUE(cap.tryDischarge(5.0_mJ));
    EXPECT_DOUBLE_EQ(cap.stored().millijoules(), 0.0);
}

TEST(SuperCapacitor, DrainPartial)
{
    const SuperCapacitor::Config cfg{10.0_mJ, 3.0_mJ, Power::zero()};
    SuperCapacitor::State state = SuperCapacitor::initialState(cfg);
    CapacitorView cap(cfg, state);
    EXPECT_DOUBLE_EQ(cap.drain(5.0_mJ).millijoules(), 3.0);
    EXPECT_DOUBLE_EQ(cap.stored().joules(), 0.0);
}

TEST(SuperCapacitor, LeakageBounded)
{
    const SuperCapacitor::Config cfg{10.0_mJ, 1.0_mJ,
                                     Power::fromMilliwatts(1.0)};
    SuperCapacitor::State state = SuperCapacitor::initialState(cfg);
    CapacitorView cap(cfg, state);
    cap.leak(10 * kSec); // would leak 10 mJ, only 1 stored
    EXPECT_DOUBLE_EQ(cap.stored().joules(), 0.0);
    EXPECT_DOUBLE_EQ(cap.leakedTotal().millijoules(), 1.0);
}

TEST(SuperCapacitor, AccountingConsistent)
{
    const SuperCapacitor::Config cfg{100.0_mJ, 0.0_mJ,
                                     Power::fromMicrowatts(10.0)};
    SuperCapacitor::State state = SuperCapacitor::initialState(cfg);
    CapacitorView cap(cfg, state);
    cap.charge(60.0_mJ);
    cap.tryDischarge(20.0_mJ);
    cap.leak(kSec);
    const double expect_stored = 60.0 - 20.0 - 0.01;
    EXPECT_NEAR(cap.stored().millijoules(), expect_stored, 1e-9);
    EXPECT_NEAR(cap.chargedTotal().millijoules(), 60.0, 1e-12);
    EXPECT_NEAR(cap.dischargedTotal().millijoules(), 20.0, 1e-12);
}

TEST(SuperCapacitor, BadConfigsRejected)
{
    EXPECT_THROW(SuperCapacitor::initialState(
                     {Energy::zero(), Energy::zero(), Power::zero()}),
                 FatalError);
    EXPECT_THROW(SuperCapacitor::initialState(
                     {1.0_mJ, 2.0_mJ, Power::zero()}),
                 FatalError);
}

// A capacitor's State archives as the five Energy records snapshot
// files carry, in their fixed order (not the struct's member order),
// and loading restores every cell exactly; a view bound to the loaded
// State reads the restored values.
TEST(CapacitorState, ArchiveKeepsEnergyWireEncoding)
{
    const SuperCapacitor::Config cfg{10.0_mJ, 0.0_mJ, Power::zero()};
    // Member order: stored, charged, overflow, leaked, discharged.
    const double cells[5] = {0.1 + 0.2, 1.0 / 3.0, 0.0, 5e-324, 0.007};
    SuperCapacitor::State state;
    Energy *const members[5] = {&state.stored, &state.chargedTotal,
                                &state.overflowTotal, &state.leakedTotal,
                                &state.dischargedTotal};
    for (int i = 0; i < 5; ++i)
        *members[i] = Energy::fromJoules(cells[i]);
    snapshot::OutArchive from_state;
    from_state.io("cap", state);
    const std::string blob = from_state.take();

    snapshot::OutArchive wire;
    wire.pushScope("cap");
    const char *keys[] = {"stored", "overflow_total", "leaked_total",
                          "charged_total", "discharged_total"};
    const int cell_of_key[] = {0, 2, 3, 1, 4};
    for (int k = 0; k < 5; ++k) {
        Energy e = Energy::fromJoules(cells[cell_of_key[k]]);
        wire.io(keys[k], e);
    }
    EXPECT_EQ(blob, wire.take());

    SuperCapacitor::State back;
    back.stored = back.chargedTotal = back.overflowTotal =
        back.leakedTotal = back.dischargedTotal = Energy::fromJoules(-1.0);
    snapshot::InArchive in{std::string_view(blob)};
    in.io("cap", back);
    EXPECT_TRUE(in.atEnd());
    const CapacitorView loaded(cfg, back);
    const double restored[5] = {
        loaded.stored().joules(), loaded.chargedTotal().joules(),
        loaded.overflowTotal().joules(), loaded.leakedTotal().joules(),
        loaded.dischargedTotal().joules()};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(snapshot::doubleBits(restored[i]),
                  snapshot::doubleBits(cells[i]))
            << "cell " << i;
}

TEST(FrontEnd, NosRoundTripLossy)
{
    const FrontEnd fe = FrontEnd::makeNos();
    const Energy banked = fe.incomeToCap(100.0_mJ);
    // 0.8 harvest x 0.7 charge = 56 mJ banked.
    EXPECT_NEAR(banked.millijoules(), 56.0, 1e-9);
    // Delivering 56 mJ at the load needs 56/0.85 from the cap.
    EXPECT_NEAR(fe.capCostForLoad(banked).millijoules(), 56.0 / 0.85,
                1e-9);
    // NOS has no direct channel.
    EXPECT_DOUBLE_EQ(fe.incomeToLoadDirect(100.0_mJ).joules(), 0.0);
}

TEST(FrontEnd, FiosDirectChannel)
{
    const FrontEnd fe = FrontEnd::makeFios();
    EXPECT_NEAR(fe.incomeToLoadDirect(100.0_mJ).millijoules(),
                100.0 * 0.8 * 0.9, 1e-9);
}

TEST(FrontEnd, DirectAdvantageInPaperRange)
{
    // The paper cites 2.2x-5x forward-progress benefit for FIOS; the
    // steady-state front-end component of that is direct/roundtrip.
    const FrontEnd fe = FrontEnd::makeFios();
    EXPECT_GT(fe.directAdvantage(), 1.2);
    EXPECT_LT(fe.directAdvantage(), 5.0);
}

TEST(FrontEnd, RejectsBadEfficiency)
{
    FrontEnd::Config cfg;
    cfg.harvestEfficiency = 0.0;
    EXPECT_THROW(FrontEnd{cfg}, FatalError);
    cfg.harvestEfficiency = 1.5;
    EXPECT_THROW(FrontEnd{cfg}, FatalError);
}

} // namespace
} // namespace neofog
