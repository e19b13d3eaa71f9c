/**
 * @file
 * Tests for the extension modules: trace I/O and incidental
 * computing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "energy/power_trace.hh"
#include "energy/trace_io.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "node/node.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

// ---------------------------------------------------------------------
// Trace I/O
// ---------------------------------------------------------------------

TEST(TraceIo, ParsesCsvWithHeaderAndComments)
{
    std::istringstream in(
        "# measured on the roof\n"
        "time_s,power_mw\n"
        "0,1.5\n"
        "10.0,3.0\n"
        "20,0.5\n");
    auto trace = readCsvTrace(in);
    EXPECT_DOUBLE_EQ(trace->at(0).milliwatts(), 1.5);
    EXPECT_DOUBLE_EQ(trace->at(15 * kSec).milliwatts(), 3.0);
    EXPECT_DOUBLE_EQ(trace->at(100 * kSec).milliwatts(), 0.5);
}

TEST(TraceIo, RejectsMalformedRows)
{
    std::istringstream bad1("0,abc\n");
    EXPECT_THROW(readCsvTrace(bad1), FatalError);
    std::istringstream bad2("0\n");
    EXPECT_THROW(readCsvTrace(bad2), FatalError);
    std::istringstream bad3("10,1\n5,1\n"); // time backwards
    EXPECT_THROW(readCsvTrace(bad3), FatalError);
    std::istringstream bad4("");
    EXPECT_THROW(readCsvTrace(bad4), FatalError);
    std::istringstream bad5("0,-1\n");
    EXPECT_THROW(readCsvTrace(bad5), FatalError);
}

TEST(TraceIo, WriteReadRoundTrip)
{
    ConstantTrace source(2.25_mW);
    std::ostringstream out;
    writeCsvTrace(source, 10 * kSec, kSec, out);
    std::istringstream in(out.str());
    auto loaded = readCsvTrace(in);
    for (Tick t = 0; t < 10 * kSec; t += 500 * kMs)
        EXPECT_NEAR(loaded->at(t).milliwatts(), 2.25, 1e-9);
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = "/tmp/neofog_test_trace.csv";
    Rng rng(4);
    auto trace = traces::makeForestTrace(rng, 5 * kMin, 2.0_mW);
    saveCsvTrace(*trace, 5 * kMin, 10 * kSec, path);
    auto loaded = loadCsvTrace(path);
    // The sampled trace approximates the original's energy.
    const double orig = trace->integrate(0, 5 * kMin).millijoules();
    const double back = loaded->integrate(0, 5 * kMin).millijoules();
    EXPECT_NEAR(back, orig, orig * 0.1 + 1.0);
    EXPECT_THROW(loadCsvTrace("/nonexistent/nope.csv"), FatalError);
}

TEST(InterpolatedTrace, LinearBetweenKnots)
{
    InterpolatedTrace trace({{0, 1.0_mW}, {10 * kSec, 3.0_mW}});
    EXPECT_DOUBLE_EQ(trace.at(0).milliwatts(), 1.0);
    EXPECT_DOUBLE_EQ(trace.at(5 * kSec).milliwatts(), 2.0);
    EXPECT_DOUBLE_EQ(trace.at(10 * kSec).milliwatts(), 3.0);
    // Boundary values hold outside the knots.
    EXPECT_DOUBLE_EQ(trace.at(-5).milliwatts(), 1.0);
    EXPECT_DOUBLE_EQ(trace.at(100 * kSec).milliwatts(), 3.0);
}

TEST(InterpolatedTrace, ExactTrapezoidIntegral)
{
    InterpolatedTrace trace({{0, 0.0_mW}, {10 * kSec, 10.0_mW}});
    // Triangle: 0.5 * 10 mW * 10 s = 50 mJ.
    EXPECT_NEAR(trace.integrate(0, 10 * kSec).millijoules(), 50.0,
                1e-9);
    // Sub-interval [2, 6]: average of 2 and 6 mW over 4 s = 16 mJ.
    EXPECT_NEAR(trace.integrate(2 * kSec, 6 * kSec).millijoules(),
                16.0, 1e-9);
}

TEST(InterpolatedTrace, IntegralAdditive)
{
    InterpolatedTrace trace(
        {{0, 1.0_mW}, {kSec, 5.0_mW}, {3 * kSec, 2.0_mW}});
    const double whole = trace.integrate(0, 4 * kSec).joules();
    const double split = trace.integrate(0, 2500 * kMs).joules() +
                         trace.integrate(2500 * kMs, 4 * kSec).joules();
    EXPECT_NEAR(split, whole, 1e-15);
}

TEST(InterpolatedTrace, RejectsBadKnots)
{
    EXPECT_THROW(InterpolatedTrace({}), FatalError);
    EXPECT_THROW(InterpolatedTrace({{10, 1.0_mW}, {10, 2.0_mW}}),
                 FatalError);
}

TEST(TraceIo, InterpolatedCsvSmoothsSteps)
{
    std::istringstream in("0,0\n60,6.0\n120,0\n");
    auto trace = readCsvTraceInterpolated(in);
    // Halfway up the ramp.
    EXPECT_NEAR(trace->at(30 * kSec).milliwatts(), 3.0, 1e-9);
    // Total energy: two triangles = 6 mW * 60 s = 360 mJ.
    EXPECT_NEAR(trace->integrate(0, 120 * kSec).millijoules(), 360.0,
                1e-6);
}

// ---------------------------------------------------------------------
// Incidental computing
// ---------------------------------------------------------------------

TEST(Incidental, DisabledByDefault)
{
    Node::Config cfg = presets::systemNodeTemplate();
    auto node = Node(cfg, std::make_unique<ConstantTrace>(1.0_mW));
    node.beginSlot(0, 12 * kSec);
    EXPECT_FALSE(node.canCompleteIncidental());
    node.tryWake();
    EXPECT_EQ(node.executeIncidentalTasks(1), 0);
}

TEST(Incidental, CheaperThanFullTask)
{
    Node::Config cfg = presets::systemNodeTemplate();
    cfg.enableIncidentalComputing = true;
    auto node = Node(cfg, std::make_unique<ConstantTrace>(1.0_mW));
    node.beginSlot(0, 12 * kSec);
    EXPECT_LT(node.incidentalTaskCost().joules(),
              0.25 * node.taskCost().joules());
}

TEST(Incidental, SummarizesWhenFullTaskUnaffordable)
{
    Node::Config cfg = presets::systemNodeTemplate();
    cfg.enableIncidentalComputing = true;
    cfg.cap.initial = Energy::fromMillijoules(25.0);
    auto node = Node(cfg, std::make_unique<ConstantTrace>(
                              Power::fromMicrowatts(200.0)));
    node.beginSlot(0, 12 * kSec);
    ASSERT_TRUE(node.tryWake());
    ASSERT_TRUE(node.samplePackage());
    EXPECT_FALSE(node.canCompleteOnePackage());
    ASSERT_TRUE(node.canCompleteIncidental());
    EXPECT_EQ(node.executeIncidentalTasks(1), 1);
    EXPECT_EQ(node.pendingPackages(), 0);
    EXPECT_EQ(node.stats().incidentalTasks.value(), 1u);
}

TEST(Incidental, SystemRecoversDiscardedSamples)
{
    auto mk = [](bool enabled) {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 1);
        cfg.horizon = 2 * kHour;
        cfg.nodeTemplate.enableIncidentalComputing = enabled;
        return cfg;
    };
    const SystemReport off = FogSystem(mk(false)).run();
    const SystemReport on = FogSystem(mk(true)).run();
    EXPECT_EQ(off.packagesIncidental, 0u);
    EXPECT_GT(on.packagesIncidental, 0u);
    // Useful output (full + incidental) strictly improves.
    EXPECT_GT(on.packagesInFog + on.packagesIncidental,
              off.packagesInFog + off.packagesIncidental);
}

} // namespace
} // namespace neofog
