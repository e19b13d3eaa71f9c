/**
 * @file
 * Odds-and-ends coverage: logging levels, trace descriptions, report
 * printing, scenario helpers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "energy/power_trace.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

TEST(Logging, LevelGateHoldsAndRestores)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    // These must not crash (and are suppressed).
    inform("suppressed ", 42);
    warn("suppressed ", 3.14);
    debugLog("suppressed");
    setLogLevel(before);
}

TEST(Logging, FatalCarriesMessage)
{
    try {
        fatal("bad thing: ", 7, " units");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "bad thing: 7 units");
    }
}

TEST(Traces, DescribeStringsInformative)
{
    ConstantTrace c(2.0_mW);
    EXPECT_NE(c.describe().find("constant"), std::string::npos);

    PiecewiseTrace p({{0, 1.0_mW}});
    EXPECT_NE(p.describe().find("piecewise"), std::string::npos);

    DiurnalSolarTrace d(DiurnalSolarTrace::Config{});
    EXPECT_NE(d.describe().find("diurnal"), std::string::npos);

    Rng rng(1);
    EXPECT_NE(traces::makeForestTrace(rng, kHour, 1.0_mW)
                  ->describe()
                  .find("forest"),
              std::string::npos);
    EXPECT_NE(traces::makeBridgeTrace(2, rng, kHour, 1.0_mW)
                  ->describe()
                  .find("profile 2"),
              std::string::npos);
    EXPECT_NE(ScaledTrace(1.0e-3 * traces::rainNodeGain(rng),
                          traces::makeRainUnitStream(7, kHour))
                  .describe()
                  .find("dependent"),
              std::string::npos);
}

TEST(Report, PrintMentionsEveryHeadlineField)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.horizon = 20 * kMin;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    std::ostringstream oss;
    r.print(oss, "check");
    const std::string out = oss.str();
    for (const char *field :
         {"wakeups", "fog processed", "incidental", "balanced tasks",
          "orphan scans", "rt requests", "relay", "cap overflow",
          "energy: compute"})
        EXPECT_NE(out.find(field), std::string::npos) << field;
}

TEST(Presets, SystemsUnderTestDistinct)
{
    EXPECT_NE(presets::nosVp().label, presets::nosNvpBaseline().label);
    EXPECT_EQ(presets::fiosNeofog().mode, OperatingMode::FiosNvMote);
    EXPECT_EQ(presets::fiosNeofog().balancerPolicy, "distributed");
}

TEST(Presets, FigureScenariosDiffer)
{
    const auto sut = presets::fiosNeofog();
    EXPECT_EQ(presets::fig10(sut, 0).traceKind,
              TraceKind::ForestIndependent);
    EXPECT_EQ(presets::fig11(sut, 0).traceKind,
              TraceKind::BridgeDependent);
    EXPECT_EQ(presets::fig12(sut, 2).multiplexing, 2);
    EXPECT_LT(presets::fig13(sut, 1).meanIncome.watts(),
              presets::fig12(sut, 1).meanIncome.watts());
    EXPECT_EQ(presets::fig9(sut).horizon, 300 * kMin);
}

TEST(Presets, ProfilesChangeSeeds)
{
    const auto sut = presets::fiosNeofog();
    EXPECT_NE(presets::fig10(sut, 0).seed, presets::fig10(sut, 1).seed);
    EXPECT_NE(presets::fig11(sut, 3).seed, presets::fig11(sut, 4).seed);
}

} // namespace
} // namespace neofog
