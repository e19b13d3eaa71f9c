/**
 * @file
 * Tests for the intermittent-execution simulator: behaviour checks,
 * plus literal pins of the stepped loop — the A1 forward-progress
 * table and a trace x processor/front-end matrix.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "energy/power_trace.hh"
#include "node/intermittent.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

TEST(Intermittent, RejectsBadConfig)
{
    const Processor nvp = Processor::nosNvp();
    ConstantTrace trace(1.0_mW);
    IntermittentExecution::Config cfg;
    cfg.onThreshold = 10.0_uJ;
    cfg.offThreshold = 20.0_uJ;
    EXPECT_THROW(
        IntermittentExecution::run(nvp, trace, kSec, cfg), FatalError);

    IntermittentExecution::Config cfg2;
    cfg2.step = 0;
    EXPECT_THROW(
        IntermittentExecution::run(nvp, trace, kSec, cfg2), FatalError);
}

TEST(Intermittent, RejectsZeroTaskSegment)
{
    // A zero segment can never be committed: the VP commit loop
    // would subtract 0 forever instead of finishing the run.
    const Processor vp = Processor::volatileMcu();
    ConstantTrace trace(2.0_mW);
    IntermittentExecution::Config cfg;
    cfg.taskSegmentInstructions = 0;
    EXPECT_THROW(IntermittentExecution::run(vp, trace, 10 * kSec, cfg),
                 FatalError);
}

TEST(Intermittent, NoPowerNoProgress)
{
    const Processor nvp = Processor::nosNvp();
    ConstantTrace dark(Power::zero());
    const auto r = IntermittentExecution::run(nvp, dark, 10 * kSec);
    EXPECT_EQ(r.instructionsCompleted, 0u);
    EXPECT_EQ(r.powerCycles, 0);
    EXPECT_DOUBLE_EQ(r.harvested.joules(), 0.0);
}

TEST(Intermittent, AmplePowerRunsContinuously)
{
    const Processor nvp = Processor::nosNvp();
    ConstantTrace bright(10.0_mW);
    const auto r = IntermittentExecution::run(nvp, bright, 10 * kSec);
    // ~83333 instructions/s at 1 MHz / 12 cpi, minus the charge-up lag.
    EXPECT_GT(r.instructionsCompleted, 700'000u);
    EXPECT_LE(r.powerCycles, 1);
    EXPECT_EQ(r.instructionsWasted, 0u);
}

TEST(Intermittent, StarvedPowerCyclesRepeatedly)
{
    const Processor nvp = Processor::nosNvp();
    // Income below the processor draw: classic charge-run-die cycling.
    ConstantTrace trickle(Power::fromMicrowatts(60.0));
    const auto r = IntermittentExecution::run(nvp, trickle, 5 * kMin);
    EXPECT_GT(r.powerCycles, 5);
    EXPECT_GT(r.instructionsCompleted, 0u);
}

TEST(Intermittent, NvpNeverWastesInstructions)
{
    const Processor nvp = Processor::nosNvp();
    ConstantTrace trickle(Power::fromMicrowatts(80.0));
    const auto r = IntermittentExecution::run(nvp, trickle, 5 * kMin);
    EXPECT_EQ(r.instructionsWasted, 0u);
}

TEST(Intermittent, VpWastesUncommittedWork)
{
    const Processor vp = Processor::volatileMcu();
    ConstantTrace trickle(Power::fromMicrowatts(80.0));
    IntermittentExecution::Config cfg;
    cfg.taskSegmentInstructions = 1'000'000; // huge segments
    const auto r =
        IntermittentExecution::run(vp, trickle, 5 * kMin, cfg);
    // Segments never complete within one on-period: everything wasted.
    EXPECT_EQ(r.instructionsCompleted, 0u);
    EXPECT_GT(r.instructionsWasted, 0u);
}

TEST(Intermittent, SmallerSegmentsWasteLess)
{
    const Processor vp = Processor::volatileMcu();
    ConstantTrace trickle(Power::fromMicrowatts(80.0));
    IntermittentExecution::Config small;
    small.taskSegmentInstructions = 1'000;
    IntermittentExecution::Config large;
    large.taskSegmentInstructions = 200'000;
    const auto rs =
        IntermittentExecution::run(vp, trickle, 5 * kMin, small);
    const auto rl =
        IntermittentExecution::run(vp, trickle, 5 * kMin, large);
    EXPECT_GE(rs.instructionsCompleted, rl.instructionsCompleted);
}

TEST(Intermittent, ProgressRatioInPaperBandUnderHarvesting)
{
    Rng rng(17);
    auto trace = traces::makeForestTrace(rng, 10 * kMin,
                                         Power::fromMilliwatts(0.1));
    const double ratio =
        IntermittentExecution::progressRatio(*trace, 10 * kMin);
    EXPECT_GE(ratio, 1.8);
    EXPECT_LE(ratio, 6.0);
}

TEST(Intermittent, AdvantageShrinksWithAmplePower)
{
    Rng rng(17);
    auto weak = traces::makeForestTrace(rng, 10 * kMin,
                                        Power::fromMilliwatts(0.1));
    Rng rng2(17);
    auto strong = traces::makeForestTrace(rng2, 10 * kMin,
                                          Power::fromMilliwatts(2.0));
    const double weak_ratio =
        IntermittentExecution::progressRatio(*weak, 10 * kMin);
    const double strong_ratio =
        IntermittentExecution::progressRatio(*strong, 10 * kMin);
    EXPECT_GT(weak_ratio, strong_ratio);
    EXPECT_LT(strong_ratio, 1.8);
}

TEST(Intermittent, EnergyConservation)
{
    const Processor nvp = Processor::nosNvp();
    ConstantTrace trace(0.5_mW);
    const auto r = IntermittentExecution::run(nvp, trace, kMin);
    // Spend cannot exceed harvest (both measured at their own sides;
    // conversion losses only shrink the usable amount).
    EXPECT_LE(r.spent.joules(), r.harvested.joules() + 1e-9);
    EXPECT_NEAR(r.harvested.millijoules(), 0.5 * 60.0, 0.01);
}

TEST(Intermittent, ProgressRateHelper)
{
    IntermittentExecution::Result r;
    r.instructionsCompleted = 50'000;
    EXPECT_DOUBLE_EQ(r.progressRate(10 * kSec), 5'000.0);
}

// ---------------------------------------------------------------------
// Stepped-loop pins
// ---------------------------------------------------------------------

/** Processor + front end of one pinned run. */
enum class Mote
{
    NvpFios, ///< FIOS NV-mote: 7 us restore, dual-channel front end
    NvpNos,  ///< NOS NV-mote: 32 us restore, charge-only front end
    VpNos,   ///< volatile processor behind the NOS front end
};

const char *
moteName(Mote mote)
{
    switch (mote) {
    case Mote::NvpFios: return "NvpFios";
    case Mote::NvpNos: return "NvpNos";
    case Mote::VpNos: return "VpNos";
    }
    return "?";
}

IntermittentExecution::Result
runMote(Mote mote, const PowerTrace &trace, Tick horizon)
{
    IntermittentExecution::Config cfg;
    cfg.frontend = mote == Mote::NvpFios ? FrontEnd::makeFios().config()
                                         : FrontEnd::makeNos().config();
    const Processor cpu = mote == Mote::NvpFios ? Processor::fiosNvp()
                          : mote == Mote::NvpNos ? Processor::nosNvp()
                                                 : Processor::volatileMcu();
    return IntermittentExecution::run(cpu, trace, horizon, cfg);
}

/** A run's outcome, written down from the reference loop. */
struct Pin
{
    int powerCycles;
    std::uint64_t completed;
    std::uint64_t wasted;
    Tick activeTime;
    Tick overheadTime;
    double harvestedJ;
    double spentJ;
};

/** Counters exactly; energies to summation rounding. */
void
expectPinned(const IntermittentExecution::Result &r, const Pin &pin)
{
    EXPECT_EQ(r.powerCycles, pin.powerCycles);
    EXPECT_EQ(r.instructionsCompleted, pin.completed);
    EXPECT_EQ(r.instructionsWasted, pin.wasted);
    EXPECT_EQ(r.activeTime, pin.activeTime);
    EXPECT_EQ(r.overheadTime, pin.overheadTime);
    EXPECT_NEAR(r.harvested.joules(), pin.harvestedJ,
                std::abs(pin.harvestedJ) * 1e-12);
    EXPECT_NEAR(r.spent.joules(), pin.spentJ,
                std::abs(pin.spentJ) * 1e-12);
}

/**
 * The seven income shapes of the matrix: flat, stepped, interpolated
 * and the unit rain stream, then piezo bursts, RF income and the rain
 * stream at mote level.  The first four match the trace-cache tests'
 * set but are built here, so the pins below do not move if that set
 * changes.
 */
std::unique_ptr<PowerTrace>
matrixTrace(std::size_t index, Tick span)
{
    Rng rng(42);
    std::vector<PiecewiseTrace::Segment> segs;
    for (Tick at = 0; at < span + kMin;
         at += ticksFromSeconds(rng.uniform(3.0, 90.0)))
        segs.push_back({at, Power::fromMilliwatts(rng.uniform(0.0, 8.0))});
    std::vector<InterpolatedTrace::Knot> knots;
    for (Tick at = 0; at < span + kMin;
         at += ticksFromSeconds(rng.uniform(20.0, 120.0)))
        knots.push_back({at, Power::fromMilliwatts(rng.uniform(0.0, 5.0))});
    Rng burst_rng(21);
    auto piezo = traces::makePiezoTrace(burst_rng, span, 5.0_mW, 12.0);
    auto rf = traces::makeRfTrace(burst_rng, span, 0.4_mW);
    switch (index) {
    case 0: return std::make_unique<ConstantTrace>(2.6_mW);
    case 1: return std::make_unique<PiecewiseTrace>(segs);
    case 2: return std::make_unique<InterpolatedTrace>(knots);
    case 3: return traces::makeRainUnitStream(7, span + kMin);
    case 4: return piezo;
    case 5: return rf;
    default:
        return std::make_unique<ScaledTrace>(
            0.0026, std::shared_ptr<const PowerTrace>(
                        traces::makeRainUnitStream(13, span)));
    }
}

struct MatrixCase
{
    std::size_t trace;
    Mote mote;
    Pin pin;
};

// Names each case in test listings (and so in ctest).
void
PrintTo(const MatrixCase &c, std::ostream *os)
{
    *os << "Trace" << c.trace << "_" << moteName(c.mote);
}

class SteppedMatrix : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(SteppedMatrix, MatchesPinnedReference)
{
    const Tick horizon = 10 * kMin;
    const MatrixCase &c = GetParam();
    const auto trace = matrixTrace(c.trace, horizon);
    SCOPED_TRACE(trace->describe());
    expectPinned(runMote(c.mote, *trace, horizon), c.pin);
}

// Written down from the stepped loop (10 min horizon, 1 ms steps).
// Traces 4 and 5 power-cycle; the others run continuously once the
// capacitor first reaches the turn-on threshold.
INSTANTIATE_TEST_SUITE_P(
    Traces, SteppedMatrix,
    ::testing::Values(
        MatrixCase{0, Mote::NvpFios, {0, 49779997u, 0u, 599759000, 7,
            1.5599999999867626, 0.12534976372168569}},
        MatrixCase{0, Mote::NvpNos, {0, 49779997u, 0u, 599759000, 32,
            1.5599999999867626, 0.14747025610349299}},
        MatrixCase{0, Mote::VpNos, {0, 49760000u, 19997u, 599759000, 300,
            1.5599999999867626, 0.1476466984705585}},
        MatrixCase{1, Mote::NvpFios, {0, 49722229u, 0u, 599063000, 7,
            3.3516368964227898, 0.12520429972168498}},
        MatrixCase{1, Mote::NvpNos, {0, 49722229u, 0u, 599063000, 32,
            3.3516368964227898, 0.14729912198583942}},
        MatrixCase{1, Mote::VpNos, {0, 49720000u, 2229u, 599063000, 300,
            3.3516368964227898, 0.14747556435290493}},
        MatrixCase{2, Mote::NvpFios, {0, 49766883u, 0u, 599601000, 7,
            1.8688087712677859, 0.12531674172168553}},
        MatrixCase{2, Mote::NvpNos, {0, 49766883u, 0u, 599601000, 32,
            1.8688087712677859, 0.1474314066917268}},
        MatrixCase{2, Mote::VpNos, {0, 49760000u, 6883u, 599601000, 300,
            1.8688087712677859, 0.14760784905879232}},
        MatrixCase{3, Mote::NvpFios, {0, 49799917u, 0u, 599999000, 7,
            596.92548896169183, 0.12539992372168593}},
        MatrixCase{3, Mote::NvpNos, {0, 49799917u, 0u, 599999000, 32,
            596.92548896169183, 0.14752926786820111}},
        MatrixCase{3, Mote::VpNos, {0, 49780000u, 19917u, 599999000, 300,
            596.92548896169183, 0.14770571023526663}},
        MatrixCase{4, Mote::NvpFios, {75, 13795845u, 0u, 166215000, 1282,
            0.12663502385623449, 0.040290424385188719}},
        MatrixCase{4, Mote::NvpNos, {75, 13769119u, 0u, 165893000, 3182,
            0.12663502385623449, 0.04080850033886807}},
        MatrixCase{4, Mote::VpNos, {75, 11720000u, 716056u, 149832000,
            22800, 0.12663502385623449, 0.050258415529507265}},
        MatrixCase{5, Mote::NvpFios, {6, 48421619u, 0u, 583393000, 109,
            0.26262969594394669, 0.12225012890765281}},
        MatrixCase{5, Mote::NvpNos, {40, 43584213u, 0u, 525111000, 1712,
            0.26262969594394669, 0.12912535671455952}},
        MatrixCase{5, Mote::VpNos, {67, 39220000u, 612364u, 479908000,
            20400, 0.26262969594394669, 0.1300059242345927}},
        MatrixCase{6, Mote::NvpFios, {0, 49779582u, 0u, 599754000, 7,
            1.5600000006875323, 0.12534871872168568}},
        MatrixCase{6, Mote::NvpNos, {0, 49779582u, 0u, 599754000, 32,
            1.5600000006875323, 0.14746902669172823}},
        MatrixCase{6, Mote::VpNos, {0, 49760000u, 19582u, 599754000, 300,
            1.5600000006875323, 0.14764546905879375}}));

struct MoteCase
{
    Mote mote;
    Pin pin;
};

void
PrintTo(const MoteCase &c, std::ostream *os)
{
    *os << moteName(c.mote);
}

class PartialFinalStep : public ::testing::TestWithParam<MoteCase>
{
};

// A horizon that is not a whole number of steps ends on a partial
// step, whose income is a partial trapezoid.
TEST_P(PartialFinalStep, MatchesPinnedReference)
{
    const ConstantTrace trace(2.0_mW);
    expectPinned(runMote(GetParam().mote, trace, 90 * kSec + 257),
                 GetParam().pin);
}

INSTANTIATE_TEST_SUITE_P(
    Motes, PartialFinalStep,
    ::testing::Values(
        MoteCase{Mote::NvpFios, {0, 7444021u, 0u, 89687000, 7,
            0.18000051400013869, 0.018744715721168516}},
        MoteCase{Mote::VpNos, {0, 7440000u, 4021u, 89687000, 300,
            0.18000051400013869, 0.022228994941165672}}));

// ---------------------------------------------------------------------
// A1: the §2.2 forward-progress table
// ---------------------------------------------------------------------

/** One row of bench/ablation_forward_progress's table. */
struct A1Row
{
    const char *name;
    std::uint64_t nvpCompleted;
    std::uint64_t vpCompleted;
    std::uint64_t vpWasted;
    int vpCycles;
};

/** Row @p index's power profile, built as the bench builds it. */
std::unique_ptr<PowerTrace>
a1Profile(std::size_t index, Tick horizon)
{
    if (index == 0) {
        Rng rng(11);
        return traces::makePiezoTrace(rng, horizon, 0.5_mW, 30.0);
    }
    if (index == 7)
        return std::make_unique<ConstantTrace>(2.0_mW);
    const double mw[] = {0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
    Rng rng(17);
    return traces::makeForestTrace(rng, horizon,
                                   Power::fromMilliwatts(mw[index - 1]));
}

class A1ForwardProgress : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(A1ForwardProgress, MatchesPinnedTable)
{
    // The A1 table (10 min horizon, default storage): NVP behind FIOS
    // against VP behind NOS.
    static const A1Row kTable[] = {
        {"piezo", 5997497u, 2420000u, 424908u, 46},
        {"forest 0.05 mW", 8322078u, 2520000u, 961103u, 63},
        {"forest 0.10 mW", 20227183u, 7680000u, 1042387u, 105},
        {"forest 0.20 mW", 29698811u, 25740000u, 371136u, 41},
        {"forest 0.50 mW", 35922732u, 30220000u, 455721u, 61},
        {"forest 1.00 mW", 47731806u, 36700000u, 932615u, 77},
        {"forest 2.00 mW", 49688365u, 49680000u, 8365u, 0},
        {"steady 2 mW", 49773938u, 49760000u, 13938u, 0},
    };
    const Tick horizon = 10 * kMin;
    const A1Row &row = kTable[GetParam()];
    SCOPED_TRACE(row.name);
    const auto trace = a1Profile(GetParam(), horizon);
    const auto nv = runMote(Mote::NvpFios, *trace, horizon);
    const auto v = runMote(Mote::VpNos, *trace, horizon);
    EXPECT_EQ(nv.instructionsCompleted, row.nvpCompleted);
    EXPECT_EQ(v.instructionsCompleted, row.vpCompleted);
    EXPECT_EQ(v.instructionsWasted, row.vpWasted);
    EXPECT_EQ(v.powerCycles, row.vpCycles);
}

INSTANTIATE_TEST_SUITE_P(Profiles, A1ForwardProgress,
                         ::testing::Range<std::size_t>(0, 8));

} // namespace
} // namespace neofog
