/**
 * @file
 * Property tests for the prefix-sum energy-trace cache (ctest label:
 * perf).
 *
 * The numerical contract under test (see DESIGN.md):
 *  - CumulativeTrace prefix cells are bit-identical to the canonical
 *    stepped integrator run from 0;
 *  - grid-aligned windows are exact prefix differences;
 *  - windows inside a single grid cell are bit-identical to the
 *    stepped integrator (same single trapezoid);
 *  - all other windows agree with the stepped reference to <= 1e-12
 *    relative.
 *
 * The sampler tests pin TraceCursor, integrateStepped and the prefix
 * table against an independent per-point loop (referenceStepped): a
 * division, an at() call and a trapezoid per cell, so a change to the
 * cursor's batching cannot hide behind integrateStepped, which runs the
 * cursor itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "energy/trace_cache.hh"
#include "sim/rng.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

/** Relative (or tiny-absolute near zero) agreement check. */
void
expectRelNear(double got, double want, double rel, const char *what)
{
    const double tol = std::max(std::abs(want) * rel, 1e-18);
    EXPECT_NEAR(got, want, tol) << what;
}

/**
 * The trace set the cache must serve: flat, stepped, interpolated, and
 * the deployment-wide rain stream (spells x diurnal envelope).
 */
std::vector<std::shared_ptr<const PowerTrace>>
cacheTraceSet(Tick span)
{
    std::vector<std::shared_ptr<const PowerTrace>> set;
    set.push_back(std::make_shared<ConstantTrace>(2.6_mW));
    Rng rng(42);
    std::vector<PiecewiseTrace::Segment> segs;
    Tick at = 0;
    while (at < span + kMin) {
        segs.push_back({at, Power::fromMilliwatts(rng.uniform(0.0, 8.0))});
        at += ticksFromSeconds(rng.uniform(3.0, 90.0));
    }
    set.push_back(std::make_shared<PiecewiseTrace>(segs));
    std::vector<InterpolatedTrace::Knot> knots;
    at = 0;
    while (at < span + kMin) {
        knots.push_back(
            {at, Power::fromMilliwatts(rng.uniform(0.0, 5.0))});
        at += ticksFromSeconds(rng.uniform(20.0, 120.0));
    }
    set.push_back(std::make_shared<InterpolatedTrace>(knots));
    set.push_back(std::shared_ptr<const PowerTrace>(
        traces::makeRainUnitStream(7, span + kMin)));
    return set;
}

/**
 * Prefix table built independently of CumulativeTrace: each cell is
 * one aligned-window stepped integral, accumulated left to right —
 * the definition the cache's table must match bit for bit.
 */
std::vector<double>
referencePrefix(const PowerTrace &trace, Tick span, Tick grid)
{
    const auto cells = static_cast<std::size_t>((span + grid - 1) / grid);
    std::vector<double> prefix(cells + 1, 0.0);
    Energy acc = Energy::zero();
    for (std::size_t k = 1; k <= cells; ++k) {
        acc += trace.integrateStepped(static_cast<Tick>(k - 1) * grid,
                                      static_cast<Tick>(k) * grid, grid);
        prefix[k] = acc.joules();
    }
    return prefix;
}

TEST(CumulativeTrace, TenThousandRandomWindowsPerTraceType)
{
    const Tick span = 30 * kMin;
    Rng rng(99);
    for (const auto &base : cacheTraceSet(span)) {
        const CumulativeTrace cache(base, span);
        ASSERT_EQ(cache.grid(), kSec);
        const std::vector<double> prefix =
            referencePrefix(*base, span, cache.grid());
        ASSERT_EQ(cache.cells() + 1, prefix.size());

        for (int i = 0; i < 10'000; ++i) {
            Tick from;
            Tick to;
            if (i % 4 == 0) {
                // Grid-aligned window: exact prefix difference.
                const auto a = static_cast<Tick>(rng.uniform() *
                                                 (span / kSec));
                const auto b = static_cast<Tick>(rng.uniform() *
                                                 (span / kSec));
                from = std::min(a, b) * kSec;
                to = std::max(a, b) * kSec;
                EXPECT_EQ(cache.integrate(from, to).joules(),
                          prefix[to / kSec] - prefix[from / kSec])
                    << base->describe() << " [" << from << ", " << to
                    << ")";
                continue;
            }
            // Unaligned window (length-capped so 10k windows stay
            // cheap against the stepped reference).
            from = static_cast<Tick>(rng.uniform() * (span - 600 * kSec));
            to = from + static_cast<Tick>(rng.uniform() * (600.0 * kSec));
            const double got = cache.integrate(from, to).joules();
            const double want =
                base->integrateStepped(from, to).joules();
            if (from / kSec == (to - (to > from ? 1 : 0)) / kSec) {
                // Same grid cell: identical single trapezoid.
                EXPECT_EQ(got, want) << base->describe();
            } else {
                expectRelNear(got, want, 1e-12, base->describe().c_str());
            }
        }

        // Full-span and degenerate windows.
        EXPECT_EQ(cache.integrate(0, span).joules(),
                  prefix[span / kSec]);
        EXPECT_EQ(cache.integrate(span / 2, span / 2).joules(), 0.0);
    }
}

TEST(CumulativeTrace, OutOfRangeWindowsFallBackToReference)
{
    const Tick span = 10 * kMin;
    const auto base = std::make_shared<ConstantTrace>(3.0_mW);
    const CumulativeTrace cache(base, span);
    // Tail past the table still integrates correctly.
    expectRelNear(cache.integrate(span - kSec, span + 5 * kSec).joules(),
                  base->integrateStepped(span - kSec, span + 5 * kSec)
                      .joules(),
                  1e-12, "tail window");
    expectRelNear(cache.integrate(0, span + kMin).joules(),
                  base->integrateStepped(0, span + kMin).joules(), 1e-12,
                  "overhang window");
}

TEST(CumulativeTrace, SharedAcrossScaledClones)
{
    // One table, many per-node views — the deployment sharing pattern.
    const Tick span = 20 * kMin;
    const auto stream = std::shared_ptr<const PowerTrace>(
        traces::makeRainUnitStream(11, span));
    const auto cache = std::make_shared<CumulativeTrace>(stream, span);
    Rng rng(5);
    for (int node = 0; node < 16; ++node) {
        const double gain = traces::rainNodeGain(rng);
        const ScaledTrace view(gain, cache);
        const Tick from = 3 * kSec + node * kSec;
        const Tick to = from + 137 * kSec + node;
        EXPECT_EQ(view.integrate(from, to).joules(),
                  cache->integrate(from, to).joules() * gain);
        EXPECT_TRUE(view.hasFastIntegrate());
    }
}

TEST(TraceCursor, StreamingWindowsMatchStepped)
{
    const Tick span = 15 * kMin;
    for (const auto &base : cacheTraceSet(span)) {
        TraceCursor cursor(*base, 0);
        Energy streamed = Energy::zero();
        Tick at = 0;
        Rng rng(3);
        while (at < span) {
            const Tick to = std::min<Tick>(
                at + ticksFromSeconds(rng.uniform(0.5, 40.0)), span);
            const Energy window = cursor.advance(to);
            // Adjacent windows reuse the boundary sample, yet every
            // window equals the from-scratch stepped integral.
            EXPECT_EQ(window.joules(),
                      base->integrateStepped(at, to).joules())
                << base->describe();
            streamed += window;
            at = to;
        }
        EXPECT_EQ(cursor.position(), span);
        // The window totals associate differently than one continuous
        // accumulation, so the grand total is near, not bit-equal:
        // ~n * eps * sum|cell| over ~1e3 cells.
        expectRelNear(streamed.joules(),
                      base->integrateStepped(0, span).joules(), 1e-10,
                      base->describe().c_str());
    }
}

// ---- The batch sampler against at() and a per-point reference ------

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * The canonical stepped integrator over [from, to) as a per-point
 * loop: one division, one at() call and one trapezoid per cell, summed
 * left to right.  Written out here, independently of TraceCursor and
 * trapezoid().  Returns the running total after each cell.
 */
std::vector<double>
referenceRunningTotals(const PowerTrace &trace, Tick from, Tick to,
                       Tick grid = kSec)
{
    std::vector<double> totals;
    Power sample = trace.at(from);
    Energy total = Energy::zero();
    Tick at = from;
    while (at < to) {
        const Tick next = std::min<Tick>((at / grid + 1) * grid, to);
        const Power cur = trace.at(next);
        total += 0.5 * (sample + cur) * (next - at);
        sample = cur;
        at = next;
        totals.push_back(total.joules());
    }
    return totals;
}

/** The reference integral of [from, to): its last running total. */
double
referenceStepped(const PowerTrace &trace, Tick from, Tick to)
{
    const std::vector<double> totals =
        referenceRunningTotals(trace, from, to);
    return totals.empty() ? 0.0 : totals.back();
}

/** A trace that defines only at(), so the default sampleGrid runs. */
class AtOnlyTrace : public PowerTrace
{
  public:
    Power
    at(Tick t) const override
    {
        return Power::fromMilliwatts(
            2.0 + std::sin(static_cast<double>(t) * 3e-7));
    }

    std::string describe() const override { return "at-only"; }
};

/** Horizon the sampler subjects are generated for: long enough for
 *  several segments of the slowest factory (rain, 20 min mean). */
constexpr Tick kSampledSpan = 2 * kHour;

/** How many of sampledTraceSet()'s traces, first in it, are enveloped
 *  factory traces with segments to find. */
constexpr std::size_t kEnvelopedTraces = 6;

/**
 * The traces whose sampler the cursor uses, plus the default sampler:
 * the forest, bridge (two profiles) and mountain (shaded and sunny)
 * factories and the rain unit stream (the kEnvelopedTraces), then a
 * diurnal envelope whose day ends inside the span, a ScaledTrace over
 * an enveloped trace, a bare PiecewiseTrace and an at()-only trace.
 * The bare trace is zero until its first segment at 30 s, has off-grid
 * starts and two segments starting at one tick (at() takes the later),
 * and holds its last level from 2 min before the span ends.
 */
std::vector<std::shared_ptr<const PowerTrace>>
sampledTraceSet()
{
    std::vector<std::shared_ptr<const PowerTrace>> set;
    Rng rng(2024);
    set.push_back(traces::makeForestTrace(rng, kSampledSpan, 2.6_mW));
    set.push_back(traces::makeBridgeTrace(0, rng, kSampledSpan, 2.6_mW));
    set.push_back(traces::makeBridgeTrace(3, rng, kSampledSpan, 2.6_mW));
    bool shaded = false;
    bool sunny = false;
    for (std::uint64_t seed = 1; seed < 100 && !(shaded && sunny);
         ++seed) {
        Rng site(seed);
        std::shared_ptr<const PowerTrace> trace =
            traces::makeMountainTrace(site, kSampledSpan, 5.0_mW);
        bool &seen = trace->describe() == "mountain-shaded" ? shaded
                                                            : sunny;
        if (!seen)
            set.push_back(std::move(trace));
        seen = true;
    }
    EXPECT_TRUE(shaded && sunny);
    const std::shared_ptr<const PowerTrace> rain(
        traces::makeRainUnitStream(7, kSampledSpan));
    set.push_back(rain);
    DiurnalSolarTrace::Config dusk;
    dusk.peak = 3.0_mW;
    dusk.dayLength = 10 * kMin;
    dusk.sunriseOffset = 8 * kMin; // the day ends at 2 min
    dusk.attenuation = 0.7;
    set.push_back(std::make_shared<DiurnalSolarTrace>(dusk));
    set.push_back(std::make_shared<ScaledTrace>(0.37, rain));
    set.push_back(std::make_shared<PiecewiseTrace>(
        std::vector<PiecewiseTrace::Segment>{
            {30 * kSec, 1.5_mW},
            {95 * kSec + 250, 0.25_mW},
            {95 * kSec + 250, 4.0_mW},
            {7 * kMin, 0.0_mW},
            {41 * kMin + 3, 2.75_mW},
            {kSampledSpan - 2 * kMin, 0.5_mW},
        }));
    set.push_back(std::make_shared<AtOnlyTrace>());
    return set;
}

/**
 * Up to @p count segment starts of @p trace's fast multiplier: a bare
 * PiecewiseTrace's own starts, or else the first ticks at which its
 * level jumps, found by bisection between whole seconds whose samples
 * differ by more than the smooth envelope moves in a second.
 */
std::vector<Tick>
segmentStarts(const PowerTrace &trace, std::size_t count)
{
    if (const auto *bare = dynamic_cast<const PiecewiseTrace *>(&trace)) {
        std::vector<Tick> starts;
        for (const PiecewiseTrace::Segment &s : bare->segments())
            if (starts.size() < count)
                starts.push_back(s.start);
        return starts;
    }
    const auto jumped = [&](Tick a, Tick b) {
        const double pa = trace.at(a).watts();
        const double pb = trace.at(b).watts();
        return pa > 0.0 && std::abs(pb / pa - 1.0) > 1e-3;
    };
    std::vector<Tick> starts;
    for (Tick a = 0; a + kSec <= kSampledSpan && starts.size() < count;
         a += kSec) {
        if (!jumped(a, a + kSec))
            continue;
        Tick lo = a;
        Tick hi = a + kSec; // invariant: jumped(a, hi), !jumped(a, lo)
        while (hi - lo > 1) {
            const Tick mid = lo + (hi - lo) / 2;
            (jumped(a, mid) ? hi : lo) = mid;
        }
        starts.push_back(hi);
    }
    return starts;
}

TEST(TraceSampler, GridMatchesAtBitForBit)
{
    struct Run
    {
        Tick first;
        Tick step;
        std::size_t n;
    };
    const Run runs[] = {
        {0, kSec, 0},                       // empty run
        {0, kSec, 1},                       // one point
        {-90 * kSec, kSec, 200},            // from before the first segment
        {17 * kSec + 333, kSec, 400},       // off-grid first point
        {kSampledSpan - kMin, kSec, 300},   // past the last segment
        {5 * kSec, 7 * kMs, 900},           // finer than the grid
        {0, 37 * kSec, 60},                 // coarser than a segment
    };
    for (const auto &trace : sampledTraceSet()) {
        SCOPED_TRACE(trace->describe());
        std::vector<Tick> firsts;
        for (const Tick start : segmentStarts(*trace, 6))
            for (const Tick d : {Tick{0}, Tick{-1}, Tick{1}, -kSec})
                firsts.push_back(start + d);
        std::vector<Run> all(std::begin(runs), std::end(runs));
        for (const Tick first : firsts)
            all.push_back({first, kSec, 40});
        for (const Run &run : all) {
            std::vector<Power> out(run.n + 1, Power::fromWatts(-7.0));
            trace->sampleGrid(run.first, run.step, run.n, out.data());
            for (std::size_t i = 0; i < run.n; ++i) {
                const Tick t = run.first + static_cast<Tick>(i) * run.step;
                ASSERT_EQ(bitsOf(out[i].watts()),
                          bitsOf(trace->at(t).watts()))
                    << "t = " << t;
            }
            EXPECT_EQ(out[run.n].watts(), -7.0) << "wrote past n";
        }
    }
}

TEST(TraceSampler, EnvelopedFactoriesHaveFindableSegments)
{
    // The segment-start cases above and below need real starts to sit
    // on; the enveloped factories each have several in the span.
    const auto set = sampledTraceSet();
    ASSERT_GE(set.size(), kEnvelopedTraces);
    for (std::size_t i = 0; i < kEnvelopedTraces; ++i)
        EXPECT_GE(segmentStarts(*set[i], 3).size(), 3u)
            << set[i]->describe();
}

TEST(TraceCursor, WindowsMatchPerPointReference)
{
    for (const auto &trace : sampledTraceSet()) {
        SCOPED_TRACE(trace->describe());
        // Adjacent windows from an off-grid start: zero-length, inside
        // one cell, off-grid ends, whole-grid windows, one slot, a
        // mux-3 gap, and runs longer than a sampler batch.
        const Tick lengths[] = {
            0, 300 * kMs, 0, 1700 * kMs, 12 * kSec, 24 * kSec,
            100 * kSec, 7 * kSec + 1, 0, 12 * kSec, 250 * kMs,
            64 * kSec, 33 * kSec - 1, 100 * kSec};
        std::vector<std::pair<Tick, Tick>> chains[3];
        Tick at = 3 * kSec + 417 * kMs;
        for (const Tick len : lengths) {
            chains[0].push_back({at, at + len});
            at += len;
        }
        // Windows that end, then start, exactly on a segment start.
        for (const Tick start : segmentStarts(*trace, 4)) {
            const Tick from = std::max<Tick>(0, start - 40 * kSec - 250);
            chains[1].push_back({from, start});
            chains[1].push_back({start, start + 37 * kSec});
        }
        // Windows past the last segment (and, for the short day, past
        // sunset).
        at = kSampledSpan - 30 * kSec - 5;
        for (const Tick len : {45 * kSec, 100 * kSec, 12 * kSec}) {
            chains[2].push_back({at, at + len});
            at += len;
        }

        for (const auto &windows : chains) {
            std::optional<TraceCursor> cursor;
            for (const auto &[from, to] : windows) {
                if (!cursor || cursor->position() != from)
                    cursor.emplace(*trace, from);
                const double want = referenceStepped(*trace, from, to);
                const double got = cursor->advance(to).joules();
                EXPECT_EQ(bitsOf(got), bitsOf(want))
                    << "[" << from << ", " << to << ")";
                EXPECT_EQ(cursor->position(), to);
                EXPECT_EQ(bitsOf(trace->integrateStepped(from, to).joules()),
                          bitsOf(want))
                    << "[" << from << ", " << to << ")";
            }
        }
    }
}

TEST(CumulativeTrace, PrefixCellsMatchPerPointReference)
{
    std::vector<std::shared_ptr<const PowerTrace>> set =
        sampledTraceSet();
    for (const auto &base : cacheTraceSet(kSampledSpan))
        set.push_back(base);
    for (const auto &base : set) {
        SCOPED_TRACE(base->describe());
        const CumulativeTrace cache(base, kSampledSpan);
        // The reference loop over [0, span), read after every cell:
        // prefix k is integrateStepped(0, k*grid).
        const std::vector<double> totals =
            referenceRunningTotals(*base, 0, cache.span());
        ASSERT_EQ(totals.size(), cache.cells());
        EXPECT_EQ(cache.integrate(0, 0).joules(), 0.0);
        for (std::size_t k = 1; k <= cache.cells(); ++k)
            ASSERT_EQ(bitsOf(cache.integrate(0, static_cast<Tick>(k) * kSec)
                                 .joules()),
                      bitsOf(totals[k - 1]))
                << "cell " << k;
    }
}

} // namespace
} // namespace neofog
