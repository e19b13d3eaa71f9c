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
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
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

} // namespace
} // namespace neofog
