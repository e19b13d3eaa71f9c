/**
 * @file
 * Ambient power income traces.
 *
 * The paper's experiments are driven by measured solar traces (forest
 * deployments for the independent-power study, bridge deployments for the
 * dependent-power study, NREL MIDC data).  Those data sets are not
 * available, so this module reproduces the paper's own generative recipe:
 * per-node traces are synthesized from a day envelope plus either
 * independent random segment concatenation (forest: wind moves leaves, so
 * neighbouring nodes see uncorrelated sun flecks) or a shared base trace
 * with ~30% per-node variance (bridge: all nodes see the same sky).
 */

#ifndef NEOFOG_ENERGY_POWER_TRACE_HH
#define NEOFOG_ENERGY_POWER_TRACE_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/**
 * One cell of the canonical stepped integrator: the trapezoid between
 * samples @p a and @p b over @p width ticks.  TraceCursor's cells,
 * CumulativeTrace's table cells and its edge terms all call this, so
 * the expression (and with it every rounding) exists once.
 */
inline Energy
trapezoid(Power a, Power b, Tick width)
{
    return 0.5 * (a + b) * width;
}

/**
 * Abstract ambient power income as a function of simulated time.
 */
class PowerTrace
{
  public:
    virtual ~PowerTrace() = default;

    /** Instantaneous harvested power at tick @p t. */
    virtual Power at(Tick t) const = 0;

    /**
     * Write at(first + i * step) to out[i] for every i < n (step > 0).
     * The stepped integrator pulls whole runs of grid points through
     * this, so a trace whose at() searches a segment table or pays a
     * virtual call per point can pay them once per run.  The default
     * loops over at(); an override must equal at() bit for bit at
     * every point.
     */
    virtual void sampleGrid(Tick first, Tick step, std::size_t n,
                            Power *out) const;

    /**
     * Energy delivered over [from, to).  The default evaluates the
     * canonical stepped integrator (integrateStepped); analytic traces
     * override this.
     */
    virtual Energy integrate(Tick from, Tick to) const;

    /**
     * The canonical reference integrator: trapezoids over the fixed
     * absolute grid (boundaries at whole multiples of @p grid,
     * partial trapezoids at unaligned window edges), accumulated left
     * to right.  CumulativeTrace prefix tables and the property tests
     * are defined against exactly this scheme.
     */
    Energy integrateStepped(Tick from, Tick to, Tick grid = kSec) const;

    /**
     * Whether integrate() is analytic/O(1) rather than sampled — such
     * traces gain nothing from a prefix-sum cache and callers can skip
     * streaming-cursor bookkeeping for them.
     */
    virtual bool hasFastIntegrate() const { return false; }

    /** Human-readable description for logs and reports. */
    virtual std::string describe() const = 0;
};

/**
 * Streaming evaluator of the canonical stepped integrator, and its only
 * implementation: advancing over adjacent windows reuses the boundary
 * sample the previous window already computed, so a slot sequence
 * samples each grid point exactly once (instead of twice at every
 * window boundary).  Produces values bit-identical to
 * integrateStepped() on the same windows.
 *
 * The grid points a window crosses are sampled through
 * PowerTrace::sampleGrid, up to kBatch per call, and an off-grid window
 * end adds one at() call.  Each cell (partial at an off-grid start or
 * end) is one trapezoid(), summed left to right: the same points, the
 * same per-cell arithmetic and the same order as one at() call per
 * cell, without a division per cell.
 */
class TraceCursor
{
  public:
    /** Grid points sampled per sampleGrid call (a stack buffer). */
    static constexpr std::size_t kBatch = 32;

    explicit TraceCursor(const PowerTrace &trace, Tick start,
                         Tick grid = kSec);

    /** Integrate [position(), to) and move the cursor to @p to. */
    Energy advance(Tick to);

    Tick position() const { return _at; }

  private:
    const PowerTrace *_trace;
    Tick _grid;
    Tick _at;
    Power _sample; ///< trace->at(_at), carried between windows
};

/** Constant power income. */
class ConstantTrace : public PowerTrace
{
  public:
    explicit ConstantTrace(Power level) : _level(level) {}

    Power at(Tick) const override { return _level; }
    Energy integrate(Tick from, Tick to) const override;
    bool hasFastIntegrate() const override { return true; }
    std::string describe() const override;

  private:
    Power _level;
};

/**
 * Piecewise-constant trace: ordered (start tick, power) segments.
 * The value before the first segment is zero; each level holds until
 * the next segment starts.
 */
class PiecewiseTrace : public PowerTrace
{
  public:
    struct Segment
    {
        Tick start;
        Power level;
    };

    explicit PiecewiseTrace(std::vector<Segment> segments);

    Power at(Tick t) const override;
    /** One segment search per run, then a forward walk. */
    void sampleGrid(Tick first, Tick step, std::size_t n,
                    Power *out) const override;
    Energy integrate(Tick from, Tick to) const override;
    bool hasFastIntegrate() const override { return true; }
    std::string describe() const override;

    const std::vector<Segment> &segments() const { return _segments; }

  private:
    /** First segment starting after @p t (end() if none). */
    std::vector<Segment>::const_iterator firstAfter(Tick t) const;
    /** Index of the segment active at t, or npos if before the first. */
    std::size_t segmentIndex(Tick t) const;

    std::vector<Segment> _segments;
};

/**
 * Linearly-interpolating trace over (tick, power) knots — the right
 * playback model for measured data sampled slowly (e.g. one-minute
 * NREL MIDC irradiance averages), where step interpolation would
 * inject artificial power cliffs.  Integration is exact (trapezoid
 * between knots).  Before the first knot and after the last, the
 * boundary value holds.
 */
class InterpolatedTrace : public PowerTrace
{
  public:
    struct Knot
    {
        Tick at;
        Power level;
    };

    explicit InterpolatedTrace(std::vector<Knot> knots);

    Power at(Tick t) const override;
    Energy integrate(Tick from, Tick to) const override;
    bool hasFastIntegrate() const override { return true; }
    std::string describe() const override;

    const std::vector<Knot> &knots() const { return _knots; }

  private:
    std::vector<Knot> _knots;
};

/**
 * Smooth diurnal solar envelope: a clipped sine hump between sunrise and
 * sunset scaled to a peak power, with optional uniform attenuation
 * (cloud cover / rain).  Time 0 is @p sunrise_offset after sunrise, so a
 * 5-hour experiment starting mid-morning uses an offset of a few hours.
 */
class DiurnalSolarTrace : public PowerTrace
{
  public:
    struct Config
    {
        Power peak = Power::fromMilliwatts(80.0);
        Tick dayLength = 12 * kHour; ///< sunrise-to-sunset duration
        Tick sunriseOffset = 3 * kHour; ///< experiment start after sunrise
        double attenuation = 1.0; ///< 1.0 = clear sky, 0.05 = heavy rain
    };

    explicit DiurnalSolarTrace(const Config &cfg) : _cfg(cfg) {}

    Power at(Tick t) const override;
    void sampleGrid(Tick first, Tick step, std::size_t n,
                    Power *out) const override;
    std::string describe() const override;

    const Config &config() const { return _cfg; }

  private:
    Config _cfg;
};

/**
 * A shared base trace multiplied by a per-node scalar gain.  The base
 * is held by shared_ptr and never mutated, so one expensive stream
 * (e.g. the deployment-wide rain front, possibly wrapped in a
 * CumulativeTrace prefix table) can back every node of a scenario
 * while each node keeps its own gain.
 */
class ScaledTrace : public PowerTrace
{
  public:
    ScaledTrace(double scale, std::shared_ptr<const PowerTrace> base);

    Power at(Tick t) const override { return _base->at(t) * _scale; }
    Energy integrate(Tick from, Tick to) const override
    { return _base->integrate(from, to) * _scale; }
    bool hasFastIntegrate() const override
    { return _base->hasFastIntegrate(); }
    std::string describe() const override;

    double scale() const { return _scale; }
    const PowerTrace &base() const { return *_base; }

  private:
    double _scale;
    std::shared_ptr<const PowerTrace> _base;
};

/**
 * Factory helpers that build per-node trace sets for the paper's three
 * deployment scenarios.
 */
namespace traces {

/**
 * Independent "forest" traces (Fig 10): each node's trace is built by
 * concatenating exponentially-distributed constant segments whose levels
 * are drawn from a bimodal shade/sun-fleck distribution, modulated by a
 * shared diurnal envelope.  Traces across nodes are effectively
 * independent (distinct RNG streams).
 *
 * @param rng Stream used to synthesize this node's trace.
 * @param horizon Trace duration to generate.
 * @param mean_level Average power over the horizon (before envelope).
 * @param variance_ratio Relative spread between shade and fleck levels.
 */
std::unique_ptr<PowerTrace> makeForestTrace(Rng &rng, Tick horizon,
                                            Power mean_level,
                                            double variance_ratio = 0.9);

/**
 * Dependent "bridge" traces (Fig 11): all nodes share one of five base
 * day profiles; a node trace is the base profile times a per-node gain
 * with the paper's 30% variance, plus slow per-node jitter.
 *
 * @param profile_index Which of the 5 day profiles (0-4).
 * @param rng Stream for the per-node variance.
 * @param horizon Trace duration.
 * @param mean_level Average power of the base profile.
 */
std::unique_ptr<PowerTrace> makeBridgeTrace(int profile_index, Rng &rng,
                                            Tick horizon, Power mean_level,
                                            double node_variance = 0.3);

/**
 * The deployment-wide stream of the low-power rainy-day scenario
 * (Fig 13): a heavily attenuated *dependent* profile — all nodes of a
 * deployment share the same rain-spell schedule (clouds cover everyone
 * at once), so the shared dark stretches bound total successful
 * sampling and make NVD4Q multiplexing saturate (paper: ~8000 at 3x).
 * It is the spell schedule times the day envelope, normalized so its
 * time-mean over the horizon is 1 W.  Build it once per scenario and
 * wrap each node's trace as ScaledTrace(mean_w * rainNodeGain(rng),
 * stream) — all nodes then share one stream and one prefix table.
 *
 * @param shared_seed Seeds the spell schedule.
 */
std::unique_ptr<PowerTrace> makeRainUnitStream(std::uint64_t shared_seed,
                                               Tick horizon);

/**
 * The per-node gain jitter of the rain deployment (consumes exactly
 * one draw from @p node_rng).
 */
double rainNodeGain(Rng &node_rng);

/**
 * High-variance sunny mountain trace (Fig 12): aerially dispersed nodes;
 * some land in full sun, others in grass/shrub shade, so the per-node
 * mean itself is drawn from a wide distribution.
 */
std::unique_ptr<PowerTrace> makeMountainTrace(Rng &rng, Tick horizon,
                                              Power mean_sunny,
                                              double shade_fraction = 0.4);

/**
 * Bursty piezoelectric harvest: vibration events deliver short pulses.
 */
std::unique_ptr<PowerTrace> makePiezoTrace(Rng &rng, Tick horizon,
                                           Power pulse_level,
                                           double events_per_minute);

/**
 * RF harvesting: near-constant low income with distance-derived level
 * plus multipath fading jitter.
 */
std::unique_ptr<PowerTrace> makeRfTrace(Rng &rng, Tick horizon,
                                        Power mean_level);

} // namespace traces

} // namespace neofog

#endif // NEOFOG_ENERGY_POWER_TRACE_HH
