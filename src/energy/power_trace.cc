#include "energy/power_trace.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "sim/logging.hh"

namespace neofog {

Energy
PowerTrace::integrate(Tick from, Tick to) const
{
    return integrateStepped(from, to);
}

void
PowerTrace::sampleGrid(Tick first, Tick step, std::size_t n,
                       Power *out) const
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = at(first + static_cast<Tick>(i) * step);
}

Energy
PowerTrace::integrateStepped(Tick from, Tick to, Tick grid) const
{
    TraceCursor cursor(*this, from, grid);
    return cursor.advance(to);
}

TraceCursor::TraceCursor(const PowerTrace &trace, Tick start, Tick grid)
    : _trace(&trace), _grid(grid), _at(start), _sample(trace.at(start))
{
    NEOFOG_ASSERT(grid > 0, "trace cursor grid must be positive");
    NEOFOG_ASSERT(start >= 0, "trace cursor starts before time zero");
}

Energy
TraceCursor::advance(Tick to)
{
    NEOFOG_ASSERT(to >= _at, "trace cursor cannot move backwards");
    // Trapezoids between absolute grid boundaries (multiples of
    // _grid), with partial cells at unaligned window edges.  Anchoring
    // the substeps to the absolute grid — instead of to `from` — makes
    // every call over the same span sum the same cells, which is what
    // lets CumulativeTrace replace this loop with a prefix difference.
    //
    // The grid boundaries in (_at, to] come in batches: the first cell
    // may start off-grid (its width is then short), every later one is
    // a whole cell.  An off-grid `to` closes the window with one more
    // partial cell.
    Energy total = Energy::zero();
    Tick boundaries = to / _grid - _at / _grid;
    Tick first = (_at / _grid + 1) * _grid;
    Power samples[kBatch];
    while (boundaries > 0) {
        const auto n = static_cast<std::size_t>(
            std::min<Tick>(boundaries, static_cast<Tick>(kBatch)));
        _trace->sampleGrid(first, _grid, n, samples);
        for (std::size_t i = 0; i < n; ++i) {
            const Tick next = first + static_cast<Tick>(i) * _grid;
            total += trapezoid(_sample, samples[i], next - _at);
            _sample = samples[i];
            _at = next;
        }
        boundaries -= static_cast<Tick>(n);
        first = _at + _grid;
    }
    if (_at < to) {
        const Power cur = _trace->at(to);
        total += trapezoid(_sample, cur, to - _at);
        _sample = cur;
        _at = to;
    }
    return total;
}

Energy
ConstantTrace::integrate(Tick from, Tick to) const
{
    NEOFOG_ASSERT(to >= from, "integrate bounds reversed");
    return _level * (to - from);
}

std::string
ConstantTrace::describe() const
{
    std::ostringstream oss;
    oss << "constant(" << _level.milliwatts() << " mW)";
    return oss.str();
}

PiecewiseTrace::PiecewiseTrace(std::vector<Segment> segments)
    : _segments(std::move(segments))
{
    for (std::size_t i = 1; i < _segments.size(); ++i) {
        NEOFOG_ASSERT(_segments[i].start >= _segments[i - 1].start,
                      "piecewise trace segments out of order");
    }
}

std::size_t
PiecewiseTrace::segmentIndex(Tick t) const
{
    // First segment with start > t, minus one.
    auto it = std::upper_bound(
        _segments.begin(), _segments.end(), t,
        [](Tick v, const Segment &s) { return v < s.start; });
    if (it == _segments.begin())
        return static_cast<std::size_t>(-1);
    return static_cast<std::size_t>(it - _segments.begin() - 1);
}

Power
PiecewiseTrace::at(Tick t) const
{
    const std::size_t idx = segmentIndex(t);
    if (idx == static_cast<std::size_t>(-1))
        return Power::zero();
    return _segments[idx].level;
}

Energy
PiecewiseTrace::integrate(Tick from, Tick to) const
{
    NEOFOG_ASSERT(to >= from, "integrate bounds reversed");
    Energy total = Energy::zero();
    Tick t = from;
    while (t < to) {
        const std::size_t idx = segmentIndex(t);
        Tick seg_end = to;
        if (idx == static_cast<std::size_t>(-1)) {
            // Before the first segment: zero power until it starts.
            seg_end = _segments.empty()
                ? to : std::min<Tick>(to, _segments.front().start);
            t = seg_end;
            continue;
        }
        if (idx + 1 < _segments.size())
            seg_end = std::min<Tick>(to, _segments[idx + 1].start);
        total += _segments[idx].level * (seg_end - t);
        t = seg_end;
    }
    return total;
}

std::string
PiecewiseTrace::describe() const
{
    std::ostringstream oss;
    oss << "piecewise(" << _segments.size() << " segments)";
    return oss.str();
}

InterpolatedTrace::InterpolatedTrace(std::vector<Knot> knots)
    : _knots(std::move(knots))
{
    if (_knots.empty())
        fatal("interpolated trace needs at least one knot");
    for (std::size_t i = 1; i < _knots.size(); ++i) {
        if (_knots[i].at <= _knots[i - 1].at)
            fatal("interpolated trace knots must strictly increase");
    }
}

Power
InterpolatedTrace::at(Tick t) const
{
    if (t <= _knots.front().at)
        return _knots.front().level;
    if (t >= _knots.back().at)
        return _knots.back().level;
    // First knot strictly after t.
    auto it = std::upper_bound(
        _knots.begin(), _knots.end(), t,
        [](Tick v, const Knot &k) { return v < k.at; });
    const Knot &hi = *it;
    const Knot &lo = *(it - 1);
    const double frac = static_cast<double>(t - lo.at) /
                        static_cast<double>(hi.at - lo.at);
    return Power::fromWatts(lo.level.watts() +
                            frac * (hi.level.watts() -
                                    lo.level.watts()));
}

Energy
InterpolatedTrace::integrate(Tick from, Tick to) const
{
    NEOFOG_ASSERT(to >= from, "integrate bounds reversed");
    // Piecewise trapezoid between knot boundaries; exact because the
    // trace is piecewise linear.
    Energy total = Energy::zero();
    Tick t = from;
    while (t < to) {
        auto it = std::upper_bound(
            _knots.begin(), _knots.end(), t,
            [](Tick v, const Knot &k) { return v < k.at; });
        Tick seg_end = to;
        if (it != _knots.end())
            seg_end = std::min<Tick>(to, it->at);
        if (seg_end == t)
            seg_end = to; // t sits on the last knot boundary
        total += trapezoid(at(t), at(seg_end), seg_end - t);
        t = seg_end;
    }
    return total;
}

std::string
InterpolatedTrace::describe() const
{
    std::ostringstream oss;
    oss << "interpolated(" << _knots.size() << " knots)";
    return oss.str();
}

namespace {

/**
 * The diurnal envelope of @p cfg at tick @p t: the one copy of its
 * expression, inlined into DiurnalSolarTrace::at, its sampler and the
 * enveloped traces' sampler.
 */
inline Power
envelopeAt(const DiurnalSolarTrace::Config &cfg, Tick t)
{
    const Tick since_sunrise = t + cfg.sunriseOffset;
    if (since_sunrise < 0 || since_sunrise >= cfg.dayLength)
        return Power::zero();
    const double phase = static_cast<double>(since_sunrise) /
                         static_cast<double>(cfg.dayLength);
    const double hump = std::sin(M_PI * phase);
    return cfg.peak * (hump * cfg.attenuation);
}

} // namespace

Power
DiurnalSolarTrace::at(Tick t) const
{
    return envelopeAt(_cfg, t);
}

void
DiurnalSolarTrace::sampleGrid(Tick first, Tick step, std::size_t n,
                              Power *out) const
{
    Tick t = first;
    for (std::size_t i = 0; i < n; ++i, t += step)
        out[i] = envelopeAt(_cfg, t);
}

std::string
DiurnalSolarTrace::describe() const
{
    std::ostringstream oss;
    oss << "diurnal(peak=" << _cfg.peak.milliwatts()
        << " mW, atten=" << _cfg.attenuation << ")";
    return oss.str();
}

ScaledTrace::ScaledTrace(double scale,
                         std::shared_ptr<const PowerTrace> base)
    : _scale(scale), _base(std::move(base))
{
    if (!_base)
        fatal("scaled trace needs a base trace");
}

std::string
ScaledTrace::describe() const
{
    std::ostringstream oss;
    oss << "scaled(x" << _scale << ", " << _base->describe() << ")";
    return oss.str();
}

namespace traces {

namespace {

/**
 * A piecewise trace modulated by a diurnal envelope; used by all the
 * synthetic deployment traces so day shape and fast variation compose.
 */
class EnvelopedTrace : public PowerTrace
{
  public:
    EnvelopedTrace(PiecewiseTrace fast, DiurnalSolarTrace::Config env_cfg,
                   std::string label)
        : _fast(std::move(fast)), _envelope(env_cfg),
          _label(std::move(label))
    {}

    Power
    at(Tick t) const override
    {
        // The fast trace stores relative multipliers encoded as watts;
        // the envelope supplies the physical scale.
        const double mult = _fast.at(t).watts();
        return envelopeAt(_envelope, t) * mult;
    }

    /**
     * at() over a run of points with one segment search: `next` is the
     * first segment starting after the current point, as at()'s
     * upper_bound finds it, and walks forward with the points.  Before
     * the first segment the multiplier is zero; after the last start
     * the last level holds.
     */
    void
    sampleGrid(Tick first, Tick step, std::size_t n,
               Power *out) const override
    {
        const std::vector<PiecewiseTrace::Segment> &segs = _fast.segments();
        auto next = std::upper_bound(
            segs.begin(), segs.end(), first,
            [](Tick v, const PiecewiseTrace::Segment &s) {
                return v < s.start;
            });
        Tick t = first;
        for (std::size_t i = 0; i < n; ++i, t += step) {
            while (next != segs.end() && next->start <= t)
                ++next;
            const double mult =
                next == segs.begin() ? 0.0 : (next - 1)->level.watts();
            out[i] = envelopeAt(_envelope, t) * mult;
        }
    }

    std::string
    describe() const override
    {
        return _label;
    }

  private:
    PiecewiseTrace _fast;
    DiurnalSolarTrace::Config _envelope;
    std::string _label;
};

/** Mean of the diurnal envelope over [0, horizon], as fraction of peak. */
double
envelopeMean(const DiurnalSolarTrace::Config &cfg, Tick horizon)
{
    DiurnalSolarTrace env(cfg);
    const Energy e = env.integrate(0, horizon);
    const double mean_w = e.joules() / secondsFromTicks(horizon);
    return cfg.peak.watts() > 0.0 ? mean_w / cfg.peak.watts() : 0.0;
}

/**
 * Build a piecewise multiplier trace with exponential segment durations
 * and levels drawn by @p draw_level, normalized to mean 1.0.
 */
PiecewiseTrace
randomMultiplierTrace(Rng &rng, Tick horizon, Tick mean_segment,
                      const std::function<double(Rng &)> &draw_level)
{
    std::vector<PiecewiseTrace::Segment> segs;
    Tick t = 0;
    double weighted_sum = 0.0;
    while (t < horizon) {
        const double dur_s =
            rng.exponential(1.0 / secondsFromTicks(mean_segment));
        Tick dur = std::max<Tick>(ticksFromSeconds(dur_s), kSec);
        dur = std::min<Tick>(dur, horizon - t);
        const double level = std::max(0.0, draw_level(rng));
        segs.push_back({t, Power::fromWatts(level)});
        weighted_sum += level * static_cast<double>(dur);
        t += dur;
    }
    // Normalize so the time-weighted mean multiplier is 1.0.
    const double mean = weighted_sum / static_cast<double>(horizon);
    if (mean > 1e-12) {
        for (auto &s : segs)
            s.level = s.level / mean;
    }
    return PiecewiseTrace(std::move(segs));
}

} // namespace

std::unique_ptr<PowerTrace>
makeForestTrace(Rng &rng, Tick horizon, Power mean_level,
                double variance_ratio)
{
    // Bimodal shade/fleck levels: most of the time deep shade, with
    // bright sun flecks as wind moves the canopy.  Segment lengths of a
    // couple of minutes reproduce the paper's "concatenated measured
    // sequences in random order".
    DiurnalSolarTrace::Config env;
    env.peak = Power::fromWatts(1.0); // placeholder, rescaled below
    env.dayLength = 12 * kHour;
    env.sunriseOffset = 3 * kHour + ticksFromSeconds(rng.uniform(0, 600));
    const double env_mean = envelopeMean(env, horizon);
    // Per-node site gain: where a node sits in the canopy dominates its
    // harvest.  Heavy-tailed (log-normal, mean 1) so a tail of nodes is
    // in deep shade and genuinely deplete (the paper's node failures).
    const double site_sigma = 0.85;
    double site_gain = std::exp(site_sigma * rng.normal()) /
                       std::exp(0.5 * site_sigma * site_sigma);
    site_gain = std::clamp(site_gain, 0.02, 6.0);
    env.peak = Power::fromWatts(mean_level.watts() * site_gain /
                                env_mean);

    const double fleck_prob = 0.35;
    auto draw = [fleck_prob, variance_ratio](Rng &r) {
        const bool fleck = r.chance(fleck_prob);
        const double base = fleck ? 1.0 + variance_ratio
                                  : 1.0 - variance_ratio * 0.8;
        return base * (1.0 + 0.25 * r.normal());
    };
    auto fast = randomMultiplierTrace(rng, horizon, 2 * kMin, draw);
    return std::make_unique<EnvelopedTrace>(std::move(fast), env,
                                            "forest-independent");
}

std::unique_ptr<PowerTrace>
makeBridgeTrace(int profile_index, Rng &rng, Tick horizon,
                Power mean_level, double node_variance)
{
    NEOFOG_ASSERT(profile_index >= 0, "bad profile index");
    // The five day profiles differ in cloudiness and morning/afternoon
    // weighting; all nodes of one run share the same profile shape.
    static const double kAttenuation[5] = {1.0, 0.85, 0.7, 0.9, 0.6};
    static const double kOffsetHours[5] = {3.0, 2.0, 4.0, 2.5, 3.5};
    const int p = profile_index % 5;

    DiurnalSolarTrace::Config env;
    env.dayLength = 12 * kHour;
    env.sunriseOffset = ticksFromSeconds(kOffsetHours[p] * 3600.0);
    env.attenuation = kAttenuation[p];
    env.peak = Power::fromWatts(1.0);
    const double env_mean = envelopeMean(env, horizon);
    env.peak = Power::fromWatts(mean_level.watts() / env_mean);

    // Per-node gain: 30% variance around 1.0 (clamped positive), plus a
    // slow cloud-speckle multiplier shared in *shape* across nodes of the
    // same profile but jittered slightly per node.
    const double gain = std::max(0.1, 1.0 + node_variance * rng.normal());
    auto draw = [gain](Rng &r) {
        return gain * (1.0 + 0.08 * r.normal());
    };
    auto fast = randomMultiplierTrace(rng, horizon, 10 * kMin, draw);
    return std::make_unique<EnvelopedTrace>(
        std::move(fast), env,
        "bridge-dependent(profile " + std::to_string(p) + ")");
}

std::unique_ptr<PowerTrace>
makeRainUnitStream(std::uint64_t shared_seed, Tick horizon)
{
    DiurnalSolarTrace::Config env;
    env.dayLength = 12 * kHour;
    env.sunriseOffset = 3 * kHour;
    env.attenuation = 1.0; // scale folded into peak below
    env.peak = Power::fromWatts(1.0);
    const double env_mean = envelopeMean(env, horizon);
    // Normalize so the stream's time-mean over the horizon is ~1 W;
    // ScaledTrace supplies the node's physical mean and gain.
    env.peak = Power::fromWatts(1.0 / env_mean);

    // The rain-spell schedule is *shared*: the same seed yields the
    // same bright/dark pattern for every node of a deployment.  Long
    // dark stretches (heavy rain over everyone) alternate with rare
    // brighter spells.
    Rng shared(shared_seed); // neofog-lint: allow(determinism): the shared weather stream is re-seeded from a scenario-derived value so every node of a deployment sees one rain front
    auto draw = [](Rng &r) {
        const bool spell = r.chance(0.30);
        return (spell ? 2.8 : 0.23) * (1.0 + 0.12 * r.normal());
    };
    auto fast = randomMultiplierTrace(shared, horizon, 20 * kMin, draw);
    return std::make_unique<EnvelopedTrace>(std::move(fast), env,
                                            "rain-low-power-dependent");
}

double
rainNodeGain(Rng &node_rng)
{
    return std::max(0.2, 1.0 + 0.2 * node_rng.normal());
}

std::unique_ptr<PowerTrace>
makeMountainTrace(Rng &rng, Tick horizon, Power mean_sunny,
                  double shade_fraction)
{
    // Aerial dispersion: a node lands in full sun or in grass/shrub
    // shade; shaded nodes harvest a small fraction of the sunny mean.
    const bool shaded = rng.chance(shade_fraction);
    const double site_gain = shaded ? rng.uniform(0.05, 0.35)
                                    : rng.uniform(0.8, 1.6);
    DiurnalSolarTrace::Config env;
    env.dayLength = 12 * kHour;
    env.sunriseOffset = 3 * kHour;
    env.peak = Power::fromWatts(1.0);
    const double env_mean = envelopeMean(env, horizon);
    env.peak =
        Power::fromWatts(mean_sunny.watts() * site_gain / env_mean);

    auto draw = [](Rng &r) { return 1.0 + 0.3 * r.normal(); };
    auto fast = randomMultiplierTrace(rng, horizon, 5 * kMin, draw);
    return std::make_unique<EnvelopedTrace>(
        std::move(fast), env,
        shaded ? "mountain-shaded" : "mountain-sunny");
}

std::unique_ptr<PowerTrace>
makePiezoTrace(Rng &rng, Tick horizon, Power pulse_level,
               double events_per_minute)
{
    NEOFOG_ASSERT(events_per_minute > 0.0, "piezo event rate");
    std::vector<PiecewiseTrace::Segment> segs;
    segs.push_back({0, Power::zero()});
    Tick t = 0;
    while (t < horizon) {
        const double gap_s = rng.exponential(events_per_minute / 60.0);
        t += std::max<Tick>(ticksFromSeconds(gap_s), 10 * kMs);
        if (t >= horizon)
            break;
        const Tick dur = ticksFromMs(rng.uniform(50.0, 400.0));
        segs.push_back({t, pulse_level * rng.uniform(0.5, 1.5)});
        segs.push_back({std::min<Tick>(t + dur, horizon), Power::zero()});
        t += dur;
    }
    return std::make_unique<PiecewiseTrace>(std::move(segs));
}

std::unique_ptr<PowerTrace>
makeRfTrace(Rng &rng, Tick horizon, Power mean_level)
{
    // RF income is steady but subject to multipath fading as the
    // environment changes; model as slow log-normal-ish jitter.
    std::vector<PiecewiseTrace::Segment> segs;
    Tick t = 0;
    while (t < horizon) {
        const double fade = std::exp(0.4 * rng.normal());
        segs.push_back({t, mean_level * fade});
        t += 30 * kSec;
    }
    return std::make_unique<PiecewiseTrace>(std::move(segs));
}

} // namespace traces

} // namespace neofog
