/**
 * @file
 * Lightweight statistics package: monotonic counters, running scalar
 * summaries and (tick, value) time series.  Components own their stat
 * objects; SystemReport's metric registry (sim/metrics.hh) names what
 * a run reports.
 */

#ifndef NEOFOG_SIM_STATS_HH
#define NEOFOG_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace neofog {

/** Monotonic event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

    /** Snapshot support (see src/snapshot/). */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("value", _value);
    }

  private:
    std::uint64_t _value = 0;
};

/**
 * Running scalar summary: count / sum / min / max / mean / variance
 * (Welford's online algorithm).
 */
class ScalarStat
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _mean : 0.0; }
    double variance() const;
    double stddev() const;
    void reset();

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
};

/**
 * A (tick, value) series, e.g. a node's stored energy over time.
 */
class TimeSeries
{
  public:
    struct Point
    {
        Tick when;
        double value;
    };

    void record(Tick when, double value) { _points.push_back({when, value}); }
    const std::vector<Point> &points() const { return _points; }

    /**
     * Downsample to at most @p max_points by keeping every k-th point
     * and the final point, which replaces the last kept one when those
     * already fill @p max_points.  Used when printing figures.
     */
    std::vector<Point> downsampled(std::size_t max_points) const;

  private:
    std::vector<Point> _points;
};

} // namespace neofog

#endif // NEOFOG_SIM_STATS_HH
