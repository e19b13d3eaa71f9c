#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

namespace neofog {

void
ScalarStat::sample(double v)
{
    ++_count;
    _sum += v;
    if (_count == 1) {
        _min = _max = v;
        _mean = v;
        _m2 = 0.0;
        return;
    }
    _min = std::min(_min, v);
    _max = std::max(_max, v);
    const double delta = v - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (v - _mean);
}

double
ScalarStat::variance() const
{
    if (_count < 2)
        return 0.0;
    return _m2 / static_cast<double>(_count - 1);
}

double
ScalarStat::stddev() const
{
    return std::sqrt(variance());
}

void
ScalarStat::reset()
{
    *this = ScalarStat();
}

std::vector<TimeSeries::Point>
TimeSeries::downsampled(std::size_t max_points) const
{
    if (max_points == 0 || _points.size() <= max_points)
        return _points;
    std::vector<Point> out;
    out.reserve(max_points);
    const std::size_t stride =
        (_points.size() + max_points - 1) / max_points;
    for (std::size_t i = 0; i < _points.size(); i += stride)
        out.push_back(_points[i]);
    if (out.back().when != _points.back().when) {
        if (out.size() == max_points)
            out.pop_back();
        out.push_back(_points.back());
    }
    return out;
}

} // namespace neofog
