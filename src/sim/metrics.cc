#include "sim/metrics.hh"

#include "sim/logging.hh"

namespace neofog {

std::string
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::EnergyMj:
        return "gauge-mJ";
      case MetricKind::Ratio:
        return "ratio";
    }
    NEOFOG_PANIC("unknown metric kind");
}

std::string
metricKindUnit(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "";
      case MetricKind::EnergyMj:
        return "mJ";
      case MetricKind::Ratio:
        return "ratio";
    }
    NEOFOG_PANIC("unknown metric kind");
}

void
RingSeries::push(Tick when, double value)
{
    ++_pushed;
    if (_capacity == 0)
        return;
    if (_buf.size() < _capacity) {
        _buf.push_back({when, value});
        return;
    }
    _buf[_head] = {when, value};
    _head = (_head + 1) % _capacity;
}

std::vector<TimeSeries::Point>
RingSeries::snapshot() const
{
    std::vector<TimeSeries::Point> out;
    out.reserve(_buf.size());
    // Once the ring has wrapped, _head is the oldest sample.
    for (std::size_t i = 0; i < _buf.size(); ++i)
        out.push_back(_buf[(_head + i) % _buf.size()]);
    return out;
}

} // namespace neofog
