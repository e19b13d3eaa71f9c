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
RingSeries::reset(std::size_t new_capacity)
{
    _buf.clear();
    _buf.reserve(new_capacity);
    _capacity = new_capacity;
    _head = 0;
    _pushed = 0;
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

void
RingSeries::checkLoaded(const std::string &scope,
                        std::size_t configured) const
{
    if (_capacity != configured)
        fatal("snapshot field '", scope, "capacity' is ", _capacity,
              ", but the probe ring's configured capacity is ",
              configured);
    if (_buf.size() > _capacity)
        fatal("snapshot field '", scope, "buf' holds ", _buf.size(),
              " samples, more than the ring's capacity of ", _capacity);
    if (_pushed < _buf.size())
        fatal("snapshot field '", scope, "pushed' is ", _pushed,
              ", fewer than the ", _buf.size(), " samples held");
    if (_head == 0)
        return;
    if (_buf.size() < _capacity)
        fatal("snapshot field '", scope, "head' is ", _head,
              ", but a ring holding ", _buf.size(), " of ", _capacity,
              " samples has not wrapped yet");
    if (_head >= _capacity)
        fatal("snapshot field '", scope, "head' is ", _head,
              ", past the ring's capacity of ", _capacity);
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

bool
RingSeries::operator==(const RingSeries &other) const
{
    if (_pushed != other._pushed || _buf.size() != other._buf.size())
        return false;
    const auto a = snapshot();
    const auto b = other.snapshot();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].when != b[i].when || a[i].value != b[i].value)
            return false;
    }
    return true;
}

} // namespace neofog
