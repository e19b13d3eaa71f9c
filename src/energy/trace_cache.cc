#include "energy/trace_cache.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace neofog {

CumulativeTrace::CumulativeTrace(std::shared_ptr<const PowerTrace> base,
                                 Tick span, Tick grid)
    : _base(std::move(base)), _grid(grid)
{
    if (!_base)
        fatal("cumulative trace needs a base trace");
    if (_grid <= 0)
        fatal("cumulative trace grid must be positive");
    if (span <= 0)
        fatal("cumulative trace span must be positive");

    // Round the span up to whole cells so every window inside the
    // requested range resolves from the table.
    const auto n =
        static_cast<std::size_t>((span + _grid - 1) / _grid);
    _span = static_cast<Tick>(n) * _grid;

    // One sweep over the grid points, sampled through sampleGrid a
    // batch at a time.  Each cell is the stepped integrator's
    // trapezoid, added to the running sum left to right, so _prefix[k]
    // is bit-identical to integrateStepped(0, k*grid).
    _prefix.resize(n + 1);
    _prefix[0] = 0.0;
    Power samples[TraceCursor::kBatch];
    Power prev = _base->at(0);
    Energy acc = Energy::zero();
    for (std::size_t k = 1; k <= n; k += TraceCursor::kBatch) {
        const std::size_t m = std::min(TraceCursor::kBatch, n + 1 - k);
        _base->sampleGrid(static_cast<Tick>(k) * _grid, _grid, m, samples);
        for (std::size_t i = 0; i < m; ++i) {
            acc += trapezoid(prev, samples[i], _grid);
            prev = samples[i];
            _prefix[k + i] = acc.joules();
        }
    }
}

Energy
CumulativeTrace::integrate(Tick from, Tick to) const
{
    NEOFOG_ASSERT(to >= from, "integrate bounds reversed");
    if (to == from)
        return Energy::zero();
    // Out-of-table ranges (negative time, or past the span) fall back
    // to the canonical reference for the uncovered part.
    if (from < 0 || to > _span) {
        const Tick lo = std::clamp<Tick>(from, 0, _span);
        const Tick hi = std::clamp<Tick>(to, 0, _span);
        Energy total = Energy::zero();
        if (from < lo)
            total += _base->integrateStepped(from, lo, _grid);
        if (lo < hi)
            total += integrate(lo, hi);
        if (hi < to)
            total += _base->integrateStepped(std::max(hi, from), to,
                                             _grid);
        return total;
    }

    const Tick lo_cell = from / _grid;
    const Tick hi_cell = to / _grid;
    if (lo_cell == hi_cell) {
        // Window inside one cell: the same single trapezoid the
        // stepped reference computes — bit-identical to it.
        return trapezoid(_base->at(from), _base->at(to), to - from);
    }

    Energy total = Energy::zero();
    Tick mid_lo = lo_cell * _grid;
    if (mid_lo != from) {
        // Partial edge up to the next grid boundary.
        mid_lo = (lo_cell + 1) * _grid;
        total += trapezoid(_base->at(from), _base->at(mid_lo),
                           mid_lo - from);
    }
    const Tick mid_hi = hi_cell * _grid;
    total += Energy::fromJoules(
        _prefix[static_cast<std::size_t>(mid_hi / _grid)] -
        _prefix[static_cast<std::size_t>(mid_lo / _grid)]);
    if (mid_hi != to)
        total += trapezoid(_base->at(mid_hi), _base->at(to), to - mid_hi);
    return total;
}

std::string
CumulativeTrace::describe() const
{
    std::ostringstream oss;
    oss << "cumulative(" << _base->describe() << ", grid="
        << secondsFromTicks(_grid) << " s, " << cells() << " cells)";
    return oss.str();
}

} // namespace neofog
