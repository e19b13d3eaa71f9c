/**
 * @file
 * Prefix-sum energy cache for power traces.
 *
 * The slot hot path integrates each node's trace over every slot
 * window (and every multiplexing gap), so a 5-hour scenario evaluates
 * tens of thousands of trapezoid substeps per node even though the
 * windows tile the horizon.  CumulativeTrace precomputes the canonical
 * fixed-grid prefix sum of trapezoidal energy once — E(k) = energy
 * delivered over [0, k*grid) under the canonical stepped integrator
 * (PowerTrace::integrateStepped) — after which any grid-aligned
 * integrate(from, to) is an O(1) prefix difference and unaligned
 * windows add at most two exact partial-trapezoid edge terms.  The
 * table is built in one sweep that samples the base trace through
 * PowerTrace::sampleGrid, TraceCursor::kBatch grid points per call, and
 * adds each cell's trapezoid() to the running sum: one at()-equivalent
 * evaluation per grid point (one std::sin per point for the rain
 * stream), no division per cell.
 *
 * Numerical contract (tested by tests/test_trace_cache.cpp, spelled
 * out in DESIGN.md):
 *  - prefix values are bit-identical to integrateStepped(0, k*grid);
 *  - windows inside one grid cell are bit-identical to the stepped
 *    reference (both are the same single trapezoid);
 *  - any other window agrees with the stepped reference to within
 *    summation-reassociation rounding (<= 1e-12 relative in practice)
 *    because both sum exactly the same grid cells, merely bracketed
 *    differently.
 *
 * The table is immutable after construction, so one instance is safely
 * shared read-only across all nodes/clones/chains/threads of a
 * scenario (the deployment-wide rain stream is the motivating case).
 */

#ifndef NEOFOG_ENERGY_TRACE_CACHE_HH
#define NEOFOG_ENERGY_TRACE_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/**
 * A trace wrapper answering integrate() from a prefix-sum table.
 */
class CumulativeTrace : public PowerTrace
{
  public:
    /**
     * Build the prefix table for @p base over [0, span).
     *
     * @param base Trace to cache (shared, never mutated).
     * @param span Time range the table covers; integration beyond it
     *        falls back to the canonical stepped integrator.
     * @param grid Cell width of the canonical grid (default 1 s).
     */
    CumulativeTrace(std::shared_ptr<const PowerTrace> base, Tick span,
                    Tick grid = kSec);

    Power at(Tick t) const override { return _base->at(t); }
    Energy integrate(Tick from, Tick to) const override;
    bool hasFastIntegrate() const override { return true; }
    std::string describe() const override;

    const PowerTrace &base() const { return *_base; }
    Tick grid() const { return _grid; }
    /** End of the cached range: cells() * grid(). */
    Tick span() const { return _span; }
    std::size_t cells() const { return _prefix.size() - 1; }
    std::size_t tableBytes() const
    { return _prefix.size() * sizeof(double); }

  private:
    std::shared_ptr<const PowerTrace> _base;
    Tick _grid;
    Tick _span; ///< cells() * grid, >= requested span

    /**
     * _prefix[k] = integrateStepped(0, k*grid) of the base trace, in
     * joules.  Written once by the constructor, read-only afterwards.
     */
    std::vector<double> _prefix;
};

} // namespace neofog

#endif // NEOFOG_ENERGY_TRACE_CACHE_HH
