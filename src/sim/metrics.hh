/**
 * @file
 * Declare-once metric registry and time-series probe primitives.
 *
 * A report struct (e.g. fog/SystemReport) declares each of its metrics
 * exactly once in a MetricRegistry — name, unit kind, merge rule,
 * description, and an accessor — and field-wise merge, exact equality,
 * aligned text printing, JSON/CSV serialization (see sim/report_io.hh),
 * and cross-seed aggregation are all derived from that single list.
 * Adding a metric to a report is a one-line change to its registry.
 *
 * The registry is templated on the report type so this layer stays
 * below fog/: the sim library knows how to iterate metrics, the report
 * type owns which metrics exist.
 *
 * RingSeries is the storage of a host-local probe log (see
 * fog/ChainProbeLog): a fixed-capacity ring buffer a chain engine can
 * feed every slot without unbounded memory growth, exported as
 * CSV/JSON streams through report_io.  It is never restart state, so
 * it has no snapshot support.
 */

#ifndef NEOFOG_SIM_METRICS_HH
#define NEOFOG_SIM_METRICS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace neofog {

/** What a metric measures (and how to format it). */
enum class MetricKind
{
    Counter,  ///< monotonic event count (integral)
    EnergyMj, ///< energy gauge in millijoules
    Ratio,    ///< dimensionless fraction (usually derived)
};

/** Display/serialization name of a metric kind. */
std::string metricKindName(MetricKind kind);

/** Unit suffix of a metric kind ("", "mJ", "ratio"). */
std::string metricKindUnit(MetricKind kind);

/** How a metric combines when shards merge into a run report. */
enum class MergeRule
{
    Sum,    ///< field-wise addition (the default for counters/energy)
    Config, ///< scenario-derived (e.g. ideal packages): left alone
};

/**
 * Type-erased snapshot of one metric: what serializers consume.
 * Derived metrics appear with derived=true so readers know they are
 * recomputable and never parsed back into storage.
 */
struct MetricValue
{
    std::string name;        ///< snake_case key (JSON/CSV)
    std::string label;       ///< human label (text tables)
    MetricKind kind;
    bool integral = false;   ///< stored as uint64 (print/serialize exact)
    bool derived = false;    ///< computed from other metrics
    double value = 0.0;      ///< numeric value (u64 widened for integrals)
    std::uint64_t u64 = 0;   ///< exact value when integral
};

/**
 * One metric of a report: declaration site for everything the
 * observability layer needs to know about it.  Exactly one of
 * u64/f64/fn is set: member counters, member gauges, or a derived
 * function of the whole report.
 */
template <class Report>
struct MetricDef
{
    const char *name;        ///< snake_case key
    const char *label;       ///< text-print label
    MetricKind kind;
    MergeRule mergeRule;
    const char *description;
    std::uint64_t Report::*u64 = nullptr;
    double Report::*f64 = nullptr;
    double (*fn)(const Report &) = nullptr;

    bool derived() const { return fn != nullptr; }
    bool integral() const { return u64 != nullptr; }

    double
    get(const Report &r) const
    {
        if (fn)
            return fn(r);
        if (u64)
            return static_cast<double>(r.*u64);
        return r.*f64;
    }

    /** Exact integral value (valid only when integral()). */
    std::uint64_t getU64(const Report &r) const { return r.*u64; }

    void
    set(Report &r, double v) const
    {
        if (u64)
            r.*u64 = static_cast<std::uint64_t>(v);
        else if (f64)
            r.*f64 = v;
        // derived metrics have no storage
    }

    void
    setU64(Report &r, std::uint64_t v) const
    {
        if (u64)
            r.*u64 = v;
        else if (f64)
            r.*f64 = static_cast<double>(v);
    }
};

/**
 * The declare-once list of a report's metrics, plus every operation
 * derivable from it.  Reports keep plain struct fields (hot-path
 * increments stay direct member writes); the registry is how every
 * *consumer* of the report walks those fields generically.
 */
template <class Report>
class MetricRegistry
{
  public:
    explicit MetricRegistry(std::vector<MetricDef<Report>> defs)
        : _defs(std::move(defs))
    {}

    const std::vector<MetricDef<Report>> &metrics() const
    { return _defs; }

    std::size_t size() const { return _defs.size(); }

    /** Metric by serialization name; nullptr if unknown. */
    const MetricDef<Report> *
    find(std::string_view name) const
    {
        for (const auto &d : _defs) {
            if (name == d.name)
                return &d;
        }
        return nullptr;
    }

    /** Stored (non-derived) metrics, i.e. the struct's actual fields. */
    std::size_t
    storedCount() const
    {
        std::size_t n = 0;
        for (const auto &d : _defs)
            n += d.derived() ? 0 : 1;
        return n;
    }

    /**
     * Field-wise accumulate @p shard into @p into.  Sum-rule metrics
     * add; Config-rule metrics (scenario-derived) are left alone;
     * derived metrics have no storage to merge.
     */
    void
    merge(Report &into, const Report &shard) const
    {
        for (const auto &d : _defs) {
            if (d.derived() || d.mergeRule != MergeRule::Sum)
                continue;
            if (d.u64)
                into.*d.u64 += shard.*d.u64;
            else
                into.*d.f64 += shard.*d.f64;
        }
    }

    /** Exact equality of every stored metric (determinism checks). */
    bool
    equal(const Report &a, const Report &b) const
    {
        for (const auto &d : _defs) {
            if (d.derived())
                continue;
            if (d.u64) {
                if (a.*d.u64 != b.*d.u64)
                    return false;
            } else if (a.*d.f64 != b.*d.f64) {
                return false;
            }
        }
        return true;
    }

    /** Type-erased snapshot in declaration order (for report_io). */
    std::vector<MetricValue>
    snapshot(const Report &r) const
    {
        std::vector<MetricValue> out;
        out.reserve(_defs.size());
        for (const auto &d : _defs) {
            MetricValue v;
            v.name = d.name;
            v.label = d.label;
            v.kind = d.kind;
            v.integral = d.integral();
            v.derived = d.derived();
            v.value = d.get(r);
            if (d.integral())
                v.u64 = d.getU64(r);
            out.push_back(std::move(v));
        }
        return out;
    }

  private:
    std::vector<MetricDef<Report>> _defs;
};

/**
 * Fixed-capacity (tick, value) ring buffer: the storage behind a
 * probe log.  Keeps the newest `capacity` samples; older ones are
 * overwritten and counted as dropped, so a probe can run for any
 * horizon without unbounded growth.  Memory grows with the samples
 * held, not with the capacity.  Capacity 0 disables the ring (pushes
 * are dropped immediately).
 */
class RingSeries
{
  public:
    explicit RingSeries(std::size_t capacity)
        : _capacity(capacity)
    {}

    /** Append a sample, evicting the oldest when full. */
    void push(Tick when, double value);

    std::size_t capacity() const { return _capacity; }
    /** Samples currently held (<= capacity). */
    std::size_t size() const { return _buf.size(); }
    /** Samples ever pushed. */
    std::uint64_t pushed() const { return _pushed; }
    /** Samples evicted by the ring. */
    std::uint64_t dropped() const
    { return _pushed - static_cast<std::uint64_t>(_buf.size()); }

    bool empty() const { return _buf.empty(); }

    /** Held samples, oldest first. */
    std::vector<TimeSeries::Point> snapshot() const;

  private:
    std::vector<TimeSeries::Point> _buf;
    std::size_t _capacity;
    std::size_t _head = 0; ///< next write position once full
    std::uint64_t _pushed = 0;
};

} // namespace neofog

#endif // NEOFOG_SIM_METRICS_HH
