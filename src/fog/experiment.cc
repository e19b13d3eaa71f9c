#include "fog/experiment.hh"

#include <sstream>

#include "sim/logging.hh"
#include "sim/report_io.hh"

namespace neofog {

const ScalarStat &
AggregateReport::stat(std::string_view metric) const
{
    const auto &defs = SystemReport::metrics().metrics();
    NEOFOG_ASSERT(stats.size() == defs.size(),
                  "aggregate not filled by runSeeds");
    for (std::size_t i = 0; i < defs.size(); ++i) {
        if (metric == defs[i].name)
            return stats[i];
    }
    fatal("unknown aggregate metric '", std::string(metric), "'");
}

void
AggregateReport::print(std::ostream &os, const std::string &label) const
{
    os << label << " (" << runs << " seeds):\n";
    const auto &defs = SystemReport::metrics().metrics();
    report_io::TextTable table(os, {2, 24, 1});
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const ScalarStat &s = stats[i];
        std::ostringstream cell;
        cell << s.mean() << " +- " << s.stddev() << " [" << s.min()
             << ", " << s.max() << "]";
        table.row({"", defs[i].label, cell.str()});
    }
}

void
AggregateReport::toJson(std::ostream &os, const std::string &label) const
{
    report_io::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("neofog-aggregate-v1");
    w.key("label").value(label);
    w.key("runs").value(runs);
    w.key("metrics").beginObject();
    const auto &defs = SystemReport::metrics().metrics();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const ScalarStat &s = stats[i];
        w.key(defs[i].name).beginObject();
        w.key("count").value(s.count());
        w.key("mean").value(s.mean());
        w.key("stddev").value(s.stddev());
        w.key("min").value(s.min());
        w.key("max").value(s.max());
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << '\n';
}

void
AggregateReport::toCsv(std::ostream &os) const
{
    os << "metric,count,mean,stddev,min,max\n";
    const auto &defs = SystemReport::metrics().metrics();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const ScalarStat &s = stats[i];
        os << defs[i].name << ',' << s.count() << ','
           << report_io::formatDouble(s.mean()) << ','
           << report_io::formatDouble(s.stddev()) << ','
           << report_io::formatDouble(s.min()) << ','
           << report_io::formatDouble(s.max()) << '\n';
    }
}

AggregateReport
ExperimentRunner::runSeeds(const ScenarioConfig &cfg,
                           const RunOptions &opt)
{
    if (opt.runs < 1)
        fatal("experiment needs at least one run");
    AggregateReport agg;
    agg.runs = opt.runs;
    agg.reports.reserve(static_cast<std::size_t>(opt.runs));
    for (int i = 0; i < opt.runs; ++i) {
        ScenarioConfig run_cfg = cfg;
        run_cfg.seed = opt.baseSeed + static_cast<std::uint64_t>(i);
        agg.reports.push_back(FogSystem(run_cfg).run());
    }

    // Registry-derived aggregation: every metric (stored and derived)
    // gets a ScalarStat fed in seed order.
    const auto &defs = SystemReport::metrics().metrics();
    agg.stats.resize(defs.size());
    for (const SystemReport &r : agg.reports) {
        for (std::size_t m = 0; m < defs.size(); ++m)
            agg.stats[m].sample(defs[m].get(r));
    }
    return agg;
}

ScalarStat
ExperimentRunner::compareTotals(const ScenarioConfig &a,
                                const ScenarioConfig &b,
                                const RunOptions &opt)
{
    ScalarStat ratios;
    for (int i = 0; i < opt.runs; ++i) {
        ScenarioConfig ca = a;
        ScenarioConfig cb = b;
        ca.seed = cb.seed =
            opt.baseSeed + static_cast<std::uint64_t>(i);
        const auto ra = FogSystem(ca).run();
        const auto rb = FogSystem(cb).run();
        if (ra.totalProcessed() > 0) {
            ratios.sample(static_cast<double>(rb.totalProcessed()) /
                          static_cast<double>(ra.totalProcessed()));
        }
    }
    return ratios;
}

} // namespace neofog
