/**
 * @file
 * Report serialization: one exporter for every result the simulator
 * produces.  Text tables (shared by SystemReport::print and the bench
 * harnesses), JSON (lossless round-trip, schema-tagged), CSV, and
 * labeled time-series streams (the probe export path).
 *
 * The writers consume the type-erased MetricValue snapshots a
 * MetricRegistry produces, so adding a metric to a report's registry
 * automatically adds it to every output format.
 *
 * JSON schemas (all tagged via a top-level "schema" key):
 *   neofog-report-v1    {"schema","label","metrics":{name:value}}
 *   neofog-aggregate-v1 {"schema","label","runs","metrics":
 *                         {name:{count,mean,stddev,min,max}}}
 *   neofog-bench-v1     {"schema","bench","results":{key:number},
 *                         "notes":{key:string}}
 */

#ifndef NEOFOG_SIM_REPORT_IO_HH
#define NEOFOG_SIM_REPORT_IO_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace neofog::report_io {

/** Output format selector shared by the CLI and exporters. */
enum class Format
{
    Text,
    Json,
    Csv,
};

/** Parse "text"/"json"/"csv"; false on anything else. */
bool parseFormat(std::string_view name, Format &out);

/**
 * Format a double so it parses back to the identical bits (%.17g),
 * with integral-valued doubles shortened losslessly.
 */
std::string formatDouble(double v);

/* ----------------------------------------------------------------- *
 *  Text tables (the one aligned-table implementation)
 * ----------------------------------------------------------------- */

/** Print a horizontal rule sized to @p width. */
void rule(std::ostream &os, int width = 78);

/** Print a section header between rules. */
void sectionHeader(std::ostream &os, const std::string &title);

/** Fixed-point double ("12.34"). */
std::string fmtFixed(double v, int precision = 2);

/** Percentage ("37.2%") from a fraction. */
std::string fmtPct(double v, int precision = 1);

/**
 * Fixed-width left-aligned table: set column widths once, feed rows
 * of cells.  Cells beyond the width list get a default width.
 */
class TextTable
{
  public:
    TextTable(std::ostream &os, std::vector<int> widths)
        : _os(os), _widths(std::move(widths))
    {}

    void row(const std::vector<std::string> &cells);

    /** Rule spanning the configured columns. */
    void separator();

  private:
    std::ostream &_os;
    std::vector<int> _widths;
};

/* ----------------------------------------------------------------- *
 *  JSON writing
 * ----------------------------------------------------------------- */

/** Write @p s as a JSON string literal (quotes + escapes). */
void writeJsonString(std::ostream &os, std::string_view s);

/**
 * Minimal streaming JSON writer: tracks nesting and comma placement
 * so callers just emit keys and values in order.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : _os(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(std::string_view k);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }

  private:
    void separate();

    std::ostream &_os;
    std::vector<bool> _first; ///< per nesting level: no comma yet
    bool _afterKey = false;
};

/* ----------------------------------------------------------------- *
 *  JSON parsing (DOM)
 * ----------------------------------------------------------------- */

/**
 * Parsed JSON value.  Numbers keep their source lexeme so integral
 * values round-trip exactly (beyond double's 2^53 mantissa).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return _kind; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }

    bool asBool() const;
    double asNumber() const;
    std::uint64_t asU64() const;
    const std::string &asString() const;

    const std::vector<JsonValue> &items() const;
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

  private:
    friend class JsonParser;

    Kind _kind = Kind::Null;
    bool _bool = false;
    std::string _scalar; ///< number lexeme or string payload
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

/** Parse a complete JSON document; throws FatalError on bad input. */
JsonValue parseJson(std::string_view text);

/* ----------------------------------------------------------------- *
 *  Metric records
 * ----------------------------------------------------------------- */

/**
 * Write the "metrics" object of a report snapshot: integral metrics
 * as exact integers, gauges with lossless doubles.  The writer must
 * be positioned after a key() or inside an array.
 */
void writeMetricsJson(JsonWriter &w,
                      const std::vector<MetricValue> &metrics);

/** CSV header row: metric names in declaration order. */
void writeMetricsCsvHeader(std::ostream &os,
                           const std::vector<MetricValue> &metrics);

/** CSV value row matching writeMetricsCsvHeader. */
void writeMetricsCsvRow(std::ostream &os,
                        const std::vector<MetricValue> &metrics);

/** Split one CSV line on commas (no quoting: our output never quotes). */
std::vector<std::string> splitCsvLine(const std::string &line);

/* ----------------------------------------------------------------- *
 *  Time-series streams (the probe export path)
 * ----------------------------------------------------------------- */

/** One named series ready for export. */
struct LabeledSeries
{
    std::string name;
    std::string unit;
    std::vector<TimeSeries::Point> points;
};

/**
 * Long-format CSV: "series,time_s,value" rows, one per point, series
 * in the given order.
 */
void writeSeriesCsv(std::ostream &os,
                    const std::vector<LabeledSeries> &series);

/**
 * Write @p series as a JSON array of {"name","unit","points":
 * [[t_s,v],...]} objects, in the given order.  The writer must be
 * positioned after a key() or inside an array.
 */
void writeSeriesArray(JsonWriter &w,
                      const std::vector<LabeledSeries> &series);

/* ----------------------------------------------------------------- *
 *  Schema validation
 * ----------------------------------------------------------------- */

/**
 * Validate a neofog-bench-v1 document: schema tag, bench name, and a
 * non-empty all-numeric "results" object.
 * @return empty string when valid, else a description of the problem.
 */
std::string validateBenchJson(const JsonValue &v);

} // namespace neofog::report_io

#endif // NEOFOG_SIM_REPORT_IO_HH
