#include "sim/report_io.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/units.hh"

namespace neofog::report_io {

bool
parseFormat(std::string_view name, Format &out)
{
    if (name == "text") {
        out = Format::Text;
    } else if (name == "json") {
        out = Format::Json;
    } else if (name == "csv") {
        out = Format::Csv;
    } else {
        return false;
    }
    return true;
}

std::string
formatDouble(double v)
{
    char buf[40];
    // Try the shortest representations first; fall back to the full 17
    // significant digits, which always round-trips a finite double.
    for (int prec : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return buf;
}

/* --------------------------- text tables -------------------------- */

void
rule(std::ostream &os, int width)
{
    for (int i = 0; i < width; ++i)
        os << '-';
    os << '\n';
}

void
sectionHeader(std::ostream &os, const std::string &title)
{
    os << '\n';
    rule(os);
    os << title << '\n';
    rule(os);
}

std::string
fmtFixed(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

void
TextTable::row(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int w = i < _widths.size() ? _widths[i] : 12;
        const int pad = w - static_cast<int>(cells[i].size());
        _os << cells[i];
        for (int p = 0; p < pad; ++p)
            _os << ' ';
    }
    _os << '\n';
}

void
TextTable::separator()
{
    int total = 0;
    for (int w : _widths)
        total += w;
    rule(_os, total);
}

/* --------------------------- JSON writing ------------------------- */

void
writeJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
JsonWriter::separate()
{
    if (_afterKey) {
        _afterKey = false;
        return;
    }
    if (_first.empty())
        return;
    if (_first.back())
        _first.back() = false;
    else
        _os << ',';
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    _os << '{';
    _first.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    NEOFOG_ASSERT(!_first.empty(), "unbalanced endObject");
    _first.pop_back();
    _os << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    _os << '[';
    _first.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    NEOFOG_ASSERT(!_first.empty(), "unbalanced endArray");
    _first.pop_back();
    _os << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separate();
    writeJsonString(_os, k);
    _os << ':';
    _afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (std::isfinite(v))
        _os << formatDouble(v);
    else
        _os << "null"; // JSON has no NaN/Inf
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    _os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    _os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    _os << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    writeJsonString(_os, v);
    return *this;
}

/* --------------------------- JSON parsing ------------------------- */

bool
JsonValue::asBool() const
{
    if (_kind != Kind::Bool)
        fatal("JSON: expected bool");
    return _bool;
}

double
JsonValue::asNumber() const
{
    if (_kind != Kind::Number)
        fatal("JSON: expected number");
    return std::strtod(_scalar.c_str(), nullptr);
}

std::uint64_t
JsonValue::asU64() const
{
    if (_kind != Kind::Number)
        fatal("JSON: expected number");
    // Integral lexemes convert exactly; fractional ones go via double.
    if (_scalar.find_first_of(".eE") == std::string::npos &&
        _scalar[0] != '-') {
        return std::strtoull(_scalar.c_str(), nullptr, 10);
    }
    return static_cast<std::uint64_t>(asNumber());
}

const std::string &
JsonValue::asString() const
{
    if (_kind != Kind::String)
        fatal("JSON: expected string");
    return _scalar;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (_kind != Kind::Array)
        fatal("JSON: expected array");
    return _items;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (_kind != Kind::Object)
        fatal("JSON: expected object");
    return _members;
}

const JsonValue *
JsonValue::find(std::string_view key_name) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : _members) {
        if (k == key_name)
            return &v;
    }
    return nullptr;
}

/** Recursive-descent parser over a string_view. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : _text(text) {}

    /**
     * Deepest array/object nesting accepted.  Every document this
     * project writes nests fewer than 8 levels; the cap turns a
     * hostile one (a snapshot header is parsed before any checksum)
     * into a parse error instead of a stack overflow.
     */
    static constexpr int kMaxDepth = 64;

    JsonValue
    parse()
    {
        JsonValue v = parseValue(0);
        skipWs();
        if (_pos != _text.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        fatal("JSON parse error at offset ", _pos, ": ", why);
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r')) {
            ++_pos;
        }
    }

    char
    peek()
    {
        skipWs();
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (_text.substr(_pos, lit.size()) != lit)
            return false;
        _pos += lit.size();
        return true;
    }

    /** A value nested inside @p depth arrays/objects. */
    JsonValue
    parseValue(int depth)
    {
        const char c = peek();
        if ((c == '{' || c == '[') && depth >= kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        switch (c) {
          case '{':
            return parseObject(depth + 1);
          case '[':
            return parseArray(depth + 1);
          case '"': {
            JsonValue v;
            v._kind = JsonValue::Kind::String;
            v._scalar = parseString();
            return v;
          }
          case 't': {
            JsonValue v;
            if (!consumeLiteral("true"))
                fail("bad literal");
            v._kind = JsonValue::Kind::Bool;
            v._bool = true;
            return v;
          }
          case 'f': {
            JsonValue v;
            if (!consumeLiteral("false"))
                fail("bad literal");
            v._kind = JsonValue::Kind::Bool;
            v._bool = false;
            return v;
          }
          case 'n': {
            JsonValue v;
            if (!consumeLiteral("null"))
                fail("bad literal");
            return v;
          }
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                fail("unterminated string");
            const char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            const char e = _text[_pos++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out.push_back(e);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    fail("bad \\u escape");
                const std::string hex(_text.substr(_pos, 4));
                _pos += 4;
                const auto code = static_cast<unsigned>(
                    std::strtoul(hex.c_str(), nullptr, 16));
                // Our writer only emits \u for control chars; decode
                // the BMP code point as UTF-8.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        skipWs();
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-')) {
            ++_pos;
        }
        if (_pos == start)
            fail("expected a value");
        JsonValue v;
        v._kind = JsonValue::Kind::Number;
        v._scalar = std::string(_text.substr(start, _pos - start));
        // Reject obviously malformed numbers early.
        char *end = nullptr;
        std::strtod(v._scalar.c_str(), &end);
        if (end != v._scalar.c_str() + v._scalar.size())
            fail("malformed number '" + v._scalar + "'");
        return v;
    }

    JsonValue
    parseArray(int depth)
    {
        expect('[');
        JsonValue v;
        v._kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            v._items.push_back(parseValue(depth));
            const char c = peek();
            ++_pos;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    JsonValue
    parseObject(int depth)
    {
        expect('{');
        JsonValue v;
        v._kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            skipWs();
            std::string k = parseString();
            expect(':');
            v._members.emplace_back(std::move(k), parseValue(depth));
            const char c = peek();
            ++_pos;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    std::string_view _text;
    std::size_t _pos = 0;
};

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parse();
}

/* -------------------------- metric records ------------------------ */

void
writeMetricsJson(JsonWriter &w, const std::vector<MetricValue> &metrics)
{
    w.beginObject();
    for (const MetricValue &m : metrics) {
        w.key(m.name);
        if (m.integral)
            w.value(m.u64);
        else
            w.value(m.value);
    }
    w.endObject();
}

void
writeMetricsCsvHeader(std::ostream &os,
                      const std::vector<MetricValue> &metrics)
{
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? "," : "") << metrics[i].name;
    os << '\n';
}

void
writeMetricsCsvRow(std::ostream &os,
                   const std::vector<MetricValue> &metrics)
{
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            os << ',';
        if (metrics[i].integral)
            os << metrics[i].u64;
        else
            os << formatDouble(metrics[i].value);
    }
    os << '\n';
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

/* -------------------------- series streams ------------------------ */

void
writeSeriesCsv(std::ostream &os, const std::vector<LabeledSeries> &series)
{
    os << "series,time_s,value\n";
    for (const LabeledSeries &s : series) {
        for (const auto &pt : s.points) {
            os << s.name << ','
               << formatDouble(secondsFromTicks(pt.when)) << ','
               << formatDouble(pt.value) << '\n';
        }
    }
}

void
writeSeriesArray(JsonWriter &w, const std::vector<LabeledSeries> &series)
{
    w.beginArray();
    for (const LabeledSeries &s : series) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("unit").value(s.unit);
        w.key("points").beginArray();
        for (const auto &pt : s.points) {
            w.beginArray();
            w.value(secondsFromTicks(pt.when));
            w.value(pt.value);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

/* ------------------------- schema validation ---------------------- */

std::string
validateBenchJson(const JsonValue &v)
{
    if (!v.isObject())
        return "top level is not an object";
    const JsonValue *schema = v.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "neofog-bench-v1") {
        return "missing or wrong schema tag (want neofog-bench-v1)";
    }
    const JsonValue *bench = v.find("bench");
    if (!bench || !bench->isString() || bench->asString().empty())
        return "missing bench name";
    const JsonValue *results = v.find("results");
    if (!results || !results->isObject())
        return "missing results object";
    if (results->members().empty())
        return "results object is empty";
    for (const auto &[k, val] : results->members()) {
        if (!val.isNumber())
            return "non-numeric result '" + k + "'";
    }
    return "";
}

} // namespace neofog::report_io
