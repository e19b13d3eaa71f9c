#include "snapshot/archive.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "sim/logging.hh"

namespace neofog::snapshot {

namespace {

/** Whether @p v is a valid FieldType tag. */
bool
validType(std::uint8_t v)
{
    return v >= static_cast<std::uint8_t>(FieldType::Bool) &&
           v <= static_cast<std::uint8_t>(FieldType::VecPoint);
}

std::string
quoted(std::string_view s)
{
    // Appended, not `"'" + std::string(s) + "'"`: GCC 12 raises a false
    // -Werror=restrict on the inlined concatenation of a temporary.
    std::string out(1, '\'');
    out.append(s);
    out.push_back('\'');
    return out;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** One FNV-1a step: fold @p byte into @p h. */
std::uint64_t
fnvStep(std::uint64_t h, char byte)
{
    return (h ^ static_cast<unsigned char>(byte)) * kFnvPrime;
}

/** Fold every byte of @p bytes into @p h. */
std::uint64_t
fnvFold(std::uint64_t h, std::string_view bytes)
{
    for (const char c : bytes)
        h = fnvStep(h, c);
    return h;
}

/** Store the low @p N bytes of @p v at @p p, little-endian. */
template <std::size_t N>
void
storeLe(char *p, std::uint64_t v)
{
    for (std::size_t i = 0; i < N; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/** Grow @p out by @p n bytes and return where they start. */
char *
grow(std::string &out, std::size_t n)
{
    const std::size_t at = out.size();
    out.resize(at + n);
    return out.data() + at;
}

} // namespace

const char *
fieldTypeName(FieldType type)
{
    switch (type) {
      case FieldType::Bool: return "bool";
      case FieldType::I32: return "i32";
      case FieldType::U32: return "u32";
      case FieldType::I64: return "i64";
      case FieldType::U64: return "u64";
      case FieldType::F64: return "f64";
      case FieldType::Str: return "str";
      case FieldType::VecBool: return "vec<bool>";
      case FieldType::VecI32: return "vec<i32>";
      case FieldType::VecU32: return "vec<u32>";
      case FieldType::VecU64: return "vec<u64>";
      case FieldType::VecF64: return "vec<f64>";
      case FieldType::VecPoint: return "vec<point>";
    }
    return "?";
}

std::size_t
fieldElementSize(FieldType type)
{
    switch (type) {
      case FieldType::VecBool: return 1;
      case FieldType::VecI32:
      case FieldType::VecU32: return 4;
      case FieldType::VecU64:
      case FieldType::VecF64: return 8;
      case FieldType::VecPoint: return 16;
      default: return 0;
    }
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    return fnvFold(kFnvOffset, bytes);
}

std::vector<std::uint64_t>
fnv1aEach(std::span<const std::string_view> parts)
{
    std::vector<std::uint64_t> out(parts.size());
    std::size_t i = 0;
    for (; i + 4 <= parts.size(); i += 4) {
        // The four chains run side by side over the bytes all four
        // parts have; each part's remainder then finishes alone.
        const std::string_view *p = &parts[i];
        const std::size_t common = std::min(
            {p[0].size(), p[1].size(), p[2].size(), p[3].size()});
        std::uint64_t h0 = kFnvOffset, h1 = kFnvOffset;
        std::uint64_t h2 = kFnvOffset, h3 = kFnvOffset;
        for (std::size_t k = 0; k < common; ++k) {
            h0 = fnvStep(h0, p[0][k]);
            h1 = fnvStep(h1, p[1][k]);
            h2 = fnvStep(h2, p[2][k]);
            h3 = fnvStep(h3, p[3][k]);
        }
        out[i] = fnvFold(h0, p[0].substr(common));
        out[i + 1] = fnvFold(h1, p[1].substr(common));
        out[i + 2] = fnvFold(h2, p[2].substr(common));
        out[i + 3] = fnvFold(h3, p[3].substr(common));
    }
    for (; i < parts.size(); ++i)
        out[i] = fnv1a(parts[i]);
    return out;
}

void
appendLe16(std::string &out, std::uint16_t v)
{
    char bytes[2];
    storeLe<2>(bytes, v);
    out.append(bytes, 2);
}

void
appendLe32(std::string &out, std::uint32_t v)
{
    char bytes[4];
    storeLe<4>(bytes, v);
    out.append(bytes, 4);
}

void
appendLe64(std::string &out, std::uint64_t v)
{
    char bytes[8];
    storeLe<8>(bytes, v);
    out.append(bytes, 8);
}

std::uint16_t
readLe16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(p[0]) |
        static_cast<std::uint16_t>(p[1]) << 8);
}

std::uint32_t
readLe32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
readLe64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
doubleBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
doubleFromBits(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

// ------------------------------------------------------- RecordReader

bool
RecordReader::next(Record &out)
{
    if (_pos >= _data.size())
        return false;
    const auto need = [&](std::size_t n) {
        if (_data.size() - _pos < n)
            fatal("snapshot record stream truncated at byte ", _pos);
    };
    const auto *base =
        reinterpret_cast<const unsigned char *>(_data.data());

    need(2);
    const std::uint16_t path_len = readLe16(base + _pos);
    _pos += 2;
    need(static_cast<std::size_t>(path_len) + 1);
    out.path = _data.substr(_pos, path_len);
    _pos += path_len;
    const std::uint8_t tag = base[_pos];
    ++_pos;
    if (!validType(tag))
        fatal("snapshot record ", quoted(out.path),
              " has invalid type tag ", static_cast<int>(tag));
    out.type = static_cast<FieldType>(tag);

    std::size_t payload = 0;
    switch (out.type) {
      case FieldType::Bool:
        payload = 1;
        break;
      case FieldType::I32:
      case FieldType::U32:
        payload = 4;
        break;
      case FieldType::I64:
      case FieldType::U64:
      case FieldType::F64:
        payload = 8;
        break;
      case FieldType::Str: {
        need(4);
        payload = 4 + readLe32(base + _pos);
        break;
      }
      default: { // vectors
        need(8);
        const std::uint64_t count = readLe64(base + _pos);
        const std::uint64_t elem = fieldElementSize(out.type);
        if (count > (_data.size() - _pos) / (elem ? elem : 1))
            fatal("snapshot record ", quoted(out.path), " claims ",
                  count, " elements past end of stream");
        payload = 8 + static_cast<std::size_t>(count * elem);
        break;
      }
    }
    need(payload);
    out.payload = _data.substr(_pos, payload);
    _pos += payload;
    return true;
}

std::string
formatPayload(FieldType type, std::string_view payload)
{
    const auto *p =
        reinterpret_cast<const unsigned char *>(payload.data());
    char buf[64];
    switch (type) {
      case FieldType::Bool:
        return payload[0] ? "true" : "false";
      case FieldType::I32:
        return std::to_string(
            static_cast<std::int32_t>(readLe32(p)));
      case FieldType::U32:
        return std::to_string(readLe32(p));
      case FieldType::I64:
        return std::to_string(
            static_cast<std::int64_t>(readLe64(p)));
      case FieldType::U64:
        return std::to_string(readLe64(p));
      case FieldType::F64: {
        const std::uint64_t bits = readLe64(p);
        std::snprintf(buf, sizeof(buf), "%.17g (0x%016llx)",
                      doubleFromBits(bits),
                      static_cast<unsigned long long>(bits));
        return buf;
      }
      case FieldType::Str: {
        // This and the vector case append for the reason quoted()
        // gives.
        std::string out(1, '"');
        out.append(payload.substr(4));
        out.push_back('"');
        return out;
      }
      default: {
        std::string out(1, '[');
        out.append(std::to_string(readLe64(p)));
        out.append(" elements]");
        return out;
      }
    }
}

// ------------------------------------------------------ ScopedArchive

void
ScopedArchive::pushScope(std::string_view name)
{
    _scopeLens.push_back(_prefix.size());
    _prefix.append(name);
    _prefix.push_back('.');
}

void
ScopedArchive::popScope()
{
    NEOFOG_ASSERT(!_scopeLens.empty(), "popScope without pushScope");
    _prefix.resize(_scopeLens.back());
    _scopeLens.pop_back();
}

std::string
ScopedArchive::path(std::string_view name) const
{
    return _prefix + std::string(name);
}

// --------------------------------------------------------- OutArchive

void
OutArchive::begin(std::string_view name, FieldType type)
{
    const std::string_view scope = prefix();
    const std::size_t len = scope.size() + name.size();
    if (len > 0xFFFF)
        fatal("snapshot field path too long: ", path(name));
    appendLe16(_buf, static_cast<std::uint16_t>(len));
    _buf.append(scope);
    _buf.append(name);
    _buf.push_back(static_cast<char>(type));
}

void
OutArchive::io(std::string_view name, bool &v)
{
    begin(name, FieldType::Bool);
    _buf.push_back(v ? 1 : 0);
}

void
OutArchive::io(std::string_view name, std::int32_t &v)
{
    begin(name, FieldType::I32);
    appendLe32(_buf, static_cast<std::uint32_t>(v));
}

void
OutArchive::io(std::string_view name, std::uint16_t &v)
{
    begin(name, FieldType::U32);
    appendLe32(_buf, v);
}

void
OutArchive::io(std::string_view name, std::uint32_t &v)
{
    begin(name, FieldType::U32);
    appendLe32(_buf, v);
}

void
OutArchive::io(std::string_view name, std::int64_t &v)
{
    begin(name, FieldType::I64);
    appendLe64(_buf, static_cast<std::uint64_t>(v));
}

void
OutArchive::io(std::string_view name, std::uint64_t &v)
{
    begin(name, FieldType::U64);
    appendLe64(_buf, v);
}

void
OutArchive::io(std::string_view name, double &v)
{
    begin(name, FieldType::F64);
    appendLe64(_buf, doubleBits(v));
}

void
OutArchive::io(std::string_view name, std::string &v)
{
    if (v.size() > 0xFFFFFFFFULL)
        fatal("snapshot string field '", std::string(name),
              "' too long");
    begin(name, FieldType::Str);
    appendLe32(_buf, static_cast<std::uint32_t>(v.size()));
    _buf.append(v);
}

void
OutArchive::io(std::string_view name, Energy &v)
{
    double joules = v.joules();
    io(name, joules);
}

void
OutArchive::io(std::string_view name, Power &v)
{
    double watts = v.watts();
    io(name, watts);
}

void
OutArchive::io(std::string_view name, std::vector<bool> &v)
{
    begin(name, FieldType::VecBool);
    appendLe64(_buf, v.size());
    char *p = grow(_buf, v.size());
    for (const bool b : v)
        *p++ = b ? 1 : 0;
}

void
OutArchive::io(std::string_view name, std::vector<std::int32_t> &v)
{
    begin(name, FieldType::VecI32);
    appendLe64(_buf, v.size());
    char *p = grow(_buf, 4 * v.size());
    for (const std::int32_t e : v) {
        storeLe<4>(p, static_cast<std::uint32_t>(e));
        p += 4;
    }
}

void
OutArchive::io(std::string_view name, std::vector<std::uint32_t> &v)
{
    begin(name, FieldType::VecU32);
    appendLe64(_buf, v.size());
    char *p = grow(_buf, 4 * v.size());
    for (const std::uint32_t e : v) {
        storeLe<4>(p, e);
        p += 4;
    }
}

void
OutArchive::io(std::string_view name, std::vector<std::uint64_t> &v)
{
    begin(name, FieldType::VecU64);
    appendLe64(_buf, v.size());
    char *p = grow(_buf, 8 * v.size());
    for (const std::uint64_t e : v) {
        storeLe<8>(p, e);
        p += 8;
    }
}

void
OutArchive::io(std::string_view name, std::vector<double> &v)
{
    begin(name, FieldType::VecF64);
    appendLe64(_buf, v.size());
    char *p = grow(_buf, 8 * v.size());
    for (const double e : v) {
        storeLe<8>(p, doubleBits(e));
        p += 8;
    }
}

void
OutArchive::io(std::string_view name,
               std::vector<TimeSeries::Point> &v)
{
    begin(name, FieldType::VecPoint);
    appendLe64(_buf, v.size());
    char *p = grow(_buf, 16 * v.size());
    for (const TimeSeries::Point &e : v) {
        storeLe<8>(p, static_cast<std::uint64_t>(e.when));
        storeLe<8>(p + 8, doubleBits(e.value));
        p += 16;
    }
}

// ---------------------------------------------------------- InArchive

Record
InArchive::expect(std::string_view name, FieldType type)
{
    Record rec;
    if (!_reader.next(rec))
        fatal("snapshot stream ended while expecting field '",
              path(name), "'");
    const std::string_view scope = prefix();
    if (rec.path.size() != scope.size() + name.size() ||
        !rec.path.starts_with(scope) || !rec.path.ends_with(name))
        fatal("snapshot field mismatch: stream has '",
              std::string(rec.path), "' where the loader expects '",
              path(name), "' (format/version skew?)");
    if (rec.type != type)
        fatal("snapshot field '", path(name), "' has type ",
              fieldTypeName(rec.type), ", expected ",
              fieldTypeName(type));
    return rec;
}

namespace {

const unsigned char *
payloadBytes(const Record &rec)
{
    return reinterpret_cast<const unsigned char *>(
        rec.payload.data());
}

/** Vector payload: validates exact size and returns element count. */
std::size_t
vecCount(const Record &rec)
{
    const std::uint64_t count = readLe64(payloadBytes(rec));
    const std::size_t elem = fieldElementSize(rec.type);
    if (rec.payload.size() != 8 + count * elem)
        fatal("snapshot field '", std::string(rec.path),
              "' has inconsistent vector size");
    return static_cast<std::size_t>(count);
}

} // namespace

void
InArchive::io(std::string_view name, bool &v)
{
    const Record rec = expect(name, FieldType::Bool);
    v = rec.payload[0] != 0;
}

void
InArchive::io(std::string_view name, std::int32_t &v)
{
    const Record rec = expect(name, FieldType::I32);
    v = static_cast<std::int32_t>(readLe32(payloadBytes(rec)));
}

void
InArchive::io(std::string_view name, std::uint16_t &v)
{
    const Record rec = expect(name, FieldType::U32);
    v = static_cast<std::uint16_t>(readLe32(payloadBytes(rec)));
}

void
InArchive::io(std::string_view name, std::uint32_t &v)
{
    const Record rec = expect(name, FieldType::U32);
    v = readLe32(payloadBytes(rec));
}

void
InArchive::io(std::string_view name, std::int64_t &v)
{
    const Record rec = expect(name, FieldType::I64);
    v = static_cast<std::int64_t>(readLe64(payloadBytes(rec)));
}

void
InArchive::io(std::string_view name, std::uint64_t &v)
{
    const Record rec = expect(name, FieldType::U64);
    v = readLe64(payloadBytes(rec));
}

void
InArchive::io(std::string_view name, double &v)
{
    const Record rec = expect(name, FieldType::F64);
    v = doubleFromBits(readLe64(payloadBytes(rec)));
}

void
InArchive::io(std::string_view name, std::string &v)
{
    const Record rec = expect(name, FieldType::Str);
    const std::uint32_t len = readLe32(payloadBytes(rec));
    if (rec.payload.size() != 4ULL + len)
        fatal("snapshot field '", std::string(rec.path),
              "' has inconsistent string size");
    v.assign(rec.payload.substr(4));
}

void
InArchive::io(std::string_view name, Energy &v)
{
    double joules = 0.0;
    io(name, joules);
    v = Energy::fromJoules(joules);
}

void
InArchive::io(std::string_view name, Power &v)
{
    double watts = 0.0;
    io(name, watts);
    v = Power::fromWatts(watts);
}

void
InArchive::io(std::string_view name, std::vector<bool> &v)
{
    const Record rec = expect(name, FieldType::VecBool);
    const std::size_t count = vecCount(rec);
    v.assign(count, false);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = rec.payload[8 + i] != 0;
}

void
InArchive::io(std::string_view name, std::vector<std::int32_t> &v)
{
    const Record rec = expect(name, FieldType::VecI32);
    const std::size_t count = vecCount(rec);
    const unsigned char *p = payloadBytes(rec) + 8;
    v.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = static_cast<std::int32_t>(readLe32(p + 4 * i));
}

void
InArchive::io(std::string_view name, std::vector<std::uint32_t> &v)
{
    const Record rec = expect(name, FieldType::VecU32);
    const std::size_t count = vecCount(rec);
    const unsigned char *p = payloadBytes(rec) + 8;
    v.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = readLe32(p + 4 * i);
}

void
InArchive::io(std::string_view name, std::vector<std::uint64_t> &v)
{
    const Record rec = expect(name, FieldType::VecU64);
    const std::size_t count = vecCount(rec);
    const unsigned char *p = payloadBytes(rec) + 8;
    v.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = readLe64(p + 8 * i);
}

void
InArchive::io(std::string_view name, std::vector<double> &v)
{
    const Record rec = expect(name, FieldType::VecF64);
    const std::size_t count = vecCount(rec);
    const unsigned char *p = payloadBytes(rec) + 8;
    v.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = doubleFromBits(readLe64(p + 8 * i));
}

void
InArchive::io(std::string_view name,
              std::vector<TimeSeries::Point> &v)
{
    const Record rec = expect(name, FieldType::VecPoint);
    const std::size_t count = vecCount(rec);
    const unsigned char *p = payloadBytes(rec) + 8;
    v.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        v[i].when =
            static_cast<Tick>(readLe64(p + 16 * i));
        v[i].value = doubleFromBits(readLe64(p + 16 * i + 8));
    }
}

} // namespace neofog::snapshot
