/**
 * @file
 * Binary serialization archives for the snapshot subsystem.
 *
 * Components expose one symmetric template member
 *
 *     template <class Archive> void serialize(Archive &ar);
 *
 * that lists every mutable field once via `ar.io("name", field)`.
 * OutArchive encodes those calls into a byte string; InArchive replays
 * the identical call sequence and overwrites the fields.  Asymmetric
 * logic (e.g. re-materializing a derived member after load) branches on
 * `if constexpr (Archive::isLoading)`.
 *
 * The encoding is a flat stream of self-describing records:
 *
 *     [u16 path length][path bytes][u8 FieldType][payload]
 *
 * where the path is the '.'-joined scope stack plus the field name
 * ("chain0.node3.cap.stored").  Everything is explicitly little-endian;
 * doubles are stored as their IEEE-754 bit pattern so NaN payloads and
 * signed zeros round-trip exactly (resume bit-identity depends on it).
 * The interleaved paths cost bytes but buy two properties the
 * subsystem is built around: InArchive verifies every record's path
 * and type against what the loading code expects (catching version
 * skew and corruption loudly instead of misassigning bytes), and
 * tools/neofog_replay can walk any two streams field-by-field and name
 * the first divergence without linking the component code at all.
 */

#ifndef NEOFOG_SNAPSHOT_ARCHIVE_HH
#define NEOFOG_SNAPSHOT_ARCHIVE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog::snapshot {

/** Wire type of one record's payload. */
enum class FieldType : std::uint8_t
{
    Bool = 1,
    I32,
    U32,
    I64,
    U64,
    F64,      ///< IEEE-754 bit pattern as u64
    Str,      ///< u32 length + bytes
    VecBool,  ///< u64 count + count bytes
    VecI32,   ///< u64 count + 4*count
    VecU32,   ///< u64 count + 4*count
    VecU64,   ///< u64 count + 8*count
    VecF64,   ///< u64 count + 8*count (bit patterns)
    VecPoint, ///< u64 count + count * (i64 tick + f64 bits)
};

/** Display name of a wire type ("u64", "vec<f64>", ...). */
const char *fieldTypeName(FieldType type);

/** Element width of a vector type's payload; 0 for scalars/Str. */
std::size_t fieldElementSize(FieldType type);

/** FNV-1a 64-bit hash (section checksums, config fingerprint). */
std::uint64_t fnv1a(std::string_view bytes);

/**
 * fnv1a() of each of @p parts, equal to it item by item.  Four parts
 * hash per loop, so four independent multiply chains overlap instead
 * of one chain paying the full multiply latency per byte.
 */
std::vector<std::uint64_t>
fnv1aEach(std::span<const std::string_view> parts);

// Little-endian primitives, shared with the file format and replay.
void appendLe16(std::string &out, std::uint16_t v);
void appendLe32(std::string &out, std::uint32_t v);
void appendLe64(std::string &out, std::uint64_t v);
std::uint16_t readLe16(const unsigned char *p);
std::uint32_t readLe32(const unsigned char *p);
std::uint64_t readLe64(const unsigned char *p);

/** Double <-> exact bit pattern (NaN/-0.0 safe). */
std::uint64_t doubleBits(double v);
double doubleFromBits(std::uint64_t bits);

/** One decoded record (views into the underlying stream). */
struct Record
{
    std::string_view path;
    FieldType type = FieldType::Bool;
    std::string_view payload; ///< raw payload bytes, excluding header
};

/**
 * Sequential reader over a record stream.  Malformed streams (bad
 * type tag, truncated payload) raise FatalError.
 */
class RecordReader
{
  public:
    explicit RecordReader(std::string_view data) : _data(data) {}

    /** Decode the next record; false cleanly at end of stream. */
    bool next(Record &out);

    bool atEnd() const { return _pos >= _data.size(); }
    std::size_t position() const { return _pos; }

  private:
    std::string_view _data;
    std::size_t _pos = 0;
};

/** Scalar payload rendered for humans ("3.25", "true", "x12 items"). */
std::string formatPayload(FieldType type, std::string_view payload);

/**
 * Shared scope-stack bookkeeping of both archives (the path prefix
 * under which the next io() records its field).
 */
class ScopedArchive
{
  public:
    /** Enter a nested scope: subsequent names gain "name." prefixes. */
    void pushScope(std::string_view name);
    void popScope();

    /** Full dotted path of @p name (for messages). */
    std::string path(std::string_view name) const;

  protected:
    /** The current scope prefix ("a.b." when nested, "" at top). */
    std::string_view prefix() const { return _prefix; }

  private:
    std::string _prefix;                 ///< "a.b." when nested
    std::vector<std::size_t> _scopeLens; ///< prefix length stack
};

/**
 * Serializing archive: encodes io() calls into a byte string.
 */
class OutArchive : public ScopedArchive
{
  public:
    static constexpr bool isLoading = false;

    void io(std::string_view name, bool &v);
    void io(std::string_view name, std::int32_t &v);
    void io(std::string_view name, std::uint16_t &v);
    void io(std::string_view name, std::uint32_t &v);
    void io(std::string_view name, std::int64_t &v);
    void io(std::string_view name, std::uint64_t &v);
    void io(std::string_view name, double &v);
    void io(std::string_view name, std::string &v);
    void io(std::string_view name, Energy &v);
    void io(std::string_view name, Power &v);
    void io(std::string_view name, std::vector<bool> &v);
    void io(std::string_view name, std::vector<std::int32_t> &v);
    void io(std::string_view name, std::vector<std::uint32_t> &v);
    void io(std::string_view name, std::vector<std::uint64_t> &v);
    void io(std::string_view name, std::vector<double> &v);
    void io(std::string_view name, std::vector<TimeSeries::Point> &v);

    /** Nested component: scoped recursion into T::serialize. */
    template <class T>
    void
    io(std::string_view name, T &v)
    {
        pushScope(name);
        v.serialize(*this);
        popScope();
    }

    /** The encoded stream so far. */
    const std::string &data() const { return _buf; }
    /** Move the encoded stream out (archive becomes empty). */
    std::string take() { return std::move(_buf); }

  private:
    /** Write one record header; payload appends follow. */
    void begin(std::string_view name, FieldType type);

    std::string _buf;
};

/**
 * Deserializing archive: replays an identical io() call sequence over
 * an encoded stream and overwrites the fields.  Any mismatch between
 * the stream and the expectation (path, type, premature end) is a
 * FatalError — a resume either applies completely or not at all.
 */
class InArchive : public ScopedArchive
{
  public:
    static constexpr bool isLoading = true;

    /** @param data Encoded stream; must outlive the archive. */
    explicit InArchive(std::string_view data) : _reader(data) {}

    void io(std::string_view name, bool &v);
    void io(std::string_view name, std::int32_t &v);
    void io(std::string_view name, std::uint16_t &v);
    void io(std::string_view name, std::uint32_t &v);
    void io(std::string_view name, std::int64_t &v);
    void io(std::string_view name, std::uint64_t &v);
    void io(std::string_view name, double &v);
    void io(std::string_view name, std::string &v);
    void io(std::string_view name, Energy &v);
    void io(std::string_view name, Power &v);
    void io(std::string_view name, std::vector<bool> &v);
    void io(std::string_view name, std::vector<std::int32_t> &v);
    void io(std::string_view name, std::vector<std::uint32_t> &v);
    void io(std::string_view name, std::vector<std::uint64_t> &v);
    void io(std::string_view name, std::vector<double> &v);
    void io(std::string_view name, std::vector<TimeSeries::Point> &v);

    template <class T>
    void
    io(std::string_view name, T &v)
    {
        pushScope(name);
        v.serialize(*this);
        popScope();
    }

    /** Whether every record has been consumed. */
    bool atEnd() const { return _reader.atEnd(); }

  private:
    /** Read the next record; fatal unless path+type match. */
    Record expect(std::string_view name, FieldType type);

    RecordReader _reader;
};

} // namespace neofog::snapshot

#endif // NEOFOG_SNAPSHOT_ARCHIVE_HH
