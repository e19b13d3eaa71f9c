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
 * Two record layouts share one payload encoding.  Path records
 * (Layout::Paths) are self-describing:
 *
 *     [u16 path length][path bytes][u8 FieldType][payload]
 *
 * where the path is the '.'-joined scope stack plus the field name
 * ("chain0.node3.cap.stored").  Payload records (Layout::Payloads)
 * drop the path:
 *
 *     [u8 FieldType][payload]
 *
 * and a FieldTable names them: the (path, type) list of the stream,
 * written once beside it.  Everything is explicitly little-endian;
 * doubles are stored as their IEEE-754 bit pattern so NaN payloads and
 * signed zeros round-trip exactly (resume bit-identity depends on it).
 *
 * Path records are what the config and system sections of a snapshot,
 * every chain section of a neofog-snapshot-v1 file and every
 * neofog-wire-v1 frame hold: InArchive verifies each record's path and
 * type against what the loading code expects.  A neofog-snapshot-v2
 * chain section holds payload records, whose paths (80% of a path
 * stream's bytes) all chains of a system share: the loader checks the
 * file's table against the fields it expects once per file, and
 * InArchive then checks each record's type tag.  Either way version
 * skew and corruption fail loudly instead of misassigning bytes, and
 * RecordReader walks both layouts as (path, type, payload), so
 * tools/neofog_replay can name the first diverging field of any two
 * streams without linking the component code at all.
 */

#ifndef NEOFOG_SNAPSHOT_ARCHIVE_HH
#define NEOFOG_SNAPSHOT_ARCHIVE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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

/** How an archive lays out its records (see the file comment). */
enum class Layout : std::uint8_t
{
    Paths,    ///< [u16 path length][path][u8 type][payload]
    Payloads, ///< [u8 type][payload]; a FieldTable holds the paths
};

/**
 * One decoded record: views into the underlying stream, except the
 * path of a tabled record, which views its RecordReader.
 */
struct Record
{
    std::string_view path;
    FieldType type = FieldType::Bool;
    std::string_view payload; ///< raw payload bytes, excluding header
};

/**
 * The ordered (path, type) list of a record stream: what names the
 * payload records of a Layout::Payloads stream.  Encoded as
 *
 *     [u32 entry count], then per entry
 *     [u16 path length][path bytes][u8 FieldType]
 *
 * It owns its bytes, so copies and moves keep it valid.
 */
class FieldTable
{
  public:
    /** The empty table. */
    FieldTable() : _bytes(4, '\0') {}

    /** The table of a Layout::Paths stream: its records' paths and types. */
    static FieldTable of(std::string_view path_records);

    /**
     * Decode table bytes.  FatalError naming the entry on a truncated
     * table, a bad type tag, a path length or entry count past the
     * end, or trailing bytes.
     */
    static FieldTable decode(std::string_view bytes);

    std::size_t size() const { return _entries.size(); }
    std::string_view path(std::size_t i) const
    {
        return std::string_view(_bytes).substr(_entries[i].offset,
                                               _entries[i].length);
    }
    FieldType type(std::size_t i) const { return _entries[i].type; }

    /** The encoded table. */
    const std::string &bytes() const { return _bytes; }

    bool operator==(const FieldTable &other) const
    { return _bytes == other._bytes; }

  private:
    struct Entry
    {
        std::uint32_t offset;
        std::uint16_t length;
        FieldType type;
    };

    std::string _bytes;
    std::vector<Entry> _entries;
};

/**
 * Fatal unless @p file lists exactly the entries of @p loader, the
 * table of the fields the loading code expects.  The message starts
 * with @p what and names the first entry that differs.
 */
void checkTable(const FieldTable &file, const FieldTable &loader,
                std::string_view what);

/**
 * Sequential reader over a record stream, yielding (path, type,
 * payload) for both layouts.  Malformed streams (bad type tag,
 * truncated payload, a record the table does not list) raise
 * FatalError naming the record.
 */
class RecordReader
{
  public:
    /** Layout::Paths records, named by their own paths. */
    explicit RecordReader(std::string_view data) : _data(data) {}

    /**
     * Layout::Payloads records named by @p table: record i is
     * @p scope + table.path(i) and must have table.type(i), and the
     * stream holds exactly table.size() records.  @p table must
     * outlive the reader.
     */
    RecordReader(std::string_view data, const FieldTable &table,
                 std::string scope)
        : _data(data), _table(&table), _scope(std::move(scope))
    {}
    RecordReader(std::string_view, FieldTable &&, std::string) = delete;

    /**
     * Decode the next record; false cleanly at end of stream.  The
     * path of a tabled record views a buffer the next call reuses.
     */
    bool next(Record &out);

    /**
     * Decode the next Layout::Payloads record without a table: it
     * must have type @p type, and messages name it @p scope + @p name.
     * False cleanly at end of stream.
     */
    bool nextPayload(Record &out, FieldType type, std::string_view scope,
                     std::string_view name);

    bool atEnd() const { return _pos >= _data.size(); }
    std::size_t position() const { return _pos; }

  private:
    /**
     * The payload of a @p type record at the current position; its
     * name in messages is @p scope + @p name.
     */
    std::string_view takePayload(FieldType type, std::string_view scope,
                                 std::string_view name);

    std::string_view _data;
    std::size_t _pos = 0;
    const FieldTable *_table = nullptr;
    std::string _scope;     ///< "chain3." of a tabled section
    std::size_t _index = 0; ///< table entry of the next record
    std::string _path;      ///< full path of the last tabled record
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
 * Serializing archive: encodes io() calls into a byte string of
 * @p layout records.
 */
class OutArchive : public ScopedArchive
{
  public:
    static constexpr bool isLoading = false;

    explicit OutArchive(Layout layout = Layout::Paths) : _layout(layout) {}

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

    Layout _layout;
    std::string _buf;
};

/**
 * Deserializing archive: replays an identical io() call sequence over
 * an encoded stream and overwrites the fields.  Any mismatch between
 * the stream and the expectation (path, type, premature end) is a
 * FatalError — a resume either applies completely or not at all.  A
 * Layout::Payloads stream carries no paths, so its caller checks the
 * stream's FieldTable against the fields it expects (checkTable), and
 * the archive checks each record's type tag.
 */
class InArchive : public ScopedArchive
{
  public:
    static constexpr bool isLoading = true;

    /**
     * @param data Encoded stream; must outlive the archive.
     * @param layout How @p data lays out its records.
     */
    explicit InArchive(std::string_view data,
                       Layout layout = Layout::Paths)
        : _reader(data), _layout(layout)
    {}

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
    Layout _layout;
};

} // namespace neofog::snapshot

#endif // NEOFOG_SNAPSHOT_ARCHIVE_HH
