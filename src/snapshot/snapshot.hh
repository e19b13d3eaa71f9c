/**
 * @file
 * The neofog-snapshot-v2 checkpoint container (which also reads
 * neofog-snapshot-v1 files).
 *
 * On-disk layout (all integers little-endian):
 *
 *     offset 0   magic "NFSNAP01"                      (8 bytes)
 *     offset 8   endianness marker 0x0A0B0C0D          (u32)
 *     offset 12  header length                         (u32)
 *     offset 16  JSON header                           (headerLen bytes)
 *     ...        section payloads, back to back
 *
 * The JSON header is self-describing:
 *
 *     {"schema": "neofog-snapshot-v2", "slot": S,
 *      "config_hash": "<16 hex>", "seed": N, "chains": C,
 *      "sections": [{"name": "config", "offset": 0, "size": N,
 *                    "hash": "<16 hex>"}, ...]}
 *
 * Section offsets are relative to the end of the header; every
 * section carries an FNV-1a 64 checksum, and `config_hash` repeats
 * the checksum of the "config" section (the scenario fingerprint a
 * resume is validated against).  readSnapshot() verifies magic,
 * endianness, schema tag, section bounds, and every checksum before
 * returning — a corrupt or truncated file is rejected with a
 * FatalError and never yields a partial snapshot.
 *
 * The "config" and "system" sections hold path records (see
 * archive.hh).  In a v2 file every "chain<i>" section holds payload
 * records, and the last section, "table", holds the FieldTable that
 * names them: the (path relative to "chain<i>.", type) list all chain
 * sections of a system share.  readSnapshot() decodes the table into
 * Snapshot::table.  A v1 file has no table; its chain sections hold
 * path records, which the loader checks as it always did.  Only v2 is
 * written.
 *
 * Files are written atomically (temp file + rename) so a crash during
 * a checkpoint leaves at most a stale "<name>.tmp", never a torn
 * snapshot that a later resume could trust.
 */

#ifndef NEOFOG_SNAPSHOT_SNAPSHOT_HH
#define NEOFOG_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/archive.hh"

namespace neofog::snapshot {

/** Schema tag of the snapshot container this build writes. */
inline constexpr const char *kSchema = "neofog-snapshot-v2";

/** Schema tag of the older container this build still reads. */
inline constexpr const char *kSchemaV1 = "neofog-snapshot-v1";

/** Name of a v2 file's chain-table section. */
inline constexpr const char *kTableSection = "table";

/** File magic (8 bytes at offset 0). */
inline constexpr const char *kMagic = "NFSNAP01";

/** Endianness marker written as a little-endian u32 at offset 8. */
inline constexpr std::uint32_t kEndianMarker = 0x0A0B0C0DU;

/** One named payload blob ("config", "system", "chain0", ...). */
struct Section
{
    std::string name;
    std::string data;
};

/** A fully validated in-memory snapshot. */
struct Snapshot
{
    std::int64_t slot = 0;        ///< first slot a resume will run
    std::uint64_t configHash = 0; ///< FNV-1a of the config section
    std::uint64_t seed = 0;       ///< scenario seed (convenience copy)
    std::uint64_t chains = 0;     ///< chain count (shard sections)
    /**
     * Container version: 2 for every snapshot this build writes, 1 for
     * a neofog-snapshot-v1 file read back.
     */
    int version = 2;
    /** Names the payload records of every chain section (v2 only). */
    FieldTable table;
    /** config, system and the chain sections; never the table. */
    std::vector<Section> sections;

    /** Section by name; nullptr when absent. */
    const Section *find(std::string_view name) const;

    /**
     * Whether @p sec holds payload records named by the table: a chain
     * section of a v2 snapshot.
     */
    bool tabled(const Section &sec) const;

    /**
     * The record walker of @p sec, one of this snapshot's sections:
     * (path, type, payload) for both versions, a tabled section's
     * paths named "<section>." + its table entry.  The snapshot must
     * outlive the walker.
     */
    RecordReader records(const Section &sec) const;
};

/** Canonical file name for a slot: "snap-0000000042.nfsnap". */
std::string snapshotFileName(std::int64_t slot);

/**
 * Serialize and atomically write @p snap to @p path as a v2 file (its
 * sections, then its table), creating parent directories as needed.
 * configHash is recomputed from the "config" section when one is
 * present.  Fatal for a v1 snapshot: v1 files are read, never written.
 */
void writeSnapshot(const std::string &path, const Snapshot &snap);

/**
 * Read and fully validate a v1 or v2 snapshot file.  Throws FatalError
 * on any corruption: bad magic, foreign endianness, truncation, an
 * unknown schema, out-of-range sections, checksum failures, or a v2
 * file whose table is missing or does not decode.
 */
Snapshot readSnapshot(const std::string &path);

/** A validated snapshot and the file it was read from. */
struct LoadedSnapshot
{
    std::string path;
    Snapshot snap;
};

/**
 * Newest fully valid snapshot in @p dir, read once: candidates are
 * tried newest slot first, and the first one readSnapshot accepts is
 * returned; std::nullopt when none qualifies.  Invalid or torn
 * candidates are skipped, so resuming "from the latest shard set"
 * survives a crash mid-checkpoint, and older files are never opened
 * once a newer one validates.
 */
std::optional<LoadedSnapshot> readLatestSnapshot(const std::string &dir);

/**
 * Path of readLatestSnapshot(@p dir), or "" when no file in @p dir
 * qualifies.
 */
std::string latestSnapshot(const std::string &dir);

/**
 * Read a user-supplied --resume argument: a file path is read as-is;
 * a directory yields its newest valid snapshot.  Fatal when the file
 * is corrupt or a directory holds no valid snapshot.
 */
LoadedSnapshot loadSnapshot(const std::string &path);

} // namespace neofog::snapshot

#endif // NEOFOG_SNAPSHOT_SNAPSHOT_HH
