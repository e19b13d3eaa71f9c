/**
 * @file
 * The neofog-snapshot-v1 checkpoint container.
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
 *     {"schema": "neofog-snapshot-v1", "slot": S,
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

namespace neofog::snapshot {

/** Schema tag of the snapshot container format. */
inline constexpr const char *kSchema = "neofog-snapshot-v1";

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
    std::vector<Section> sections;

    /** Section by name; nullptr when absent. */
    const Section *find(std::string_view name) const;
};

/** Canonical file name for a slot: "snap-0000000042.nfsnap". */
std::string snapshotFileName(std::int64_t slot);

/**
 * Serialize and atomically write @p snap to @p path, creating parent
 * directories as needed.  configHash is recomputed from the "config"
 * section when one is present.
 */
void writeSnapshot(const std::string &path, const Snapshot &snap);

/**
 * Read and fully validate a snapshot file.  Throws FatalError on any
 * corruption: bad magic, foreign endianness, truncation, schema
 * mismatch, out-of-range sections, or checksum failures.
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
