/**
 * @file
 * Snapshot diffing: the engine behind tools/neofog_replay.
 *
 * Every archived field has a dotted path and a wire type: a path
 * record carries its own, and a neofog-snapshot-v2 chain section's
 * payload records take theirs from the file's table (see archive.hh).
 * The record walker (Snapshot::records) yields both alike, so two
 * snapshots — of either version, or one of each — can be compared
 * record-by-record without linking any simulator component: the first
 * diverging field is reported by name ("chain0.node3.cap.stored"),
 * with decoded values and — for vectors — the first differing element
 * index.
 * "Reports differ" debugging becomes a bisection: snapshot both runs
 * on a slot grid, diff the streams slot-by-slot, and the first
 * diverging slot + field names the subsystem that went off-script.
 */

#ifndef NEOFOG_SNAPSHOT_REPLAY_HH
#define NEOFOG_SNAPSHOT_REPLAY_HH

#include <string>

#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"

namespace neofog::snapshot {

/** Outcome of comparing two snapshots. */
struct DiffResult
{
    bool diverged = false;
    /** Where the first divergence sits: "header" or a section name. */
    std::string where;
    /** Dotted field path of the first diverging record (may be ""). */
    std::string path;
    /** Human-readable description of the divergence. */
    std::string detail;
};

/**
 * Compare two snapshots: header fields first, then every section's
 * record stream in file order.  Returns the FIRST divergence only
 * (later differences are usually cascade effects of the first).
 */
DiffResult diffSnapshots(const Snapshot &a, const Snapshot &b);

/**
 * Compare two record streams record-by-record.  @p where labels the
 * result; streams with different shapes (paths, types, lengths)
 * report a schema divergence.
 */
DiffResult diffRecords(const std::string &where, RecordReader a,
                       RecordReader b);

/** diffRecords() of two path-record streams. */
DiffResult diffSections(const std::string &where,
                        const std::string &a, const std::string &b);

} // namespace neofog::snapshot

#endif // NEOFOG_SNAPSHOT_REPLAY_HH
