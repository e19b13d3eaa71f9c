/**
 * @file
 * The distributed worker loop: one forked process simulating one
 * contiguous chain partition under coordinator control.
 *
 * A worker is a pure servant of the wire protocol (dist/wire.hh): it
 * introduces itself with HELLO (schema + scenario fingerprint), waits
 * for its ASSIGN (chain range, snapshot directory, resume flag),
 * builds or resumes a partition FogSystem, then serves STEP /
 * SNAPSHOT / SHARD_REQUEST / SHUTDOWN until told to exit.  It never
 * decides barriers or checkpoints itself — the coordinator owns the
 * schedule, so a respawned replacement re-walks the identical slot
 * grid from its latest checkpoint.
 */

#ifndef NEOFOG_DIST_WORKER_HH
#define NEOFOG_DIST_WORKER_HH

#include <cstddef>

#include "fog/scenario.hh"

namespace neofog::dist {

/**
 * Serve the coordinator on @p fd until SHUTDOWN (returns 0), the
 * coordinator vanishes (returns 1), or a fatal protocol/simulation
 * error (returns 2).  @p cfg is the scenario the worker process was
 * launched with; host-local knobs (threads, snapshot) apply
 * inside this worker.  The caller is a freshly forked child and must
 * `_Exit` with the returned code — never unwind into the parent's
 * atexit/destructor state.
 */
int runWorkerLoop(int fd, const ScenarioConfig &cfg,
                  std::size_t worker_index);

} // namespace neofog::dist

#endif // NEOFOG_DIST_WORKER_HH
