/**
 * @file
 * Scenario <-> snapshot glue: the archive walk over ScenarioConfig.
 *
 * The serialized scenario blob doubles as the snapshot's *fingerprint*:
 * a resume rebuilds the ScenarioConfig from the snapshot's own config
 * section, and the container layer (snapshot/snapshot.hh) hashes that
 * section so a header/config mismatch is rejected loudly.  Host-local
 * operational knobs — worker threads and the snapshot cadence itself —
 * are deliberately NOT part of the walk: they never influence results
 * (see DESIGN.md, "Threading and determinism model"), so a run may be
 * resumed under a different thread count or checkpoint schedule and
 * still reproduce the uninterrupted run bit for bit.
 */

#ifndef NEOFOG_FOG_SNAPSHOT_IO_HH
#define NEOFOG_FOG_SNAPSHOT_IO_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "fog/scenario.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"

namespace neofog {

/**
 * Archive enum @p value as its integer.  Loading refuses an integer
 * that names no enumerator of this build (0 through @p last).
 */
template <class Archive, class Enum>
void
ioEnum(Archive &ar, std::string_view name, Enum &value, Enum last)
{
    int raw = static_cast<int>(value);
    ar.io(name, raw);
    if constexpr (Archive::isLoading) {
        if (raw < 0 || raw > static_cast<int>(last))
            fatal("snapshot config has ", ar.path(name), " = ", raw,
                  ", which names no value of this build (0 to ",
                  static_cast<int>(last), ")");
        value = static_cast<Enum>(raw);
    }
}

/**
 * Archive every result-relevant Node::Config field.  Enums travel as
 * their integer values; size_t fields widen to u64 on the wire.
 */
template <class Archive>
void
serializeNodeConfig(Archive &ar, Node::Config &n)
{
    ar.io("id", n.id);
    ioEnum(ar, "mode", n.mode, OperatingMode::FiosNvMote);
    ar.io("cap", n.cap);
    ar.io("rtc", n.rtc);
    ar.io("sensor", n.sensor);
    ar.io("processor_mhz", n.processorMhz);
    std::uint64_t raw = n.rawPackageBytes;
    std::uint64_t compressed = n.compressedPackageBytes;
    std::uint64_t samples = n.samplesPerPackage;
    ar.io("raw_package_bytes", raw);
    ar.io("compressed_package_bytes", compressed);
    ar.io("samples_per_package", samples);
    if constexpr (Archive::isLoading) {
        n.rawPackageBytes = static_cast<std::size_t>(raw);
        n.compressedPackageBytes = static_cast<std::size_t>(compressed);
        n.samplesPerPackage = static_cast<std::size_t>(samples);
    }
    ar.io("fog_instructions_per_package", n.fogInstructionsPerPackage);
    ar.io("naive_instructions_per_package",
          n.naiveInstructionsPerPackage);
    ar.io("package_deadline_slots", n.packageDeadlineSlots);
    ar.io("enable_incidental_computing", n.enableIncidentalComputing);
    ar.io("incidental_fraction", n.incidentalFraction);
    ar.io("enable_frequency_scaling", n.enableFrequencyScaling);
    ar.io("buffer", n.buffer);
}

/**
 * Archive every result-relevant ScenarioConfig field (everything
 * except the host-local `threads` and `snapshot` knobs), plus the
 * fixed records of retired fields.
 */
template <class Archive>
void
serializeScenario(Archive &ar, ScenarioConfig &cfg)
{
    std::uint64_t nodes = cfg.nodesPerChain;
    std::uint64_t chains = cfg.chains;
    ar.io("nodes_per_chain", nodes);
    ar.io("chains", chains);
    if constexpr (Archive::isLoading) {
        cfg.nodesPerChain = static_cast<std::size_t>(nodes);
        cfg.chains = static_cast<std::size_t>(chains);
    }
    ar.io("multiplexing", cfg.multiplexing);
    ar.io("horizon", cfg.horizon);
    ar.io("slot_interval", cfg.slotInterval);
    ioEnum(ar, "trace_kind", cfg.traceKind, TraceKind::Constant);
    ar.io("profile_index", cfg.profileIndex);
    if constexpr (Archive::isLoading) {
        if (cfg.profileIndex < 0)
            fatal("snapshot config has ", ar.path("profile_index"), " = ",
                  cfg.profileIndex, ": day profiles count from 0");
    }
    ar.io("mean_income", cfg.meanIncome);
    ioEnum(ar, "mode", cfg.mode, OperatingMode::FiosNvMote);
    // The full balancer spec — policy name plus non-default
    // parameters, canonicalized by the FogSystem constructor — so a
    // resume under a differently *tuned* policy (not just a
    // different name) fails the fingerprint check.
    ar.io("balancer_policy", cfg.balancerPolicy);
    ar.io("loss", cfg.loss);
    ar.pushScope("node_template");
    serializeNodeConfig(ar, cfg.nodeTemplate);
    ar.popScope();
    ar.io("membership_update_interval", cfg.membershipUpdateInterval);
    ar.io("real_time_request_chance", cfg.realTimeRequestChance);
    ar.io("hop_by_hop_relay", cfg.hopByHopRelay);
    // Probes are a host-local ChainProbeLog now.  The records keep
    // their neofog-snapshot-v1 bytes (probes off, capacity 4096, every
    // slot), and a load drops what an older file holds there.
    bool probes_enabled = false;
    std::uint64_t probe_capacity = 4096;
    std::int64_t probe_every = 1;
    ar.pushScope("probes");
    ar.io("enabled", probes_enabled);
    ar.io("capacity", probe_capacity);
    ar.io("every_slots", probe_every);
    ar.popScope();
    // The energy cache is always on at its fixed grid, and the records
    // keep their neofog-snapshot-v1 bytes.  Any other value was
    // integrated on a deleted path and cannot resume bit-identically.
    constexpr Tick grid = ScenarioConfig::energyCache.grid;
    bool cache_enabled = true;
    Tick cache_grid = grid;
    ar.pushScope("energy_cache");
    ar.io("enabled", cache_enabled);
    ar.io("grid", cache_grid);
    if constexpr (Archive::isLoading) {
        if (!cache_enabled || cache_grid != grid)
            fatal("snapshot config has ", ar.path("enabled"), " = ",
                  cache_enabled ? "true" : "false", ", ",
                  ar.path("grid"), " = ", secondsFromTicks(cache_grid),
                  " s: that run integrated income on a retired "
                  "energy-cache path and cannot resume bit-identically "
                  "(this build needs true, ",
                  secondsFromTicks(grid), " s)");
    }
    ar.popScope();
    ar.io("seed", cfg.seed);
}

/** The scenario's canonical wire encoding (the fingerprint input). */
std::string serializeScenarioBlob(const ScenarioConfig &cfg);

/**
 * Rebuild a ScenarioConfig from a config-section blob.  Fatal when the
 * blob does not decode as exactly one scenario (version skew,
 * corruption).  The host-local knobs come back at their defaults.
 */
ScenarioConfig deserializeScenarioBlob(std::string_view blob);

/**
 * The scenario @p loaded archives in its config section.  Fatal when
 * the section is missing or does not decode.
 */
ScenarioConfig archivedScenario(const snapshot::LoadedSnapshot &loaded);

/** FNV-1a hash of the canonical encoding (the config fingerprint). */
std::uint64_t scenarioFingerprint(const ScenarioConfig &cfg);

} // namespace neofog

#endif // NEOFOG_FOG_SNAPSHOT_IO_HH
