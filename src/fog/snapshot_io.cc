#include "fog/snapshot_io.hh"

#include "sim/logging.hh"

namespace neofog {

std::string
serializeScenarioBlob(const ScenarioConfig &cfg)
{
    // The walk is symmetric, so serializing needs a mutable copy.
    ScenarioConfig copy = cfg;
    snapshot::OutArchive ar;
    serializeScenario(ar, copy);
    return ar.take();
}

ScenarioConfig
deserializeScenarioBlob(std::string_view blob)
{
    snapshot::InArchive ar(blob);
    ScenarioConfig cfg;
    serializeScenario(ar, cfg);
    if (!ar.atEnd())
        fatal("snapshot config section has trailing records "
              "(format/version skew?)");
    return cfg;
}

ScenarioConfig
archivedScenario(const snapshot::LoadedSnapshot &loaded)
{
    const snapshot::Section *config = loaded.snap.find("config");
    if (config == nullptr)
        fatal("snapshot ", loaded.path, " has no config section");
    return deserializeScenarioBlob(config->data);
}

std::uint64_t
scenarioFingerprint(const ScenarioConfig &cfg)
{
    return snapshot::fnv1a(serializeScenarioBlob(cfg));
}

} // namespace neofog
