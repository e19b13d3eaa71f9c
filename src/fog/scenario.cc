#include "fog/scenario.hh"

namespace neofog {

std::string
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::ForestIndependent: return "forest-independent";
      case TraceKind::BridgeDependent: return "bridge-dependent";
      case TraceKind::MountainSunny: return "mountain-sunny";
      case TraceKind::RainLow: return "rain-low";
      case TraceKind::Constant: return "constant";
    }
    return "?";
}

std::uint64_t
ScenarioConfig::idealPackages() const
{
    return static_cast<std::uint64_t>(nodesPerChain) * chains *
           static_cast<std::uint64_t>(slotCount());
}

std::int64_t
ScenarioConfig::slotCount() const
{
    return horizon / slotInterval;
}

Node::Config
ScenarioConfig::nodeConfig() const
{
    Node::Config node = nodeTemplate;
    node.mode = mode;
    node.rtc.interval = slotInterval;
    return node;
}

} // namespace neofog
