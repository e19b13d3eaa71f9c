#include "node/node_state.hh"

#include <utility>

namespace neofog {

NodeState::NodeState(const SuperCapacitor::State &cap_start,
                     const Rtc::State &rtc_start, std::size_t pending_depth,
                     bool nvrf_radio)
    : cap(cap_start), rtc(rtc_start), nvrf(nvrf_radio),
      pendingByAge(pending_depth, 0)
{
    NEOFOG_ASSERT(pending_depth >= 1, "pending queue needs depth >= 1");
}

void
NodeState::checkRadio(const std::string &node, const RfState &radio,
                      bool configured)
{
    const RfState fixed;
    const std::pair<const char *, bool> fields[] = {
        {"channel", radio.channel != fixed.channel},
        {"pan_id", radio.panId != fixed.panId},
        {"route_version", radio.routeVersion != fixed.routeVersion},
        {"associated_dev_list",
         radio.associatedDevList != fixed.associatedDevList},
        {"slot_phase", radio.slotPhase != fixed.slotPhase},
        {"wake_interval_multiplier",
         radio.wakeIntervalMultiplier != fixed.wakeIntervalMultiplier},
    };
    for (const auto &[field, differs] : fields)
        if (differs)
            fatal("snapshot field '", node, "rf_state.", field,
                  "' differs from the radio's deployment state, which no "
                  "run changes");
    if (!configured)
        fatal("snapshot field '", node, "nvrf.configured' is false, but "
              "every NVRF is configured at deployment");
}

void
NodeState::checkPendingQueue(const std::string &path,
                             std::size_t depth) const
{
    if (pendingByAge.size() != depth)
        fatal("snapshot field '", path, "' has ", pendingByAge.size(),
              " ages, but the node's freshness deadline gives ", depth);
    std::int64_t sum = 0;
    for (std::size_t age = 0; age < pendingByAge.size(); ++age) {
        if (pendingByAge[age] < 0)
            fatal("snapshot field '", path, "' holds ", pendingByAge[age],
                  " packages of age ", age);
        sum += pendingByAge[age];
    }
    if (sum != pendingPackages)
        fatal("snapshot field '", path, "' sums to ", sum,
              " packages, but pending_packages is ", pendingPackages);
}

NodeState &
NodeShard::add(NodeState state)
{
    if (_states.size() == _states.capacity())
        fatal("node shard full at ", _states.size(),
              " rows: reserve it for the whole chain before adding");
    return _states.emplace_back(std::move(state));
}

std::size_t
NodeShard::residentBytes() const
{
    std::size_t bytes =
        sizeof(NodeShard) + _states.capacity() * sizeof(NodeState);
    for (const NodeState &s : _states)
        bytes += s.pendingByAge.capacity() * sizeof(int);
    return bytes;
}

} // namespace neofog
