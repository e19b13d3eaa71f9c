#include "virt/nvd4q.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace neofog {

CloneGroup::CloneGroup(std::size_t logical_id,
                       std::vector<std::size_t> members)
    : _logicalId(logical_id), _members(std::move(members))
{
    if (_members.empty())
        fatal("clone group needs at least one member");
}

std::size_t
CloneGroup::memberForSlot(std::int64_t slot_index) const
{
    const auto k = static_cast<std::int64_t>(_members.size());
    std::int64_t idx = (slot_index + _rotation) % k;
    if (idx < 0)
        idx += k;
    return _members[static_cast<std::size_t>(idx)];
}

int
CloneGroup::phaseOf(std::size_t physical_id) const
{
    for (std::size_t i = 0; i < _members.size(); ++i) {
        if (_members[i] == physical_id) {
            const auto k = static_cast<int>(_members.size());
            return static_cast<int>((static_cast<int>(i) -
                                     _rotation % k + k) % k);
        }
    }
    fatal("node ", physical_id, " is not a member of logical group ",
          _logicalId);
}

bool
CloneGroup::contains(std::size_t physical_id) const
{
    return std::find(_members.begin(), _members.end(), physical_id) !=
           _members.end();
}

void
CloneGroup::rotateMembership()
{
    ++_rotation;
}

std::vector<CloneGroup>
Nvd4qManager::formGroups(const ChainMesh &mesh, std::size_t n_logical,
                         int density)
{
    NEOFOG_ASSERT(density >= 1, "density must be >= 1");
    if (mesh.size() != n_logical * static_cast<std::size_t>(density))
        fatal("mesh size ", mesh.size(), " != n_logical*density ",
              n_logical * static_cast<std::size_t>(density));

    // Anchors are the nodes placed exactly on the chain line (index
    // i*density).  Every other node attaches to the nearest anchor —
    // the RSSI-based closest-node search of Algorithm 2, line 2.
    std::vector<std::vector<std::size_t>> members(n_logical);
    for (std::size_t i = 0; i < n_logical; ++i)
        members[i].push_back(i * static_cast<std::size_t>(density));

    for (std::size_t p = 0; p < mesh.size(); ++p) {
        if (p % static_cast<std::size_t>(density) == 0)
            continue; // anchor
        std::size_t best = 0;
        double best_d = distance(mesh.position(p), mesh.position(0));
        for (std::size_t i = 0; i < n_logical; ++i) {
            const std::size_t anchor =
                i * static_cast<std::size_t>(density);
            const double d =
                distance(mesh.position(p), mesh.position(anchor));
            if (d < best_d) {
                best_d = d;
                best = i;
            }
        }
        members[best].push_back(p);
    }

    std::vector<CloneGroup> groups;
    groups.reserve(n_logical);
    for (std::size_t i = 0; i < n_logical; ++i)
        groups.emplace_back(i, std::move(members[i]));
    return groups;
}

JoinCost
Nvd4qManager::joinCost(const Radio &nvrf, RfState &joiner,
                       const RfState &source)
{
    if (!nvrf.nonvolatile)
        fatal("an NVD4Q join clones an NVRF register file; the radio "
              "is not an NVRF");
    JoinCost cost;
    // Line 1-2: open the NVRF and listen for the closest node's beacon
    // (one slot-beacon listen window).
    const Tick listen = ticksFromMs(25.0);
    cost.duration += listen;
    cost.energy += nvrf.rxCost(listen).energy;
    // Line 3: copy NVFF + NVM state over the air.  The register file
    // and association list fit in a small frame: one short RX window,
    // then the self-init that latches it.
    joiner = source;
    const Tick rx_window =
        nvrf.airtime(64 + 4 * source.associatedDevList.size()) +
        ticksFromMs(2.0);
    const RfPhase clone = nvrf.rxCost(rx_window) + nvrf.initCost();
    cost.duration += clone.duration;
    cost.energy += clone.energy;
    // Line 4: timer sync (short beacon exchange), then NVRF off.
    const Tick sync = ticksFromMs(3.0);
    cost.duration += sync;
    cost.energy += nvrf.rxCost(sync).energy;
    return cost;
}

double
Nvd4qManager::groupQos(const CloneGroup &group, std::int64_t slots,
                       const std::vector<std::vector<bool>> &member_served)
{
    NEOFOG_ASSERT(member_served.size() == group.members().size(),
                  "served matrix shape");
    if (slots <= 0)
        return 0.0;
    std::int64_t served = 0;
    for (std::int64_t s = 0; s < slots; ++s) {
        const std::size_t member = group.memberForSlot(s);
        // Index within the group.
        std::size_t mi = 0;
        for (std::size_t i = 0; i < group.members().size(); ++i) {
            if (group.members()[i] == member) {
                mi = i;
                break;
            }
        }
        const auto &row = member_served[mi];
        NEOFOG_ASSERT(static_cast<std::size_t>(s) < row.size(),
                      "served matrix horizon");
        if (row[static_cast<std::size_t>(s)])
            ++served;
    }
    return static_cast<double>(served) / static_cast<double>(slots);
}

} // namespace neofog
