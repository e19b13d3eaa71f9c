/**
 * @file
 * NVD4Q: slotted time-multiplexing node virtualization for QoS
 * (paper Algorithm 2, §3.3).
 *
 * A *logical* node is implemented by a group of physical clones.  A new
 * physical node joins by opening its NVRF, finding the closest existing
 * node by RSSI, cloning that node's NVRF register file + NVM network
 * state, and synchronizing its timer.  Each clone then receives a phase
 * offset unique within the group and a wake-interval multiplier equal
 * to the clone count: in any slot exactly one clone of each logical
 * node wakes, so the network's (virtual) topology never changes, no
 * reconstruction is ever needed, and every physical node gets
 * multiplier-times longer to accumulate energy.
 */

#ifndef NEOFOG_VIRT_NVD4Q_HH
#define NEOFOG_VIRT_NVD4Q_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/rf.hh"
#include "net/topology.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace neofog {

/**
 * One logical node's set of physical clones with their slot rotation:
 * the model of Algorithm 2's group formation, used by the figure
 * benches and examples.  A ChainEngine does not hold groups: its
 * clones are contiguous and rotate together, so it keeps one rotation
 * counter per chain (ChainState::rotation) and schedules the same
 * member memberForSlot would.
 */
class CloneGroup
{
  public:
    /**
     * @param logical_id The logical node this group implements.
     * @param members Physical node ids; order fixes phase offsets.
     */
    CloneGroup(std::size_t logical_id,
               std::vector<std::size_t> members);

    std::size_t logicalId() const { return _logicalId; }
    const std::vector<std::size_t> &members() const { return _members; }
    int multiplier() const { return static_cast<int>(_members.size()); }
    /** Accumulated membership rotations (Algorithm 2 phase shift). */
    int rotation() const { return _rotation; }

    /** The physical member that wakes in the given global slot. */
    std::size_t memberForSlot(std::int64_t slot_index) const;

    /** Phase offset of a member (its index in the rotation). */
    int phaseOf(std::size_t physical_id) const;

    /** Whether a physical node belongs to this group. */
    bool contains(std::size_t physical_id) const;

    /**
     * Membership update (programmer-defined frequency, e.g. moving
     * objects): rotate the phase assignment so wear levels out.
     */
    void rotateMembership();

  private:
    std::size_t _logicalId;
    std::vector<std::size_t> _members;
    int _rotation = 0;
};

/**
 * Cost bookkeeping of the Algorithm 2 join procedure.
 */
struct JoinCost
{
    Tick duration = 0;
    Energy energy = Energy::zero();
};

/**
 * NVD4Q manager: group formation and the join protocol.
 */
class Nvd4qManager
{
  public:
    /**
     * Form clone groups over a densified chain: every physical node
     * attaches to its nearest anchor (the first node of each logical
     * site), mirroring the RSSI-based closest-node search of
     * Algorithm 2.  Physical node i*density+0 is the anchor of logical
     * node i (see ChainMesh::makeDenseChain).
     *
     * @param mesh Physical placement.
     * @param n_logical Number of logical chain positions.
     * @param density Physical nodes per logical position.
     */
    static std::vector<CloneGroup>
    formGroups(const ChainMesh &mesh, std::size_t n_logical, int density);

    /**
     * Price the Algorithm 2 join: open NVRF, listen for the closest
     * node, clone its state, sync timer, close NVRF.  The joiner's
     * register file becomes a copy of the source's.
     *
     * @param nvrf The joiner's radio part; fatal unless an NVRF.
     * @param joiner The new node's NVRF register file.
     * @param source The closest node's NVRF register file.
     */
    static JoinCost joinCost(const Radio &nvrf, RfState &joiner,
                             const RfState &source);

    /**
     * Slot-level QoS of a group over a horizon: fraction of logical
     * slots in which the scheduled clone was able to serve (as judged
     * by @p served per (slot, member)).  Helper for tests.
     */
    static double
    groupQos(const CloneGroup &group, std::int64_t slots,
             const std::vector<std::vector<bool>> &member_served);
};

} // namespace neofog

#endif // NEOFOG_VIRT_NVD4Q_HH
