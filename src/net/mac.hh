/**
 * @file
 * Slotted MAC control payloads: the orphan-scan bypass, the rejoin and
 * the load balancer's beacon.
 *
 * The RTC gives all nodes a common slot grid (§2.3); within a slot,
 * adjacent chain nodes exchange frames.  §4 models two Zigbee control
 * handshakes on top of the data hops:
 *  - the orphan-scan bypass when the next-hop node is dead (A
 *    broadcasts orphan_scan, C confirms, AssociatedDevList updates,
 *    then A->C directly);
 *  - the rejoin when a dead node recovers.
 *
 * A chain's Node::Spec prices each frame below once, as a control
 * frame and the listen window that receives it, and ChainEngine::heal
 * pays those prices (Node::payControl, Node::payListen).  The load
 * balancer's state share rides the slot beacon as one more control
 * frame, priced the same way.
 */

#ifndef NEOFOG_NET_MAC_HH
#define NEOFOG_NET_MAC_HH

#include <cstddef>

namespace neofog {

/** Payload of an orphan_scan broadcast. */
inline constexpr std::size_t kOrphanScanBytes = 12;
/** Payload of a scan_confirm unicast. */
inline constexpr std::size_t kScanConfirmBytes = 16;
/** Payload of an AssociatedDevList update entry. */
inline constexpr std::size_t kDevListEntryBytes = 4;
/** Payload of a node's load-balance state share on the slot beacon. */
inline constexpr std::size_t kLbBeaconBytes = 4;

} // namespace neofog

#endif // NEOFOG_NET_MAC_HH
