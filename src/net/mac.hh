/**
 * @file
 * Slotted MAC control payloads: the orphan-scan bypass and the rejoin.
 *
 * The RTC gives all nodes a common slot grid (§2.3); within a slot,
 * adjacent chain nodes exchange frames.  §4 models two Zigbee control
 * handshakes on top of the data hops:
 *  - the orphan-scan bypass when the next-hop node is dead (A
 *    broadcasts orphan_scan, C confirms, AssociatedDevList updates,
 *    then A->C directly);
 *  - the rejoin when a dead node recovers.
 *
 * ChainEngine::heal prices both with Node::payControlMessage and
 * Node::payReceive over the payload sizes below.
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

} // namespace neofog

#endif // NEOFOG_NET_MAC_HH
