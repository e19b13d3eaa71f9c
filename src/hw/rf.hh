/**
 * @file
 * RF transceiver parts: software-initialized Zigbee vs NVRF.
 *
 * Constants are the paper's ML7266 measurements (§4):
 *  - software init: 531 ms with the host MCU at 1 MHz (the MCU feeds
 *    configuration over SPI; the RF module burns standby power the
 *    whole time);
 *  - an NVP host reading config directly from NVM cuts this to 33 ms;
 *  - the NVRF controller self-initializes from its NV register file in
 *    1.2 ms (the 27x speedup) after a one-time 28 ms configuration;
 *  - data transmission of N bytes: (255 + 1.44N + 0.032N) ms via the
 *    software path vs (1.74 + 0.156 + 0.216N + 0.032N) ms via NVRF;
 *  - TX/RX 89.1 mW average, idle 14.93 mW.
 *
 * A part is a value: its constants plus closed-form costs.  One
 * factory per paper part builds it.  The NVRF's register file
 * (RfState) is what NVD4Q clones between physical nodes; the radio
 * part holds none of it.
 */

#ifndef NEOFOG_HW_RF_HH
#define NEOFOG_HW_RF_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/** Cost of one RF operation phase. */
struct RfPhase
{
    Tick duration = 0;
    Energy energy = Energy::zero();

    RfPhase operator+(const RfPhase &o) const
    { return {duration + o.duration, energy + o.energy}; }
    RfPhase &operator+=(const RfPhase &o)
    { duration += o.duration; energy += o.energy; return *this; }
};

/**
 * The network-facing state a transceiver holds: channel/PAN
 * configuration, route info, association list, and slot timing.  This
 * is what an NVRF keeps across power failures and what NVD4Q clones
 * between physical nodes.
 */
struct RfState
{
    int channel = 11;
    std::uint16_t panId = 0x2018;
    /** Version of routing info; bumped on network reconstruction. */
    std::uint64_t routeVersion = 0;
    /** Zigbee AssociatedDevList: ids of direct neighbours. */
    std::vector<std::uint32_t> associatedDevList;
    /** Slot phase offset within the wake-up rotation (NVD4Q). */
    int slotPhase = 0;
    /** Wake interval multiplier (NVD4Q clone count). */
    int wakeIntervalMultiplier = 1;

    bool operator==(const RfState &) const = default;

    /** Snapshot support: every field the NVRF retains. */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("channel", channel);
        ar.io("pan_id", panId);
        ar.io("route_version", routeVersion);
        ar.io("associated_dev_list", associatedDevList);
        ar.io("slot_phase", slotPhase);
        ar.io("wake_interval_multiplier", wakeIntervalMultiplier);
    }
};

/** One transceiver part: the §4 constants and their closed-form costs. */
struct Radio
{
    Power txPower = Power::fromMilliwatts(89.1);
    Power rxPower = Power::fromMilliwatts(72.0);
    Power idlePower = Power::fromMilliwatts(14.93);
    /** Draw during (software) initialization: standby + baseband. */
    Power initPower = Power::fromMilliwatts(24.93);
    double dataRateBps = 250000.0;

    /** Whether configuration/network state survives power-off. */
    bool nonvolatile = false;
    /**
     * Time to become ready to transmit after power-on: the software
     * init sequence, or the NVRF's self-init from its register file.
     */
    Tick initLatency = 0;
    /** Network (re)join after init, receiver on: scan + association. */
    Tick rejoinLatency = 0;
    /** The NVRF's one-time configuration by the host (0 otherwise). */
    Tick configureLatency = 0;
    /** Fixed per-transmission protocol overhead. */
    Tick txFixed = 0;
    /** Per-byte transmission cost. */
    double txPerByteMs = 0.0;

    /** Software RF behind a VP host: 531 ms init, 200 ms rejoin. */
    static Radio software();
    /** Software RF behind an NVP host reading its config straight from
     *  NVM: 33 ms init, 50 ms rejoin. */
    static Radio nvmDirect();
    /** NVRF: 1.2 ms self-init after a one-time 28 ms configuration. */
    static Radio nvrf();

    /** Cost to become ready to transmit after power-on (init + rejoin). */
    RfPhase initCost() const;

    /** Cost of the NVRF's one-time host configuration. */
    RfPhase configureCost() const;

    /** Cost of transmitting @p bytes of payload. */
    RfPhase txCost(std::size_t bytes) const;

    /** Cost of listening for @p duration. */
    RfPhase rxCost(Tick duration) const;

    /** Cost of idling (powered, not TX/RX) for @p duration. */
    RfPhase idleCost(Tick duration) const;

    /** Raw airtime of @p bytes at the data rate. */
    Tick airtime(std::size_t bytes) const;
};

// The per-transmission costs below are called from the node and fog
// libraries several times per node-slot, so they live here, inline
// (see DESIGN.md, "Performance: hot paths").

inline RfPhase
Radio::txCost(std::size_t bytes) const
{
    const Tick t =
        txFixed + ticksFromMs(txPerByteMs * static_cast<double>(bytes));
    return {t, txPower * t};
}

inline RfPhase
Radio::rxCost(Tick duration) const
{
    NEOFOG_ASSERT(duration >= 0, "negative RX duration");
    return {duration, rxPower * duration};
}

inline Tick
Radio::airtime(std::size_t bytes) const
{
    const double seconds = static_cast<double>(bytes) * 8.0 / dataRateBps;
    return ticksFromSeconds(seconds);
}

} // namespace neofog

#endif // NEOFOG_HW_RF_HH
