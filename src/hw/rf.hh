/**
 * @file
 * RF transceiver models: software-initialized Zigbee vs NVRF.
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
 * The NVRF additionally supports state cloning (copying the NV register
 * file and NVM-held network state from a neighbour), which is the
 * hardware hook the NVD4Q virtualization algorithm relies on.
 */

#ifndef NEOFOG_HW_RF_HH
#define NEOFOG_HW_RF_HH

#include <cstdint>
#include <string>
#include <vector>

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

/**
 * Common transceiver interface.
 */
class RfModule
{
  public:
    struct Config
    {
        Power txPower = Power::fromMilliwatts(89.1);
        Power rxPower = Power::fromMilliwatts(72.0);
        Power idlePower = Power::fromMilliwatts(14.93);
        /** Draw during (software) initialization: standby + baseband. */
        Power initPower = Power::fromMilliwatts(24.93);
        double dataRateBps = 250000.0;
    };

    explicit RfModule(const Config &cfg);
    virtual ~RfModule() = default;

    /** Whether configuration/network state survives power-off. */
    virtual bool retainsState() const = 0;

    /**
     * Cost to make the transceiver ready to transmit after power-on.
     * For stateful modules this is the fast self-reinit path once the
     * one-time configuration has happened.
     */
    virtual RfPhase initCost() const = 0;

    /** Cost of transmitting @p bytes of payload. */
    virtual RfPhase txCost(std::size_t bytes) const = 0;

    /** Model name for reports. */
    virtual std::string name() const = 0;

    /** Cost of listening for @p duration. */
    RfPhase rxCost(Tick duration) const;

    /** Cost of idling (powered, not TX/RX) for @p duration. */
    RfPhase idleCost(Tick duration) const;

    /** Raw airtime of @p bytes at the configured data rate. */
    Tick airtime(std::size_t bytes) const;

    /** Mutable network state (valid while powered or if NV). */
    RfState &state() { return _state; }
    const RfState &state() const { return _state; }

    const Config &config() const { return _cfg; }

  protected:
    Config _cfg;
    RfState _state;
};

/**
 * Software-initialized volatile transceiver.  After every power
 * failure the host re-runs the full SPI configuration sequence.
 */
class SoftwareRf : public RfModule
{
  public:
    struct SwConfig
    {
        RfModule::Config base;
        /**
         * Full software (re)initialization latency.  531 ms with a VP
         * host reading from external flash; 33 ms when an NVP host
         * restores the config image straight from integrated NVM.
         */
        Tick initLatency = ticksFromMs(531.0);
        /** Fixed per-transmission protocol overhead. */
        Tick txFixed = ticksFromMs(255.0);
        /** Per-byte transmission cost (1.44 + 0.032 ms/byte). */
        double txPerByteMs = 1.472;
        /** Network (re)join after init: channel scan + association. */
        Tick rejoinLatency = ticksFromMs(200.0);
    };

    /** Construct with paper-default (VP host, 531 ms init) constants. */
    SoftwareRf();
    explicit SoftwareRf(const SwConfig &cfg);

    /** Config preset for an NVP host with NVM-direct initialization. */
    static SwConfig nvmDirectConfig();

    bool retainsState() const override { return false; }
    RfPhase initCost() const override;
    RfPhase txCost(std::size_t bytes) const override;
    std::string name() const override;

    const SwConfig &swConfig() const { return _sw; }

  private:
    SwConfig _sw;
};

/**
 * Nonvolatile RF controller (NVRF): an FSM plus NV register file that
 * initializes the transceiver without host involvement (direct
 * nonvolatile memory access) and keeps all network state across power
 * failures.
 */
class NvRfController : public RfModule
{
  public:
    struct NvConfig
    {
        RfModule::Config base;
        /** One-time configuration by the host processor. */
        Tick configureLatency = ticksFromMs(28.0);
        /** Self-reinitialization from the NV register file (27x). */
        Tick selfInitLatency = ticksFromMs(1.2);
        /** NVRF start + sync per transmission (1.74 + 0.156 ms). */
        Tick txFixed = ticksFromMs(1.896);
        /** Per-byte transmission cost (0.216 + 0.032 ms/byte). */
        double txPerByteMs = 0.248;
    };

    /** Construct with paper-default ML7266+NVRF constants. */
    NvRfController();
    explicit NvRfController(const NvConfig &cfg);

    bool retainsState() const override { return true; }
    RfPhase initCost() const override;
    RfPhase txCost(std::size_t bytes) const override;
    std::string name() const override { return "NVRF"; }

    /** Whether the one-time host configuration has been performed. */
    bool configured() const { return _configured; }

    /** Cost of the one-time host configuration; marks configured. */
    RfPhase configure();

    /**
     * Clone another NVRF's state (NVD4Q step: "copy its states of NVFF
     * in NVRF controller and NVM").  Marks this controller configured.
     * @return Cost of the state transfer over the air.
     */
    RfPhase cloneFrom(const NvRfController &other);

    const NvConfig &nvConfig() const { return _nv; }

  private:
    NvConfig _nv;
    bool _configured = false;
};

} // namespace neofog

#endif // NEOFOG_HW_RF_HH
