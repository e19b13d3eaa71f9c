/**
 * @file
 * Sensor models with the paper's measured timing/energy constants.
 *
 * §4 quotes TMP101 (init 566 ms, one sample 0.283 ms) and names the
 * other deployed sensors (LIS331DLH accelerometer, LUPA1399 image
 * sensor, UV photodiode, ECG front end); their constants are set from
 * datasheet-typical values.  Sensor configuration registers are
 * volatile: after a node power failure the sensor must be
 * re-initialized before sampling (one of the costs FIOS amortizes by
 * sampling in bursts into the NV buffer).  A node keeps that latch in
 * NodeState::sensorInitialized and reads the spec from its config.
 */

#ifndef NEOFOG_HW_SENSOR_HH
#define NEOFOG_HW_SENSOR_HH

#include <cstddef>
#include <string>

#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/** Static description of a sensor part. */
struct SensorSpec
{
    std::string partName = "TMP101";
    Tick initLatency = ticksFromMs(566.0);
    Power initPower = Power::fromMilliwatts(0.10);
    Tick sampleLatency = ticksFromMs(0.283);
    Power samplePower = Power::fromMilliwatts(0.30);
    std::size_t bytesPerSample = 2;

    /** Snapshot support (see src/snapshot/). */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("part_name", partName);
        ar.io("init_latency", initLatency);
        ar.io("init_power", initPower);
        ar.io("sample_latency", sampleLatency);
        ar.io("sample_power", samplePower);
        std::uint64_t bytes = bytesPerSample;
        ar.io("bytes_per_sample", bytes);
        if constexpr (Archive::isLoading)
            bytesPerSample = static_cast<std::size_t>(bytes);
    }

    /** Energy of one initialization. */
    Energy initEnergy() const { return initPower * initLatency; }
    /** Energy of one sample. */
    Energy sampleEnergy() const { return samplePower * sampleLatency; }
};

/** Catalog of the deployed sensor parts from Table 1 / §4. */
namespace sensors {

/** TMP101 temperature sensor (measured in the paper). */
SensorSpec tmp101();
/** LIS331DLH 3-axis accelerometer. */
SensorSpec lis331dlh();
/** LUPA1399 image sensor (one row-burst per sample). */
SensorSpec lupa1399();
/** ML8511-class UV photodiode. */
SensorSpec uvMeter();
/** Single-lead ECG analog front end. */
SensorSpec ecgAfe();
/** Piezo vibration pickup (bridge cable). */
SensorSpec piezoPickup();

} // namespace sensors

} // namespace neofog

#endif // NEOFOG_HW_SENSOR_HH
