#include "hw/sensor.hh"

namespace neofog {

namespace sensors {

SensorSpec
tmp101()
{
    // Measured in the paper: init 566 ms, one sample 0.283 ms.
    SensorSpec s;
    s.partName = "TMP101";
    s.initLatency = ticksFromMs(566.0);
    s.initPower = Power::fromMilliwatts(0.10);
    s.sampleLatency = ticksFromMs(0.283);
    s.samplePower = Power::fromMilliwatts(0.30);
    s.bytesPerSample = 2;
    return s;
}

SensorSpec
lis331dlh()
{
    SensorSpec s;
    s.partName = "LIS331DLH";
    s.initLatency = ticksFromMs(10.0);
    s.initPower = Power::fromMilliwatts(0.25);
    s.sampleLatency = ticksFromMs(1.0);
    s.samplePower = Power::fromMilliwatts(0.82);
    s.bytesPerSample = 6; // 3 axes x 16 bit
    return s;
}

SensorSpec
lupa1399()
{
    SensorSpec s;
    s.partName = "LUPA1399";
    s.initLatency = ticksFromMs(5.0);
    s.initPower = Power::fromMilliwatts(20.0);
    s.sampleLatency = ticksFromMs(8.0); // one row burst
    s.samplePower = Power::fromMilliwatts(115.0);
    s.bytesPerSample = 1280;
    return s;
}

SensorSpec
uvMeter()
{
    SensorSpec s;
    s.partName = "ML8511";
    s.initLatency = ticksFromMs(1.0);
    s.initPower = Power::fromMilliwatts(0.30);
    s.sampleLatency = ticksFromMs(0.3);
    s.samplePower = Power::fromMilliwatts(0.30);
    s.bytesPerSample = 2;
    return s;
}

SensorSpec
ecgAfe()
{
    SensorSpec s;
    s.partName = "ECG-AFE";
    s.initLatency = ticksFromMs(50.0);
    s.initPower = Power::fromMilliwatts(0.5);
    s.sampleLatency = ticksFromMs(4.0); // 250 Hz stream
    s.samplePower = Power::fromMilliwatts(0.35);
    s.bytesPerSample = 2;
    return s;
}

SensorSpec
piezoPickup()
{
    SensorSpec s;
    s.partName = "PIEZO";
    s.initLatency = ticksFromMs(2.0);
    s.initPower = Power::fromMilliwatts(0.05);
    s.sampleLatency = ticksFromMs(0.5);
    s.samplePower = Power::fromMilliwatts(0.20);
    s.bytesPerSample = 2;
    return s;
}

} // namespace sensors

} // namespace neofog
