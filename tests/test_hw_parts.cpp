/**
 * @file
 * Tests for sensors, the NV buffer, and the RTC.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "hw/nv_buffer.hh"
#include "hw/rtc.hh"
#include "hw/sensor.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

TEST(Sensor, Tmp101MatchesPaper)
{
    const SensorSpec s = sensors::tmp101();
    EXPECT_EQ(s.initLatency, ticksFromMs(566.0));
    EXPECT_EQ(s.sampleLatency, ticksFromMs(0.283));
    EXPECT_EQ(s.bytesPerSample, 2u);
}

TEST(Sensor, CatalogIsDistinct)
{
    EXPECT_NE(sensors::lis331dlh().partName, sensors::tmp101().partName);
    EXPECT_GT(sensors::lupa1399().bytesPerSample,
              sensors::uvMeter().bytesPerSample);
}

TEST(NvBuffer, PushPopAccounting)
{
    const NvBuffer::Config cfg{1024, 1.0, Energy::fromNanojoules(1.0),
                               Energy::fromNanojoules(0.5)};
    NvBuffer::State buf;
    EXPECT_EQ(buf.push(cfg, 600), 600u);
    EXPECT_EQ(buf.size, 600u);
    EXPECT_EQ(buf.push(cfg, 600), 424u); // 176 dropped
    EXPECT_EQ(buf.size, cfg.capacityBytes);
    EXPECT_EQ(buf.dropped, 176u);
    EXPECT_EQ(buf.pop(1000), 1000u);
    EXPECT_EQ(buf.pop(1000), 24u);
    EXPECT_EQ(buf.size, 0u);
    EXPECT_EQ(buf.accepted, 1024u);
}

TEST(NvBuffer, InterruptThreshold)
{
    const NvBuffer::Config cfg{1000, 0.5, Energy::zero(), Energy::zero()};
    NvBuffer::State buf;
    buf.push(cfg, 499);
    EXPECT_FALSE(buf.interruptPending(cfg));
    buf.push(cfg, 1);
    EXPECT_TRUE(buf.interruptPending(cfg));
}

TEST(NvBuffer, DiscardAllCountsDrops)
{
    const NvBuffer::Config cfg{1000, 1.0, Energy::zero(), Energy::zero()};
    NvBuffer::State buf;
    buf.push(cfg, 300);
    buf.discardAll();
    EXPECT_EQ(buf.size, 0u);
    EXPECT_EQ(buf.dropped, 300u);
}

TEST(NvBuffer, WriteReadEnergy)
{
    const NvBuffer::Config cfg{64 * 1024, 1.0, Energy::fromNanojoules(1.1),
                               Energy::fromNanojoules(0.3)};
    EXPECT_NEAR(cfg.writeEnergy(1000).nanojoules(), 1100.0, 1e-9);
    EXPECT_NEAR(cfg.readEnergy(1000).nanojoules(), 300.0, 1e-9);
}

TEST(NvBuffer, RejectsBadConfig)
{
    EXPECT_NO_THROW(NvBuffer::check(NvBuffer::Config{}));
    EXPECT_THROW(
        NvBuffer::check({0, 1.0, Energy::zero(), Energy::zero()}),
        FatalError);
    EXPECT_THROW(
        NvBuffer::check({10, 0.0, Energy::zero(), Energy::zero()}),
        FatalError);
}

TEST(Rtc, StaysSyncedWhilePowered)
{
    const Rtc::Config cfg;
    Rtc::State state = Rtc::initialState(cfg);
    RtcView rtc(cfg, state);
    for (int i = 0; i < 100; ++i)
        rtc.advance(12 * kSec, Energy::fromMicrojoules(50.0));
    EXPECT_TRUE(rtc.synchronized());
    EXPECT_EQ(rtc.desyncCount(), 0u);
}

TEST(Rtc, DesyncsWhenCapEmpties)
{
    Rtc::Config cfg;
    cfg.cap.initial = Energy::fromMicrojoules(50.0);
    cfg.cap.capacity = Energy::fromMillijoules(1.0);
    cfg.draw = Power::fromMicrowatts(1.0);
    Rtc::State state = Rtc::initialState(cfg);
    RtcView rtc(cfg, state);
    // 50 uJ at 1 uW draw + 0.5 uW cap leakage = ~33 s of life.
    rtc.advance(25 * kSec, Energy::zero());
    EXPECT_TRUE(rtc.synchronized());
    rtc.advance(40 * kSec, Energy::zero());
    EXPECT_FALSE(rtc.synchronized());
    EXPECT_EQ(rtc.desyncCount(), 1u);
    rtc.resynchronize();
    EXPECT_TRUE(rtc.synchronized());
}

TEST(Rtc, RejectsBadConfig)
{
    Rtc::Config cfg;
    cfg.interval = 0;
    EXPECT_THROW(Rtc::initialState(cfg), FatalError);
    Rtc::Config cfg2;
    cfg2.chargePriority = 2.0;
    EXPECT_THROW(Rtc::initialState(cfg2), FatalError);
}

/** A config whose dedicated cap lasts ~33 s with no income. */
Rtc::Config
starvingRtcConfig()
{
    Rtc::Config cfg;
    cfg.cap.initial = Energy::fromMicrojoules(50.0);
    cfg.cap.capacity = Energy::fromMillijoules(1.0);
    cfg.draw = Power::fromMicrowatts(1.0);
    return cfg;
}

// A desync is counted on the transition out of sync, not per starved
// advance: the count moves again only after a resynchronization.
TEST(RtcView, CountsOneDesyncPerLossOfSync)
{
    const Rtc::Config cfg = starvingRtcConfig();
    Rtc::State state = Rtc::initialState(cfg);
    RtcView rtc(cfg, state);

    for (int i = 0; i < 5; ++i)
        rtc.advance(40 * kSec, Energy::zero());
    EXPECT_FALSE(rtc.synchronized());
    EXPECT_EQ(rtc.desyncCount(), 1u);
    EXPECT_FALSE(state.synchronized);
    EXPECT_DOUBLE_EQ(rtc.cap().stored().joules(), 0.0);

    rtc.resynchronize();
    EXPECT_TRUE(state.synchronized);
    rtc.advance(40 * kSec, Energy::zero());
    EXPECT_EQ(rtc.desyncCount(), 2u);

    // Income that covers the draw keeps it synchronized.
    rtc.resynchronize();
    for (int i = 0; i < 5; ++i)
        rtc.advance(12 * kSec, Energy::fromMicrojoules(50.0));
    EXPECT_TRUE(rtc.synchronized());
    EXPECT_EQ(state.desyncs, 2u);
}

// An RTC's State archives as the records snapshot files carry: the
// dedicated cap's five Energy records, then a bool and a u64.
TEST(RtcState, ArchiveKeepsBoolAndU64WireEncoding)
{
    for (const bool sync : {false, true}) {
        Rtc::State state;
        state.cap.stored = Energy::fromJoules(3e-5);
        state.cap.leakedTotal = Energy::fromJoules(0.125);
        state.synchronized = sync;
        state.desyncs = 7;
        snapshot::OutArchive from_state;
        from_state.io("rtc", state);
        const std::string blob = from_state.take();

        // The record layout: the cap's records, a bool, a u64.
        snapshot::OutArchive wire;
        wire.pushScope("rtc");
        wire.io("cap", state.cap);
        bool flag = sync;
        wire.io("synchronized", flag);
        std::uint64_t count = 7;
        wire.io("desyncs", count);
        EXPECT_EQ(blob, wire.take()) << "sync " << sync;

        Rtc::State back;
        back.synchronized = !sync;
        snapshot::InArchive in{std::string_view(blob)};
        in.io("rtc", back);
        EXPECT_TRUE(in.atEnd());
        EXPECT_EQ(back.synchronized, sync);
        EXPECT_EQ(back.desyncs, 7u);
        EXPECT_EQ(back.cap.stored.joules(), 3e-5);
        EXPECT_EQ(back.cap.leakedTotal.joules(), 0.125);
    }
}

// The desync count is an integer cell: it increments and round-trips
// exactly past 2^53, where a double would round 2^53 + 1 away.
TEST(RtcView, DesyncCountExactBeyondDoublePrecision)
{
    const Rtc::Config cfg = starvingRtcConfig();
    constexpr std::uint64_t kBig = std::uint64_t{1} << 53;
    Rtc::State state;
    state.desyncs = kBig;
    RtcView rtc(cfg, state);
    rtc.advance(40 * kSec, Energy::zero()); // empty cap: desyncs
    ASSERT_EQ(rtc.desyncCount(), kBig + 1);

    snapshot::OutArchive out;
    out.io("rtc", state);
    const std::string blob = out.take();
    Rtc::State back;
    snapshot::InArchive in{std::string_view(blob)};
    in.io("rtc", back);
    const RtcView loaded(cfg, back);
    EXPECT_EQ(loaded.desyncCount(), kBig + 1);
    EXPECT_FALSE(loaded.synchronized());
}

} // namespace
} // namespace neofog
