#include "node/node_soa.hh"

#include "sim/logging.hh"

namespace neofog {

void
NodeShard::reserveRows(std::size_t row_count, std::size_t pending_depth)
{
    capStoredJ.reserve(row_count);
    capChargedJ.reserve(row_count);
    capOverflowJ.reserve(row_count);
    capLeakedJ.reserve(row_count);
    capDischargedJ.reserve(row_count);
    rtcStoredJ.reserve(row_count);
    rtcChargedJ.reserve(row_count);
    rtcOverflowJ.reserve(row_count);
    rtcLeakedJ.reserve(row_count);
    rtcDischargedJ.reserve(row_count);
    rtcSync.reserve(row_count);
    rtcDesyncs.reserve(row_count);
    directBudgetJ.reserve(row_count);
    sensor.reserve(row_count);
    buffer.reserve(row_count);
    rf.reserve(row_count);
    lastAccrual.reserve(row_count);
    slotStart.reserve(row_count);
    slotLength.reserve(row_count);
    slotTimeUsed.reserve(row_count);
    lastIncome.reserve(row_count);
    awake.reserve(row_count);
    rfInitializedThisSlot.reserve(row_count);
    slotCostsValid.reserve(row_count);
    slotTaskCost.reserve(row_count);
    slotTaskTime.reserve(row_count);
    pendingPackages.reserve(row_count);
    pendingOffset.reserve(row_count);
    pendingDepth.reserve(row_count);
    pendingAge.reserve(row_count * pending_depth);
    stats.reserve(row_count);
}

std::uint32_t
NodeShard::addRow(const SuperCapacitor::Config &cap_cfg,
                  const Rtc::Config &rtc_cfg, const SensorSpec &spec,
                  const NvBuffer::Config &buffer_cfg,
                  std::size_t pending_depth,
                  std::unique_ptr<RfModule> radio)
{
    NEOFOG_ASSERT(pending_depth >= 1, "pending queue needs depth >= 1");
    NEOFOG_ASSERT(radio != nullptr, "node row needs a radio");
    const auto row = static_cast<std::uint32_t>(rows());
    // Construct throwaway parts to reuse their config validation and
    // initial-charge semantics, then seed the columns from them.
    const SuperCapacitor seed_cap(cap_cfg);
    const Rtc seed_rtc(rtc_cfg);
    capStoredJ.push_back(seed_cap.stored().joules());
    capChargedJ.push_back(0.0);
    capOverflowJ.push_back(0.0);
    capLeakedJ.push_back(0.0);
    capDischargedJ.push_back(0.0);
    rtcStoredJ.push_back(seed_rtc.cap().stored().joules());
    rtcChargedJ.push_back(0.0);
    rtcOverflowJ.push_back(0.0);
    rtcLeakedJ.push_back(0.0);
    rtcDischargedJ.push_back(0.0);
    rtcSync.push_back(1);
    rtcDesyncs.push_back(0);
    directBudgetJ.push_back(0.0);
    sensor.emplace_back(spec);
    buffer.emplace_back(buffer_cfg);
    rf.push_back(std::move(radio));
    lastAccrual.push_back(0);
    slotStart.push_back(0);
    slotLength.push_back(0);
    slotTimeUsed.push_back(0);
    lastIncome.push_back(Power::zero());
    awake.push_back(0);
    rfInitializedThisSlot.push_back(0);
    slotCostsValid.push_back(0);
    slotTaskCost.push_back(Energy::zero());
    slotTaskTime.push_back(0);
    pendingPackages.push_back(0);
    pendingOffset.push_back(
        static_cast<std::uint32_t>(pendingAge.size()));
    pendingDepth.push_back(static_cast<std::uint32_t>(pending_depth));
    pendingAge.insert(pendingAge.end(), pending_depth, 0);
    stats.emplace_back();
    return row;
}

std::size_t
NodeShard::residentBytes() const
{
    std::size_t bytes = sizeof(NodeShard);
    bytes += capStoredJ.capacity() * sizeof(double);
    bytes += capChargedJ.capacity() * sizeof(double);
    bytes += capOverflowJ.capacity() * sizeof(double);
    bytes += capLeakedJ.capacity() * sizeof(double);
    bytes += capDischargedJ.capacity() * sizeof(double);
    bytes += rtcStoredJ.capacity() * sizeof(double);
    bytes += rtcChargedJ.capacity() * sizeof(double);
    bytes += rtcOverflowJ.capacity() * sizeof(double);
    bytes += rtcLeakedJ.capacity() * sizeof(double);
    bytes += rtcDischargedJ.capacity() * sizeof(double);
    bytes += rtcSync.capacity();
    bytes += rtcDesyncs.capacity() * sizeof(std::uint64_t);
    bytes += directBudgetJ.capacity() * sizeof(double);
    bytes += sensor.capacity() * sizeof(Sensor);
    bytes += buffer.capacity() * sizeof(NvBuffer);
    bytes += rf.capacity() * sizeof(std::unique_ptr<RfModule>);
    for (const auto &radio : rf) {
        // The two concrete radios are small fixed-size objects; the
        // NVRF is the larger of the pair, so count that conservatively.
        bytes += radio->retainsState() ? sizeof(NvRfController)
                                       : sizeof(SoftwareRf);
    }
    bytes += lastAccrual.capacity() * sizeof(Tick);
    bytes += slotStart.capacity() * sizeof(Tick);
    bytes += slotLength.capacity() * sizeof(Tick);
    bytes += slotTimeUsed.capacity() * sizeof(Tick);
    bytes += lastIncome.capacity() * sizeof(Power);
    bytes += awake.capacity();
    bytes += rfInitializedThisSlot.capacity();
    bytes += slotCostsValid.capacity();
    bytes += slotTaskCost.capacity() * sizeof(Energy);
    bytes += slotTaskTime.capacity() * sizeof(Tick);
    bytes += pendingPackages.capacity() * sizeof(int);
    bytes += pendingOffset.capacity() * sizeof(std::uint32_t);
    bytes += pendingDepth.capacity() * sizeof(std::uint32_t);
    bytes += pendingAge.capacity() * sizeof(int);
    bytes += stats.capacity() * sizeof(NodeStats);
    for (const auto &st : stats)
        bytes += st.storedEnergyMj.points().capacity() *
                 sizeof(TimeSeries::Point);
    return bytes;
}

} // namespace neofog
