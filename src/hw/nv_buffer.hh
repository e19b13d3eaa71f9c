/**
 * @file
 * Nonvolatile FIFO buffer (NVBuffer).
 *
 * Fig 2(b) of the paper inserts a 64 kB NV FIFO between the sensors and
 * the NVP to decouple asynchronous sampling from intermittent
 * computation, and a second instance inside the NVRF buffers outgoing
 * data.  The buffer also serves as the raw-data staging area for the
 * intra-chain load balancer.  When the buffer fills, an interrupt asks
 * the NVP to process the batch; if the node lacks energy, samples are
 * discarded (and counted).
 */

#ifndef NEOFOG_HW_NV_BUFFER_HH
#define NEOFOG_HW_NV_BUFFER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/units.hh"

namespace neofog {

/**
 * Byte-counting nonvolatile FIFO.  Contents survive power failure by
 * construction; the model tracks occupancy and loss accounting rather
 * than payload bytes (payload content lives in the workload layer).
 */
class NvBuffer
{
  public:
    struct Config
    {
        std::size_t capacityBytes = 64 * 1024;
        /** Occupancy fraction that raises the processing interrupt. */
        double interruptThreshold = 1.0;
        /** Energy per byte written (NV write cost). */
        Energy writeEnergyPerByte = Energy::fromNanojoules(1.1);
        /** Energy per byte read. */
        Energy readEnergyPerByte = Energy::fromNanojoules(0.3);

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            std::uint64_t capacity = capacityBytes;
            ar.io("capacity_bytes", capacity);
            if constexpr (Archive::isLoading)
                capacityBytes = static_cast<std::size_t>(capacity);
            ar.io("interrupt_threshold", interruptThreshold);
            ar.io("write_energy_per_byte", writeEnergyPerByte);
            ar.io("read_energy_per_byte", readEnergyPerByte);
        }
    };

    explicit NvBuffer(const Config &cfg);

    std::size_t capacity() const { return _cfg.capacityBytes; }
    std::size_t size() const { return _size; }
    std::size_t freeSpace() const { return _cfg.capacityBytes - _size; }
    bool empty() const { return _size == 0; }
    bool full() const { return _size >= _cfg.capacityBytes; }

    /** Whether occupancy has reached the interrupt threshold. */
    bool interruptPending() const;

    /**
     * Append up to @p bytes; excess beyond capacity is dropped and
     * counted.
     * @return Bytes actually stored.
     */
    std::size_t push(std::size_t bytes);

    /**
     * Remove up to @p bytes from the head.
     * @return Bytes actually removed.
     */
    std::size_t pop(std::size_t bytes);

    /** Discard the whole contents, counting them as dropped. */
    void discardAll();

    /** NV write energy of storing @p bytes. */
    Energy writeEnergy(std::size_t bytes) const;

    /** NV read energy of retrieving @p bytes. */
    Energy readEnergy(std::size_t bytes) const;

    /** Total bytes ever accepted. */
    std::uint64_t acceptedTotal() const { return _accepted; }
    /** Total bytes ever dropped (overflow + discard). */
    std::uint64_t droppedTotal() const { return _dropped; }

    const Config &config() const { return _cfg; }

    /** Snapshot support: occupancy and loss accounting. */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        std::uint64_t size = _size;
        ar.io("size", size);
        if constexpr (Archive::isLoading)
            _size = static_cast<std::size_t>(size);
        ar.io("accepted", _accepted);
        ar.io("dropped", _dropped);
    }

  private:
    Config _cfg; // neofog-lint: allow(snapshot): construction-time configuration, rebuilt from the scenario on resume
    std::size_t _size = 0;
    std::uint64_t _accepted = 0;
    std::uint64_t _dropped = 0;
};

// The occupancy updates below run on every sample and task of the
// slot path, from the node library, so they live here, inline (see
// DESIGN.md, "Performance: hot paths").

inline std::size_t
NvBuffer::push(std::size_t bytes)
{
    const std::size_t stored = std::min(bytes, freeSpace());
    _size += stored;
    _accepted += stored;
    _dropped += bytes - stored;
    return stored;
}

inline std::size_t
NvBuffer::pop(std::size_t bytes)
{
    const std::size_t removed = std::min(bytes, _size);
    _size -= removed;
    return removed;
}

inline void
NvBuffer::discardAll()
{
    _dropped += _size;
    _size = 0;
}

inline Energy
NvBuffer::writeEnergy(std::size_t bytes) const
{
    return _cfg.writeEnergyPerByte * static_cast<double>(bytes);
}

} // namespace neofog

#endif // NEOFOG_HW_NV_BUFFER_HH
