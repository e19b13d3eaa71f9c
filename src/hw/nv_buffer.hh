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
 * Byte-counting nonvolatile FIFO: its configuration and its archived
 * State.  Contents survive power failure by construction; the model
 * tracks occupancy and loss accounting rather than payload bytes
 * (payload content lives in the workload layer).  A node's State lives
 * in its NodeState and its Config in its Node::Spec, whose capacity
 * bounds every push.
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

        /** NV write energy of storing @p bytes. */
        Energy writeEnergy(std::size_t bytes) const
        { return writeEnergyPerByte * static_cast<double>(bytes); }

        /** NV read energy of retrieving @p bytes. */
        Energy readEnergy(std::size_t bytes) const
        { return readEnergyPerByte * static_cast<double>(bytes); }

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

    /** Occupancy plus lifetime accounting: what a snapshot keeps. */
    struct State
    {
        std::size_t size = 0;       ///< bytes held
        std::uint64_t accepted = 0; ///< bytes ever stored
        std::uint64_t dropped = 0;  ///< bytes ever overflowed or discarded

        /**
         * Append up to @p bytes to a buffer of @p cfg; the excess
         * beyond its capacity is dropped and counted.
         * @return Bytes actually stored.
         */
        std::size_t push(const Config &cfg, std::size_t bytes);

        /**
         * Remove up to @p bytes from the head.
         * @return Bytes actually removed.
         */
        std::size_t pop(std::size_t bytes);

        /** Discard the whole contents, counting them as dropped. */
        void discardAll();

        /** Whether occupancy has reached @p cfg's interrupt threshold. */
        bool interruptPending(const Config &cfg) const;

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            std::uint64_t bytes = size;
            ar.io("size", bytes);
            if constexpr (Archive::isLoading)
                size = static_cast<std::size_t>(bytes);
            ar.io("accepted", accepted);
            ar.io("dropped", dropped);
        }
    };

    /**
     * Fatal on a config no buffer can run: a zero capacity, an
     * interrupt threshold outside (0, 1], or a per-byte energy that is
     * negative or not finite.
     */
    static void check(const Config &cfg);
};

// The occupancy updates below run on every sample and task of the
// slot path, from the node library, so they live here, inline (see
// DESIGN.md, "Performance: hot paths").

inline std::size_t
NvBuffer::State::push(const Config &cfg, std::size_t bytes)
{
    const std::size_t stored = std::min(bytes, cfg.capacityBytes - size);
    size += stored;
    accepted += stored;
    dropped += bytes - stored;
    return stored;
}

inline std::size_t
NvBuffer::State::pop(std::size_t bytes)
{
    const std::size_t removed = std::min(bytes, size);
    size -= removed;
    return removed;
}

inline void
NvBuffer::State::discardAll()
{
    dropped += size;
    size = 0;
}

} // namespace neofog

#endif // NEOFOG_HW_NV_BUFFER_HH
