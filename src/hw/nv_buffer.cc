#include "hw/nv_buffer.hh"

#include "sim/logging.hh"

namespace neofog {

NvBuffer::NvBuffer(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.capacityBytes == 0)
        fatal("NV buffer capacity must be positive");
    // Written so NaN fails them too.
    if (!(_cfg.interruptThreshold > 0.0 && _cfg.interruptThreshold <= 1.0))
        fatal("NV buffer interrupt threshold must be in (0,1], got ",
              _cfg.interruptThreshold);
    requireFiniteNonNegative(_cfg.writeEnergyPerByte.joules(),
                             "NV buffer write energy per byte (J)");
    requireFiniteNonNegative(_cfg.readEnergyPerByte.joules(),
                             "NV buffer read energy per byte (J)");
}

bool
NvBuffer::interruptPending() const
{
    return static_cast<double>(_size) >=
           _cfg.interruptThreshold *
               static_cast<double>(_cfg.capacityBytes);
}

Energy
NvBuffer::readEnergy(std::size_t bytes) const
{
    return _cfg.readEnergyPerByte * static_cast<double>(bytes);
}

} // namespace neofog
