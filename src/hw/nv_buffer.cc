#include "hw/nv_buffer.hh"

#include "sim/logging.hh"

namespace neofog {

void
NvBuffer::check(const Config &cfg)
{
    if (cfg.capacityBytes == 0)
        fatal("NV buffer capacity must be positive");
    // Written so NaN fails them too.
    if (!(cfg.interruptThreshold > 0.0 && cfg.interruptThreshold <= 1.0))
        fatal("NV buffer interrupt threshold must be in (0,1], got ",
              cfg.interruptThreshold);
    requireFiniteNonNegative(cfg.writeEnergyPerByte.joules(),
                             "NV buffer write energy per byte (J)");
    requireFiniteNonNegative(cfg.readEnergyPerByte.joules(),
                             "NV buffer read energy per byte (J)");
}

bool
NvBuffer::State::interruptPending(const Config &cfg) const
{
    return static_cast<double>(size) >=
           cfg.interruptThreshold * static_cast<double>(cfg.capacityBytes);
}

} // namespace neofog
