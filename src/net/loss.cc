#include "net/loss.hh"

#include "sim/logging.hh"

namespace neofog {

void
LossModel::check(const Config &cfg)
{
    // Written so NaN fails them too.
    if (!(cfg.successRate > 0.0 && cfg.successRate <= 1.0))
        fatal("loss model success rate must be in (0,1], got ",
              cfg.successRate);
    if (!(cfg.weatherFactor > 0.0 && cfg.weatherFactor <= 1.0))
        fatal("weather factor must be in (0,1], got ", cfg.weatherFactor);
    if (cfg.maxRetries < 0)
        fatal("negative retry count");
}

} // namespace neofog
