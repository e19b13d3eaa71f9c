#include "net/loss.hh"

#include "sim/logging.hh"

namespace neofog {

LossModel::LossModel()
    : LossModel(Config{})
{
}

LossModel::LossModel(const Config &cfg)
    : _cfg(cfg)
{
    // Written so NaN fails them too.
    if (!(_cfg.successRate > 0.0 && _cfg.successRate <= 1.0))
        fatal("loss model success rate must be in (0,1], got ",
              _cfg.successRate);
    if (!(_cfg.weatherFactor > 0.0 && _cfg.weatherFactor <= 1.0))
        fatal("weather factor must be in (0,1], got ",
              _cfg.weatherFactor);
    if (_cfg.maxRetries < 0)
        fatal("negative retry count");
}

} // namespace neofog
