/**
 * @file
 * Minimal gem5-style logging: inform/warn for status, fatal for user
 * errors, panic for internal invariant violations.
 *
 * fatal() throws FatalError (a configuration or input problem the caller
 * can in principle recover from or report); panic() aborts the process
 * after printing, because the simulator state is by definition corrupt.
 */

#ifndef NEOFOG_SIM_LOGGING_HH
#define NEOFOG_SIM_LOGGING_HH

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace neofog {

/** Severity levels for the global logger. */
enum class LogLevel
{
    Debug,
    Info,
    Warn,
    Silent,
};

/** Error thrown by fatal(): invalid configuration or arguments. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Set the minimum level that is actually printed (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global log level. */
LogLevel logLevel();

namespace detail {

void emit(LogLevel level, const std::string &msg);

template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Print a debug-level message (suppressed unless level <= Debug). */
template <typename... Args>
void
debugLog(Args &&...args)
{
    if (logLevel() <= LogLevel::Debug)
        detail::emit(LogLevel::Debug,
                     detail::concat(std::forward<Args>(args)...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() <= LogLevel::Info)
        detail::emit(LogLevel::Info,
                     detail::concat(std::forward<Args>(args)...));
}

/** Print a warning: something questionable but survivable happened. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() <= LogLevel::Warn)
        detail::emit(LogLevel::Warn,
                     detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user/configuration error by throwing FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/**
 * Fatal unless @p value is finite and >= 0, as every energy and power
 * constant must be; NaN fails too.  @p what names it in the message.
 * Inline: parts check their constants once per node they build.
 */
inline void
requireFiniteNonNegative(double value, const char *what)
{
    if (!(value >= 0.0 && std::isfinite(value)))
        fatal(what, " must be finite and >= 0, got ", value);
}

/**
 * Report an internal simulator bug and abort.  Never use for bad input.
 */
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);

template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    panicImpl(detail::concat(std::forward<Args>(args)...), file, line);
}

} // namespace neofog

/** Abort with a message identifying an internal invariant violation. */
#define NEOFOG_PANIC(...) \
    ::neofog::panicAt(__FILE__, __LINE__, __VA_ARGS__)

/** Panic unless a simulator invariant holds. */
#define NEOFOG_ASSERT(cond, ...)                                          \
    do {                                                                   \
        if (!(cond))                                                       \
            ::neofog::panicAt(__FILE__, __LINE__,                          \
                              "assertion failed: " #cond " ",              \
                              ##__VA_ARGS__);                              \
    } while (false)

#endif // NEOFOG_SIM_LOGGING_HH
