/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * - inform(): normal operating message.
 * - warn():   something questionable but survivable.
 * - fatal():  user error (bad configuration / arguments); throws
 *             std::runtime_error so callers and tests can catch it.
 * - panic():  internal invariant violation (a library bug); throws
 *             std::logic_error.
 */

#ifndef LRD_UTIL_LOGGING_H
#define LRD_UTIL_LOGGING_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace lrd {

/** Severity levels for log output. */
enum class LogLevel { Debug, Info, Warn, Error };

/**
 * Global minimum level actually printed (default: Info). The level is
 * stored atomically: pool workers log concurrently with tests or the
 * CLI adjusting verbosity.
 */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/**
 * Prefix every log line with elapsed seconds and the worker lane,
 * e.g. "[  1.042s w3] info: ...". Off by default; enabled by the
 * "+ts" suffix of LRD_LOG (see parseLogSpec).
 */
void setLogTimestamps(bool on);
bool logTimestamps();

/** A parsed LRD_LOG specification. */
struct LogSpec
{
    LogLevel level = LogLevel::Info;
    bool timestamps = false;
};

/**
 * Parse an LRD_LOG value: one of debug|info|warn|error, optionally
 * suffixed with "+ts" to enable timestamp + worker-index prefixes
 * (e.g. "debug+ts").
 * @throws std::runtime_error (via fatal()) on unknown values.
 */
LogSpec parseLogSpec(const std::string &spec);

/** Print an informational message to stderr (when level permits). */
void inform(const std::string &msg);

/** Print a warning message to stderr (when level permits). */
void warn(const std::string &msg);

/** Print a debug message to stderr (when level permits). */
void debug(const std::string &msg);

/**
 * Report an unrecoverable user-facing error.
 * @throws std::runtime_error always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation.
 * @throws std::logic_error always.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Require a condition; calls fatal() with the message when violated.
 *
 * A macro so the message is built only on failure: checks on the
 * decode path (every Tensor::dim() is one) stay free of string
 * formatting, and a message may read state the condition just filled
 * (`require(x.valid(&why), "bad: " + why)`). The condition is
 * evaluated exactly once; the message expression at most once and
 * possibly never, so it must have no side effects.
 */
#define require(cond, msg)                                              \
    (static_cast<bool>(cond) ? static_cast<void>(0) : ::lrd::fatal(msg))

/** Variadic stream-style message builder: strCat(1, " + ", 2.5). */
template <typename... Args>
std::string
strCat(Args &&...args)
{
    std::ostringstream oss;
    static_cast<void>((oss << ... << args));
    return oss.str();
}

} // namespace lrd

#endif // LRD_UTIL_LOGGING_H
