/**
 * @file
 * Structured error propagation for the numeric core and the
 * long-running pipelines: a Status (code + site + message) and a
 * Result<T> (value or Status).
 *
 * Status lives in util (layer 0) so that everything above it — the
 * cache, linalg, decomposition, trainer, evaluator, DSE optimizer —
 * can return one without a layering back-edge. The recovery policies
 * that *act* on a Status (degrade, retry, checkpoint fallback) live
 * one module up in src/robust/.
 *
 * The ok path allocates nothing: a default-constructed Status is code
 * Ok with an empty const-char site and an empty (SSO) message.
 */

#ifndef LRD_UTIL_STATUS_H
#define LRD_UTIL_STATUS_H

#include <stdexcept>
#include <string>
#include <utility>

#include "util/logging.h"

namespace lrd {

/** Failure category carried by a Status. */
enum class StatusCode : int
{
    Ok = 0,
    InvalidArgument,   ///< Caller passed something unusable.
    NotFound,          ///< Named artifact does not exist.
    DataLoss,          ///< Artifact exists but is corrupt/truncated.
    ResourceExhausted, ///< Allocation or budget failure.
    NonConvergence,    ///< Iterative kernel hit its sweep cap.
    NonFinite,         ///< NaN/Inf appeared in a numeric pipeline.
    Cancelled,         ///< Work stopped before completion.
    DeadlineExceeded,  ///< A work-unit or wall-clock deadline expired.
    Internal,          ///< Invariant violation / unexpected error.
};

/** Stable lowercase name for a code ("non-convergence", ...). */
inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
    case StatusCode::Ok:
        return "ok";
    case StatusCode::InvalidArgument:
        return "invalid-argument";
    case StatusCode::NotFound:
        return "not-found";
    case StatusCode::DataLoss:
        return "data-loss";
    case StatusCode::ResourceExhausted:
        return "resource-exhausted";
    case StatusCode::NonConvergence:
        return "non-convergence";
    case StatusCode::NonFinite:
        return "non-finite";
    case StatusCode::Cancelled:
        return "cancelled";
    case StatusCode::DeadlineExceeded:
        return "deadline-exceeded";
    case StatusCode::Internal:
        return "internal";
    }
    return "unknown";
}

/**
 * Error outcome of an operation. `site` identifies the injection /
 * detection point ("jacobi", "ckpt.write", "model.block") and must be
 * a string literal or other static-duration string — Status stores
 * the pointer, not a copy, so the ok path stays heap-free.
 */
class [[nodiscard]] Status
{
  public:
    /** Ok status; no allocation. */
    Status() = default;

    Status(StatusCode code, const char *site, std::string message)
        : code_(code), site_(site), message_(std::move(message))
    {
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const char *site() const { return site_; }
    const std::string &message() const { return message_; }

    /** "non-convergence at jacobi: ..." (or "ok"). */
    std::string
    toString() const
    {
        if (ok())
            return "ok";
        std::string s = statusCodeName(code_);
        s += " at ";
        s += site_;
        if (!message_.empty()) {
            s += ": ";
            s += message_;
        }
        return s;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    const char *site_ = "";
    std::string message_;
};

/**
 * Exception form of a Status, for the few places (failure budgets,
 * strict-mode aborts) where an error must unwind through code that
 * has no Status return channel. Derives from std::runtime_error so
 * callers that only know about fatal()'s exception type still catch
 * it; callers that know better (lrdtool's exit-code mapping) can
 * recover the structured Status.
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()), status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }

  private:
    Status status_;
};

/** Throw `status` as a StatusError (the Status-carrying fatal()). */
[[noreturn]] inline void
throwStatus(Status status)
{
    throw StatusError(std::move(status));
}

/**
 * A T or the Status explaining why there is none. T must be
 * default-constructible (the error arm holds a default T).
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    /*implicit*/ Result(T value) : value_(std::move(value)) {}

    /*implicit*/ Result(Status status) : status_(std::move(status))
    {
        require(!status_.ok(),
                "Result: the error constructor needs a non-ok Status");
    }

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        checkOk();
        return value_;
    }

    T &
    value() &
    {
        checkOk();
        return value_;
    }

    T &&
    value() &&
    {
        checkOk();
        return std::move(value_);
    }

    /** The value, or `fallback` when this holds an error. */
    T
    valueOr(T fallback) const
    {
        return ok() ? value_ : std::move(fallback);
    }

  private:
    void
    checkOk() const
    {
        if (!ok())
            fatal("Result::value() on error: " + status_.toString());
    }

    Status status_;
    T value_{};
};

} // namespace lrd

#endif // LRD_UTIL_STATUS_H
