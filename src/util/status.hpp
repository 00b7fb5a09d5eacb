// Lightweight Status / Result<T> error-handling vocabulary.
//
// Protocol code (proxy, servers, naming, location) reports recoverable
// failures through Result<T> so a verification failure at one replica can be
// handled by falling back to another without exceptions crossing simulated
// "network" boundaries.  Programming errors still throw.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace globe::util {

/// Canonical error taxonomy for the whole system.  Verification-specific
/// codes mirror the checks of Fig. 3 in the paper.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kPermissionDenied,
  kUnavailable,        // transport/link failure
  kTimeout,
  kProtocol,           // malformed wire data
  kInternal,
  // --- security verification failures (paper §3.2.2 / Fig. 3) ---
  kBadSignature,       // integrity/identity certificate signature invalid
  kHashMismatch,       // element hash != certificate entry (authenticity)
  kExpired,            // outside validity interval (freshness)
  kWrongElement,       // served element name != requested (consistency)
  kOidMismatch,        // SHA-1(public key) != OID (self-certifying check)
  kUntrustedIssuer,    // identity certificate chain ends outside trust store
};

/// Human-readable name of an ErrorCode ("HASH_MISMATCH", ...).
const char* error_code_name(ErrorCode c);

/// True when a check refused what a peer served (not a transport error).
inline bool is_verification_failure(ErrorCode c) {
  return c >= ErrorCode::kBadSignature;
}

/// A success-or-error value with an optional message.
class [[nodiscard]] Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "HASH_MISMATCH: element body does not match certificate".
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

/// Thrown by Result<T>::value() on error; carries the original Status.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status s)
      : std::runtime_error(s.to_string()), status_(std::move(s)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Either a T or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
  Result(Status status) : v_(std::move(status)) {     // NOLINT(google-explicit-constructor)
    if (std::get<Status>(v_).is_ok()) {
      throw std::logic_error("Result constructed from OK status without value");
    }
  }
  Result(ErrorCode code, std::string message)
      : v_(Status(code, std::move(message))) {}
  /// Converts from a result whose value converts to T (a handler's
  /// Result<Bytes> into Result<net::Reply>): the value or the error carries
  /// over.
  template <typename U>
    requires(!std::is_same_v<U, T> && std::is_convertible_v<U, T>)
  Result(Result<U> other)  // NOLINT(google-explicit-constructor)
      : v_(other.is_ok() ? std::variant<T, Status>(T(std::move(other).value()))
                         : std::variant<T, Status>(other.status())) {}

  bool is_ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return is_ok(); }

  /// Status of the result; Status::ok() when a value is present.
  Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(v_);
  }
  ErrorCode code() const {
    return is_ok() ? ErrorCode::kOk : std::get<Status>(v_).code();
  }

  /// Access the value; throws StatusError if this holds an error.
  T& value() & { check(); return std::get<T>(v_); }
  const T& value() const& { check(); return std::get<T>(v_); }
  T&& value() && { check(); return std::get<T>(std::move(v_)); }

  T value_or(T fallback) const {
    return is_ok() ? std::get<T>(v_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void check() const {
    if (!is_ok()) throw StatusError(std::get<Status>(v_));
  }
  std::variant<T, Status> v_;
};

}  // namespace globe::util
