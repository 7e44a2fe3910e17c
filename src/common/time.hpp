// Virtual time used by the simulator and (as a wall-clock shadow) by the
// threaded runtime.  Kept as explicit nanosecond counts rather than
// std::chrono to make simulator arithmetic and serialization trivial.
#pragma once

#include <cstdint>
#include <string>

namespace ddbg {

// A duration in nanoseconds.
struct Duration {
  std::int64_t ns = 0;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t n) {
    return Duration{n};
  }
  [[nodiscard]] static constexpr Duration micros(std::int64_t n) {
    return Duration{n * 1'000};
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t n) {
    return Duration{n * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t n) {
    return Duration{n * 1'000'000'000};
  }

  friend constexpr bool operator==(Duration, Duration) = default;
  friend constexpr auto operator<=>(Duration, Duration) = default;
  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.ns + b.ns};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.ns - b.ns};
  }
  friend constexpr Duration operator*(Duration a, std::int64_t k) {
    return Duration{a.ns * k};
  }

  [[nodiscard]] double to_millis() const {
    return static_cast<double>(ns) / 1e6;
  }
};

// A point on the (virtual) time axis, nanoseconds since the start of the run.
struct TimePoint {
  std::int64_t ns = 0;

  friend constexpr bool operator==(TimePoint, TimePoint) = default;
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;
  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns + d.ns};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration{a.ns - b.ns};
  }
};

[[nodiscard]] inline std::string to_string(Duration d) {
  return std::to_string(d.ns) + "ns";
}
[[nodiscard]] inline std::string to_string(TimePoint t) {
  return "t+" + std::to_string(t.ns) + "ns";
}

}  // namespace ddbg
