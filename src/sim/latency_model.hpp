// Channel latency models for the simulator.
//
// The paper's only timing assumption is that communication delays are
// unpredictable and non-zero.  These models let experiments sweep that
// unpredictability; per-channel FIFO order is enforced by the scheduler
// regardless of the sampled delays (the model requires in-order delivery).
#pragma once

#include <memory>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace ddbg {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  [[nodiscard]] virtual Duration sample(ChannelId channel, Rng& rng) = 0;
};

class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(Duration delay) : delay_(delay) {}
  Duration sample(ChannelId, Rng&) override { return delay_; }

 private:
  Duration delay_;
};

class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(Duration low, Duration high) : low_(low), high_(high) {
    DDBG_ASSERT(low.ns >= 0 && low <= high, "invalid uniform latency bounds");
  }
  Duration sample(ChannelId, Rng& rng) override {
    return Duration{rng.next_in(low_.ns, high_.ns)};
  }

 private:
  Duration low_;
  Duration high_;
};

// Exponential delays capture occasional stragglers; min_delay keeps every
// hop strictly positive.
class ExponentialLatency final : public LatencyModel {
 public:
  // The exponential tail is unbounded but the simulator's clock is int64
  // nanoseconds, and casting an out-of-range double to int64 is UB.  Any
  // sample beyond this cap is clamped: one virtual hour is ~9 orders of
  // magnitude above the means experiments use, so the clamp never distorts
  // real sweeps, it only keeps pathological tail draws defined.
  static constexpr Duration kMaxExtraDelay = Duration::seconds(3600);

  ExponentialLatency(Duration mean, Duration min_delay)
      : mean_(mean), min_(min_delay) {}
  Duration sample(ChannelId, Rng& rng) override {
    double extra = rng.next_exponential(static_cast<double>(mean_.ns));
    if (extra > static_cast<double>(kMaxExtraDelay.ns)) {
      extra = static_cast<double>(kMaxExtraDelay.ns);
    }
    return Duration{min_.ns + static_cast<std::int64_t>(extra)};
  }

 private:
  Duration mean_;
  Duration min_;
};

[[nodiscard]] inline std::unique_ptr<LatencyModel> constant_latency(
    Duration delay) {
  return std::make_unique<ConstantLatency>(delay);
}
[[nodiscard]] inline std::unique_ptr<LatencyModel> uniform_latency(
    Duration low, Duration high) {
  return std::make_unique<UniformLatency>(low, high);
}
[[nodiscard]] inline std::unique_ptr<LatencyModel> exponential_latency(
    Duration mean, Duration min_delay) {
  return std::make_unique<ExponentialLatency>(mean, min_delay);
}

}  // namespace ddbg
