// The benchmark's own user process and the shared probe the cycle runner
// reads.
//
// Every application message carries 16 bytes: the per-channel FIFO
// sequence number and the send time on the runtime clock.  Receivers check
// the sequence live; the cycle runner checks recorded channel states against the
// per-channel ledgers (out_seq at the source, in_next at the destination)
// while the system is halted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/debug_api.hpp"
#include "net/topology.hpp"

namespace perfbench {

class Tracer;

struct UserConfig {
  enum class Mode : std::uint8_t {
    kFlood,   // `tokens` circulate; every delivery forwards one token
    kGossip,  // a timer sends one message every `interval`
  };
  Mode mode = Mode::kFlood;
  std::uint32_t tokens = 1;
  ddbg::Duration interval = ddbg::Duration::millis(2);
  // Emit the "mark" user event (the breakpoint target) every this many
  // deliveries (flood) or sends (gossip).
  std::uint32_t mark_every = 1;
};

class BenchUser;

// Cross-thread view of all user processes of one system.
struct Probe {
  // ChannelId -> position among the source's application out-channels /
  // the destination's application in-channels (read-only after setup).
  std::vector<std::uint32_t> out_pos;
  std::vector<std::uint32_t> in_pos;
  std::vector<BenchUser*> users;  // owned by the substrate, index = user id

  // Resume detection: the first delivery after watch_resume is set stamps
  // first_delivery_ns (runtime clock), then first_delivery_cpu_ns (process
  // CPU clock, never 0 once stamped).
  std::atomic<bool> watch_resume{false};
  std::atomic<std::int64_t> first_delivery_ns{0};
  std::atomic<std::int64_t> first_delivery_cpu_ns{0};
  // The user whose marks also stamp the process CPU clock (a system call,
  // so only a breakpoint's target while it waits for the hit); -1: none.
  std::atomic<std::int64_t> cpu_stamp_user{-1};
  // Latency samples count only messages sent at or after this instant
  // (runtime clock), so replayed channel state never reads as latency.
  std::atomic<std::int64_t> latency_epoch_ns{0};

  Tracer* tracer = nullptr;  // user handler spans when tracing

  [[nodiscard]] std::uint64_t deliveries() const;
  [[nodiscard]] std::vector<double> latency_samples_us() const;
};

struct UserState {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t fifo_violations = 0;
  std::uint64_t marks = 0;
};
[[nodiscard]] bool decode_user_state(const ddbg::Bytes& bytes, UserState& out);
// The FIFO sequence number a payload carries.
[[nodiscard]] bool decode_payload_seq(const ddbg::Bytes& payload,
                                      std::uint64_t& seq);

class BenchUser final : public ddbg::Debuggable {
 public:
  BenchUser(UserConfig config, Probe& probe);

  void on_start(ddbg::ProcessContext& ctx) override;
  void on_message(ddbg::ProcessContext& ctx, ddbg::ChannelId in,
                  ddbg::Message message) override;
  void on_timer(ddbg::ProcessContext& ctx, ddbg::TimerId timer) override;
  [[nodiscard]] ddbg::Bytes snapshot_state() const override;
  [[nodiscard]] std::string describe_state() const override;

  // Read only while the process is halted (or its thread has stopped).
  [[nodiscard]] std::uint64_t out_seq(std::uint32_t pos) const {
    return out_seq_[pos];
  }
  [[nodiscard]] std::uint64_t in_next(std::uint32_t pos) const {
    return in_next_[pos];
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  // Stamps of mark `seq` (runtime clock, process CPU clock); zero if
  // overwritten, cpu_ns also zero unless this user was cpu_stamp_user.
  struct MarkStamp {
    std::int64_t runtime_ns = 0;
    std::int64_t cpu_ns = 0;
  };
  [[nodiscard]] MarkStamp mark_stamp(std::uint64_t seq) const;
  [[nodiscard]] const std::vector<double>& latency_samples_us() const {
    return latency_us_;
  }

 private:
  void send_one(ddbg::ProcessContext& ctx);
  void maybe_mark(ddbg::ProcessContext& ctx);

  UserConfig config_;
  Probe& probe_;
  std::vector<ddbg::ChannelId> out_;
  std::vector<std::uint64_t> out_seq_;
  std::vector<std::uint64_t> in_next_;
  UserState state_;
  std::uint64_t since_mark_ = 0;

  static constexpr std::size_t kMarkRing = 64;
  struct alignas(64) Stamp {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> runtime_ns{0};
    std::atomic<std::int64_t> cpu_ns{0};
  };
  std::array<Stamp, kMarkRing> marks_;
  std::vector<double> latency_us_;
  // Single writer (this process's thread); the cycle runner sums it while the
  // system runs.
  alignas(64) std::atomic<std::uint64_t> delivered_{0};
};

// One BenchUser per user process of `users`, registered in `probe`.
[[nodiscard]] std::vector<ddbg::ProcessPtr> make_users(
    const ddbg::Topology& users, const UserConfig& config, Probe& probe);

// Fills probe.out_pos / in_pos for the full (debugger-extended) topology.
void index_channels(const ddbg::Topology& topology, Probe& probe);

}  // namespace perfbench
