// In-memory span tracing from outside the library.
//
// Spans are recorded by benchmark-owned code around calls into the layers:
// TracedProcess wraps each DebugShim, AggregatorProcess and DebuggerProcess
// and hands the wrapped process a TracedContext proxy that forwards every
// ProcessContext virtual (sends become child spans).  BenchUser records its
// own handler and its calls back into the shim.  Each thread appends to its
// own buffer; a buffer is folded into per-kind totals (count, duration,
// self time = duration minus direct children) whenever it is large and no
// span is open, and once more when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/process.hpp"

namespace perfbench {

// steady_clock, the calling thread's CPU clock and the whole process's CPU
// clock, in nanoseconds.
[[nodiscard]] std::int64_t wall_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();
[[nodiscard]] std::int64_t process_cpu_ns();

enum class SpanKind : std::uint8_t {
  kShimApp,       // DebugShim::on_message, application message
  kShimMarker,    // DebugShim::on_message, halt marker
  kShimControl,   // DebugShim::on_message, control or predicate traffic
  kShimTimer,     // DebugShim::on_timer
  kStart,         // on_start of any wrapped process
  kShimSendPath,  // user -> shim send interposition (stamping, LP events)
  kShimEvent,     // user -> shim DebugApi::event
  kUser,          // BenchUser handler
  kAggregator,    // AggregatorProcess::on_message
  kRoot,          // DebuggerProcess::on_message
  kSend,          // substrate ProcessContext::send
  kCount,
};
inline constexpr const char* kSpanKindNames[] = {
    "shim_app",  "shim_marker", "shim_control", "shim_timer",
    "start",     "shim_send",   "shim_event",   "user",
    "aggregator", "root",       "send"};
static_assert(std::size(kSpanKindNames) ==
              static_cast<std::size_t>(SpanKind::kCount));

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  [[nodiscard]] double self_per_call() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / count;
  }
  [[nodiscard]] double total_per_call() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin(SpanKind kind);
  void end();

  struct Summary {
    SpanTotals kinds[static_cast<std::size_t>(SpanKind::kCount)];
    // Threads other than the constructing one that recorded spans: their
    // CPU time at exit and the time they spent inside top-level spans.
    std::int64_t worker_cpu_ns = 0;
    std::int64_t worker_span_ns = 0;

    [[nodiscard]] const SpanTotals& at(SpanKind kind) const {
      return kinds[static_cast<std::size_t>(kind)];
    }
  };
  // Call once every traced thread has exited (or, for the simulator, once
  // the run is over): folds the remaining buffers.
  [[nodiscard]] Summary summarize();
  // Writes the first folded spans of every thread as Chrome trace events.
  void write_sample(const std::string& path) const;

  struct ThreadTrace;

 private:
  ThreadTrace& local();

  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadTrace>> threads_;
};

// A sample of real traffic for the micro-cost measurements.
class Capture {
 public:
  static constexpr std::size_t kMaxApp = 512;
  static constexpr std::size_t kMaxOther = 128;
  static constexpr std::uint64_t kAppEvery = 64;

  // `counter` is the calling context's private send count.
  void offer(const ddbg::Message& message, std::uint64_t& counter);

  [[nodiscard]] std::vector<ddbg::Message> messages() const;
  [[nodiscard]] std::vector<ddbg::HaltMarkerData> markers() const;

 private:
  mutable std::mutex mutex_;
  std::vector<ddbg::Message> app_;
  std::vector<ddbg::Message> other_;
};

// ProcessContext proxy: forwards every virtual to the substrate's context;
// sends are timed as kSend spans and offered to the capture.
class TracedContext final : public ddbg::ProcessContext {
 public:
  TracedContext(Tracer& tracer, Capture& capture)
      : tracer_(tracer), capture_(capture) {}

  void bind(ddbg::ProcessContext& inner) { inner_ = &inner; }

  [[nodiscard]] ddbg::ProcessId self() const override {
    return inner_->self();
  }
  [[nodiscard]] ddbg::TimePoint now() const override { return inner_->now(); }
  [[nodiscard]] const ddbg::Topology& topology() const override {
    return inner_->topology();
  }
  [[nodiscard]] ddbg::obs::MetricsRegistry* metrics() const override {
    return inner_->metrics();
  }
  void send(ddbg::ChannelId channel, ddbg::Message message) override;
  ddbg::TimerId set_timer(ddbg::Duration delay) override {
    return inner_->set_timer(delay);
  }
  void cancel_timer(ddbg::TimerId timer) override {
    inner_->cancel_timer(timer);
  }
  [[nodiscard]] ddbg::Rng& rng() override { return inner_->rng(); }
  void run_ordered(std::function<void()> fn) override {
    inner_->run_ordered(std::move(fn));
  }
  void stop_self() override { inner_->stop_self(); }

 private:
  Tracer& tracer_;
  Capture& capture_;
  ddbg::ProcessContext* inner_ = nullptr;
  std::uint64_t sends_ = 0;
};

// Wraps one library process; every handler becomes a span.
class TracedProcess final : public ddbg::Process {
 public:
  enum class Role : std::uint8_t { kShim, kAggregator, kRoot };

  TracedProcess(ddbg::ProcessPtr inner, Role role, Tracer& tracer,
                Capture& capture)
      : inner_(std::move(inner)),
        role_(role),
        tracer_(tracer),
        ctx_(tracer, capture) {}

  void on_start(ddbg::ProcessContext& ctx) override;
  void on_message(ddbg::ProcessContext& ctx, ddbg::ChannelId in,
                  ddbg::Message message) override;
  void on_timer(ddbg::ProcessContext& ctx, ddbg::TimerId timer) override;
  [[nodiscard]] ddbg::Bytes snapshot_state() const override {
    return inner_->snapshot_state();
  }
  bool restore_state(const ddbg::Bytes& state) override {
    return inner_->restore_state(state);
  }
  [[nodiscard]] std::string describe_state() const override {
    return inner_->describe_state();
  }

 private:
  [[nodiscard]] SpanKind kind_for(ddbg::MessageKind kind) const;

  ddbg::ProcessPtr inner_;
  Role role_;
  Tracer& tracer_;
  TracedContext ctx_;
};

// Scoped span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
