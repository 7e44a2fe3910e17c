// TCP transport soak: the epoll reactor and pair-multiplexed sockets under
// sustained load, plus halt waves through a debugger tier whose every
// control hop crosses a real socket.
//
//   1. Incast throughput — W senders burst M messages down L lanes each
//      into one sink.  All W*L channels are multiplexed over W sockets
//      (one per host pair); the table reports messages/sec and the
//      reactor's wakeup/batching counters.  The run aborts if anything is
//      lost, reordered, or if the socket count is not exactly W.
//   2. Tier halt-wave sweep — users on a ring forward hop-limited tokens
//      under a fanout-16 debugger tier, all over TCP loopback.  Once the
//      workload quiesces, a halt wave runs root -> aggregators -> users
//      and back; each wave is verified complete, conservation-clean and
//      (at the smallest N) vector-clock consistent.
//
// Environment knobs (all optional, for CI smoke jobs):
//   DDBG_SOAK_N         comma list restricting the tier sweep (e.g. "64")
//   DDBG_SOAK_MESSAGES  burst size per lane for the incast table
//   DDBG_METRICS_DIR    where BENCH_tcp_soak.json goes (bench_util.hpp)
//
// Sizing note: the TCP runtime spawns one reactor thread and one wake pipe
// per process, so the default sweep tops out at N=1024 (~6.5k fds); larger
// sweeps need a raised fd limit and are opt-in via DDBG_SOAK_N.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/consistency.hpp"
#include "bench/bench_util.hpp"
#include "runtime/tcp_runtime.hpp"

namespace ddbg::bench {
namespace {

constexpr Duration kWait = Duration::seconds(120);

// ---------------------------------------------------------------------------
// Incast throughput over multiplexed sockets
// ---------------------------------------------------------------------------

constexpr std::uint32_t kIncastSenders = 8;
constexpr std::uint32_t kIncastLanes = 4;

std::uint32_t incast_messages() {
  const char* env = std::getenv("DDBG_SOAK_MESSAGES");
  if (env == nullptr || *env == '\0') return 2000;
  return static_cast<std::uint32_t>(std::stoul(env));
}

// Bursts `count` numbered messages down every out-channel from on_start.
class IncastSender final : public Process {
 public:
  explicit IncastSender(std::uint32_t count) : count_(count) {}
  void on_start(ProcessContext& ctx) override {
    for (std::uint32_t i = 0; i < count_; ++i) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        ByteWriter writer;
        writer.u32(i);
        ctx.send(c, Message::application(std::move(writer).take()));
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}

 private:
  std::uint32_t count_;
};

// Counts arrivals and checks per-channel FIFO numbering as it goes.
class IncastSink final : public Process {
 public:
  void on_message(ProcessContext& ctx, ChannelId channel,
                  Message message) override {
    if (next_.empty()) {
      next_.resize(ctx.topology().channels().size(), 0);
    }
    ByteReader reader(message.payload);
    const std::uint32_t value = reader.u32().value_or(0xffffffff);
    if (value != next_[channel.value()]) ordered.store(false);
    next_[channel.value()] += 1;
    received.fetch_add(1, std::memory_order_acq_rel);
  }
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> ordered{true};

 private:
  std::vector<std::uint32_t> next_;  // reactor delivers serially per process
};

void soak_fail(const char* what) {
  std::fprintf(stderr, "bench_tcp_soak: %s\n", what);
  std::exit(1);
}

// Runs one incast and returns {wall_ms, msgs_per_sec}; when `record` is
// set, the transport snapshot lands in BENCH_tcp_soak.json.
std::pair<double, double> run_incast(std::uint32_t senders,
                                     std::uint32_t lanes,
                                     std::uint32_t messages, bool record) {
  Topology topology(senders + 1);
  const ProcessId sink_id(senders);
  for (std::uint32_t s = 0; s < senders; ++s) {
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      topology.add_channel(ProcessId(s), sink_id);
    }
  }
  std::vector<ProcessPtr> processes;
  for (std::uint32_t s = 0; s < senders; ++s) {
    processes.push_back(std::make_unique<IncastSender>(messages));
  }
  auto sink = std::make_unique<IncastSink>();
  IncastSink* sink_ptr = sink.get();
  processes.push_back(std::move(sink));

  const std::uint64_t expected =
      static_cast<std::uint64_t>(senders) * lanes * messages;
  TcpRuntime runtime(std::move(topology), std::move(processes));
  // The economics the reactor exists for: W*L channels over W sockets.
  if (runtime.data_socket_count() != senders) soak_fail("socket count off");
  if (runtime.max_channels_per_socket() != lanes) soak_fail("mux gauge off");

  const auto start = std::chrono::steady_clock::now();
  if (!runtime.start()) soak_fail("start failed");
  if (!TcpRuntime::wait_until(
          [&] { return sink_ptr->received.load() >= expected; }, kWait)) {
    soak_fail("incast did not drain");
  }
  const auto stop = std::chrono::steady_clock::now();
  runtime.shutdown();

  if (!sink_ptr->ordered.load()) soak_fail("per-channel FIFO broken");
  if (runtime.metrics().totals().messages_delivered != expected) {
    soak_fail("delivery count off");
  }
  const auto transport = runtime.metrics().snapshot(runtime.now()).transport;
  if (transport.epoll_wakeups == 0) soak_fail("no epoll wakeups counted");
  if (transport.frames_per_wakeup_max == 0) soak_fail("no batching counted");

  const double wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const double rate = wall_ms > 0 ? expected / (wall_ms / 1000.0) : 0;
  if (record) {
    char label[160];
    std::snprintf(label, sizeof label,
                  "incast senders=%u lanes=%u msgs=%llu wall_ms=%.2f "
                  "msgs_per_sec=%.0f",
                  senders, lanes,
                  static_cast<unsigned long long>(expected), wall_ms, rate);
    record_metrics(label, runtime.metrics(), runtime.now());
  }
  return {wall_ms, rate};
}

void print_incast_table() {
  print_header(
      "TCP incast: multiplexed channels over the epoll reactor",
      "W senders burst down L lanes each into one sink over real loopback\n"
      "sockets; all W*L channels share W sockets (one per host pair).\n"
      "Verified: nothing lost, per-channel FIFO, socket count == W.");
  print_row("%8s %6s %10s %12s %14s", "senders", "lanes", "msgs", "wall ms",
            "msgs/sec");
  const std::uint32_t messages = incast_messages();
  const auto [wall_ms, rate] =
      run_incast(kIncastSenders, kIncastLanes, messages, /*record=*/true);
  print_row("%8u %6u %10llu %12.1f %14.0f", kIncastSenders, kIncastLanes,
            static_cast<unsigned long long>(
                static_cast<std::uint64_t>(kIncastSenders) * kIncastLanes *
                messages),
            wall_ms, rate);
  print_row("\n(channels multiplexed %u:1 onto sockets; FIFO and delivery "
            "counts verified)",
            kIncastLanes);
}

// ---------------------------------------------------------------------------
// Tier halt waves over TCP
// ---------------------------------------------------------------------------

constexpr std::uint32_t kTierFanout = 16;
constexpr std::uint32_t kTokenHops = 256;
constexpr std::uint32_t kInjectEvery = 64;

// Ring user forwarding hop-limited tokens; every (kInjectEvery)-th process
// injects one at start, so the workload quiesces after a bounded number of
// socket deliveries and the halt below measures the pure control-plane
// wave.  snapshot_state carries sent/received for the conservation check.
class SoakUser final : public Process {
 public:
  explicit SoakUser(std::shared_ptr<std::atomic<std::uint64_t>> hops_done)
      : hops_done_(std::move(hops_done)) {}

  void on_start(ProcessContext& ctx) override {
    if (ctx.self().value() % kInjectEvery == 0) send_token(ctx, kTokenHops);
  }

  void on_message(ProcessContext& ctx, ChannelId, Message message) override {
    ByteReader reader(message.payload);
    const auto budget = reader.u32();
    if (!budget.ok()) return;
    ++received_;
    hops_done_->fetch_add(1, std::memory_order_acq_rel);
    if (budget.value() > 0) send_token(ctx, budget.value() - 1);
  }

  [[nodiscard]] Bytes snapshot_state() const override {
    ByteWriter writer;
    writer.u64(sent_);
    writer.u64(received_);
    return std::move(writer).take();
  }
  [[nodiscard]] std::string describe_state() const override { return "soak"; }

 private:
  void send_token(ProcessContext& ctx, std::uint32_t budget) {
    if (app_out_.empty()) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        if (!ctx.topology().channel(c).is_control) app_out_.push_back(c);
      }
    }
    ByteWriter writer;
    writer.u32(budget);
    ++sent_;
    ctx.send(app_out_[0], Message::application(std::move(writer).take()));
  }

  std::shared_ptr<std::atomic<std::uint64_t>> hops_done_;
  std::vector<ChannelId> app_out_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

void tier_fail(std::uint32_t n, const char* what) {
  std::fprintf(stderr, "bench_tcp_soak: tier n=%u: %s\n", n, what);
  std::exit(1);
}

// One tier halt wave over TCP at N users.  Returns {run_ms, halt_ms}.
std::pair<double, double> run_tier_config(std::uint32_t n) {
  const bool vclocks = n <= 256;  // clock payloads cross real sockets
  auto hops_done = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::vector<ProcessPtr> users;
  users.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    users.push_back(std::make_unique<SoakUser>(hops_done));
  }
  HarnessConfig config;
  config.seed = 1;
  config.debugger_fanout = kTierFanout;
  config.shim_options.stamp_vector_clocks = vclocks;

  TcpDebugHarness harness(Topology::ring(n), std::move(users),
                          std::move(config));
  // Fd economics at scale: the tier wires 2 control channels per tree edge
  // plus the ring, yet every host pair still costs exactly one socket.
  const std::size_t channels = harness.topology().channels().size();
  if (harness.tcp().data_socket_count() >= channels) {
    tier_fail(n, "muxing saved no sockets");
  }

  const std::uint64_t injectors = (n + kInjectEvery - 1) / kInjectEvery;
  const std::uint64_t expected_hops =
      injectors * (static_cast<std::uint64_t>(kTokenHops) + 1);

  auto t0 = std::chrono::steady_clock::now();
  if (!harness.start()) tier_fail(n, "start failed");
  if (!TcpRuntime::wait_until(
          [&] { return hops_done->load() >= expected_hops; }, kWait)) {
    tier_fail(n, "workload did not quiesce");
  }
  auto t1 = std::chrono::steady_clock::now();
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  auto t2 = std::chrono::steady_clock::now();
  const double run_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double halt_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();

  if (!wave.has_value() || !wave->complete) {
    tier_fail(n, "halt wave did not complete");
  }
  if (wave->state.size() != n) tier_fail(n, "missing snapshots");
  if (vclocks && !consistent_cut(wave->state)) {
    tier_fail(n, "vector-clock cut inconsistency");
  }

  // Conservation-based cut check (O(n), valid at any scale).
  const Topology& topology = harness.topology();
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t recorded = 0;
  for (const auto& [p, snapshot] : wave->state.snapshots()) {
    ByteReader reader(snapshot.state);
    const auto s = reader.u64();
    const auto r = reader.u64();
    if (!s.ok() || !r.ok()) tier_fail(n, "undecodable state");
    sent += s.value();
    received += r.value();
    for (const ChannelState& channel : snapshot.in_channels) {
      if (!topology.channel(channel.channel).is_control) {
        recorded += channel.messages.size();
      }
    }
  }
  if (sent != received + recorded) tier_fail(n, "conservation broken");

  harness.shutdown();
  const auto transport =
      harness.tcp().metrics().snapshot(harness.tcp().now()).transport;
  if (transport.epoll_wakeups == 0) tier_fail(n, "no epoll wakeups counted");
  char label[160];
  std::snprintf(label, sizeof label,
                "tier n=%u fanout=%u sockets=%zu channels=%zu halt "
                "wall_ms=%.2f",
                n, kTierFanout, harness.tcp().data_socket_count(), channels,
                halt_ms);
  record_metrics(label, harness.tcp().metrics(), harness.tcp().now());
  return {run_ms, halt_ms};
}

std::vector<std::uint32_t> tier_sizes() {
  std::vector<std::uint32_t> sizes = {256, 1024};
  const char* env = std::getenv("DDBG_SOAK_N");
  if (env == nullptr || *env == '\0') return sizes;
  sizes.clear();
  std::stringstream stream(env);
  std::string item;
  while (std::getline(stream, item, ',')) {
    sizes.push_back(static_cast<std::uint32_t>(std::stoul(item)));
  }
  return sizes;
}

void print_tier_table() {
  print_header(
      "Tier halt waves over TCP loopback",
      "Ring users forward hop-limited tokens under a fanout-16 debugger\n"
      "tier; every marker, snapshot and ack crosses a multiplexed socket.\n"
      "Each wave verified complete and conservation-clean (vector-clock\n"
      "consistent at the smallest N).");
  print_row("%8s %7s %12s %12s", "n", "fanout", "run ms", "halt ms");
  for (const std::uint32_t n : tier_sizes()) {
    const auto [run_ms, halt_ms] = run_tier_config(n);
    print_row("%8u %7u %12.1f %12.1f", n, kTierFanout, run_ms, halt_ms);
  }
  print_row("\n(every wave above completed on a verified cut over TCP)");
}

void BM_Incast(benchmark::State& state) {
  const auto messages = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const auto [wall_ms, rate] =
        run_incast(4, kIncastLanes, messages, /*record=*/false);
    benchmark::DoNotOptimize(rate);
  }
  state.SetLabel("4 senders, " + std::to_string(kIncastLanes) + " lanes");
}
BENCHMARK(BM_Incast)->Arg(500)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ddbg::bench

int main(int argc, char** argv) {
  ddbg::bench::print_incast_table();
  ddbg::bench::print_tier_table();
  ddbg::bench::write_metrics_json("tcp_soak");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
