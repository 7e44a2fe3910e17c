// Scale sweep of the simulator's event loop.
//
// Sweeps N in {64, 256, 1024} over {ring, tree, complete} topologies and
// runs a multi-token workload.  For every configuration it
//
//   1. times the run (min of kTimingReps wall-clock repetitions),
//   2. re-runs it under a recording transport observer, optionally dumping
//      the observer stream (see DDBG_SCALE_TRACE_DIR),
//   3. records that run's metrics snapshot into BENCH_scale.json with the
//      measured wall-clock embedded in the run label.
//
// A second table sweeps the hierarchical debugger tier: halt waves through
// a fanout-16 aggregator tree over up to 100k simulated processes, each
// wave verified complete and cut-consistent (see print_tier_table).  A
// third times flat-debugger halt waves on complete(n), where the
// marker-wave core's per-marker cost dominates (see print_complete_table).
//
// Environment knobs (all optional, for CI smoke jobs):
//   DDBG_SCALE_N          comma list restricting the N sweep and the
//                         complete-graph halt sweep (e.g. "256")
//   DDBG_SCALE_TREE_N     comma list restricting the tier sweep
//   DDBG_SCALE_TRACE_DIR  directory to dump observer traces into, as
//                         <topo>_n<N>.trace; two runs of the binary must
//                         write identical files (CI diffs them)
//   DDBG_METRICS_DIR      where BENCH_scale.json goes (bench_util.hpp)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/consistency.hpp"
#include "bench/bench_util.hpp"
#include "net/transport_hooks.hpp"

namespace ddbg::bench {
namespace {

// Every process injects one token at start; each token is forwarded kHops
// times with kSpin rounds of deterministic integer mixing per delivery
// (standing in for a real handler body).  N concurrent tokens advance in
// lockstep, one hop per millisecond of virtual time.
constexpr std::uint32_t kHops = 48;
constexpr std::uint32_t kSpin = 2000;
constexpr int kTimingReps = 3;

class ScaleTokenProcess final : public Process {
 public:
  void on_start(ProcessContext& ctx) override {
    forward(ctx, kHops, ctx.self().value());
  }

  void on_message(ProcessContext& ctx, ChannelId /*in*/,
                  Message message) override {
    ByteReader reader(message.payload);
    const auto hops = reader.u32();
    const auto value = reader.u64();
    if (!hops.ok() || !value.ok()) return;
    std::uint64_t mixed = value.value();
    for (std::uint32_t i = 0; i < kSpin; ++i) {
      mixed ^= mixed >> 33;
      mixed *= 0xff51afd7ed558ccdULL;
      mixed ^= mixed >> 29;
      mixed += 0x9e3779b97f4a7c15ULL;
    }
    checksum_ += mixed;
    ++handled_;
    if (hops.value() > 0) forward(ctx, hops.value() - 1, mixed);
  }

  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  [[nodiscard]] std::uint64_t handled() const { return handled_; }

 private:
  void forward(ProcessContext& ctx, std::uint32_t hops, std::uint64_t value) {
    const auto& out = ctx.topology().out_channels(ctx.self());
    ByteWriter writer;
    writer.u32(hops);
    writer.u64(value);
    ctx.send(out[value % out.size()],
             Message::application(std::move(writer).take()));
  }

  std::uint64_t checksum_ = 0;
  std::uint64_t handled_ = 0;
};

std::vector<ProcessPtr> make_scale_tokens(std::uint32_t n) {
  std::vector<ProcessPtr> processes;
  processes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    processes.push_back(std::make_unique<ScaleTokenProcess>());
  }
  return processes;
}

class RecordingObserver final : public TransportObserver {
 public:
  void on_send(TimePoint when, ChannelId channel,
               const Message& message) override {
    log_ << "S " << when.ns << " " << channel.value() << " "
         << message.payload.size() << "\n";
  }
  void on_deliver(TimePoint when, ChannelId channel,
                  const Message& message) override {
    log_ << "D " << when.ns << " " << channel.value() << " "
         << message.payload.size() << "\n";
  }
  [[nodiscard]] std::string str() const { return log_.str(); }

 private:
  std::ostringstream log_;
};

struct Config {
  const char* topo;
  std::uint32_t n;
  Topology (*make)(std::uint32_t);
};

Topology make_ring(std::uint32_t n) { return Topology::ring(n); }
Topology make_tree(std::uint32_t n) { return Topology::tree(n, 2); }
Topology make_complete(std::uint32_t n) { return Topology::complete(n); }

std::unique_ptr<Simulation> make_sim(const Config& config) {
  SimulationConfig sim_config;
  sim_config.seed = 1;
  sim_config.latency = constant_latency(Duration::millis(1));
  return std::make_unique<Simulation>(config.make(config.n),
                                      make_scale_tokens(config.n),
                                      std::move(sim_config));
}

std::uint64_t checksum_sum(Simulation& sim, std::uint32_t n) {
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += dynamic_cast<const ScaleTokenProcess&>(sim.process(ProcessId(i)))
               .checksum();
  }
  return sum;
}

double time_run(const Config& config) {
  double best_ms = 0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    auto sim = make_sim(config);
    const auto start = std::chrono::steady_clock::now();
    sim->run_until_quiescent();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
    benchmark::DoNotOptimize(checksum_sum(*sim, config.n));
  }
  return best_ms;
}

void write_trace(const Config& config, const std::string& trace) {
  const char* dir = std::getenv("DDBG_SCALE_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + config.topo + "_n" +
                           std::to_string(config.n) + ".trace";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(trace.data(), 1, trace.size(), f);
  std::fclose(f);
}

// Comma list of sizes from environment variable `name`, or `defaults` when
// it is unset.
std::vector<std::uint32_t> sizes_from_env(const char* name,
                                          std::vector<std::uint32_t> defaults) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return defaults;
  std::vector<std::uint32_t> sizes;
  std::stringstream stream(env);
  std::string item;
  while (std::getline(stream, item, ',')) {
    sizes.push_back(static_cast<std::uint32_t>(std::stoul(item)));
  }
  return sizes;
}

// Returns the wall-clock ms and records the metrics snapshot.
double run_config(const Config& config) {
  const double wall_ms = time_run(config);

  auto sim = make_sim(config);
  RecordingObserver observer;
  sim->set_observer(&observer);
  sim->run_until_quiescent();
  write_trace(config, observer.str());

  // Metrics snapshots materialize channels sparsely (only channels with
  // recorded activity appear), so even complete(1024) — ~1M channel slots,
  // ~50k of them active — records in milliseconds.  Every configuration
  // therefore gets a BENCH_scale.json row; the only exclusions in this
  // binary are the tier sweep's N >= 10k rows (see run_tier_config below)
  // and the large complete-graph halt rows.  The "seq" in the label keeps
  // the row names the committed baseline is keyed by.
  char label[128];
  std::snprintf(label, sizeof label, "%s n=%u seq wall_ms=%.2f",
                config.topo, config.n, wall_ms);
  record_metrics(label, *sim);
  return wall_ms;
}

// ---------------------------------------------------------------------------
// Hierarchical debugger tier: halt-wave sweep
// ---------------------------------------------------------------------------
//
// Users on a binary tree topology run an endless token workload; a
// hierarchical debugger tier (with_debugger_tree) halts the computation
// mid-flight and assembles S_h by convergecast.  Each row is verified:
//
//   * completeness — every user contributes exactly one snapshot;
//   * message conservation — sum(sent_p) == sum(received_p) + messages
//     recorded in channel states.  With FIFO channels and Lemma 2.2 this
//     holds exactly on a consistent cut, and it costs O(n), so it is the
//     cut criterion that still works at N=100k;
//   * vector-clock cut consistency below N=10k.  Clocks are O(n) per
//     process — tens of gigabytes across 100k processes — so large rows
//     run with stamping off and rely on conservation instead.  This and
//     the metrics-JSON skip below are the only exclusions at scale;
//   * tier counters — exactly one aggregated ack per aggregator per wave,
//     suppression strictly positive in tree mode.
//
// Environment: DDBG_SCALE_TREE_N (comma list) overrides the N sweep.
constexpr std::uint32_t kTierFanout = 16;

class TierLoadProcess final : public Process {
 public:
  void on_start(ProcessContext& ctx) override {
    send_token(ctx, ctx.self().value() * 0x9e3779b97f4a7c15ULL + 1);
  }

  void on_message(ProcessContext& ctx, ChannelId /*in*/,
                  Message message) override {
    ByteReader reader(message.payload);
    const auto value = reader.u64();
    if (!value.ok()) return;
    ++received_;
    std::uint64_t mixed = value.value();
    mixed ^= mixed >> 33;
    mixed *= 0xff51afd7ed558ccdULL;
    mixed ^= mixed >> 29;
    send_token(ctx, mixed);
  }

  [[nodiscard]] Bytes snapshot_state() const override {
    ByteWriter writer;
    writer.u64(sent_);
    writer.u64(received_);
    return std::move(writer).take();
  }
  [[nodiscard]] std::string describe_state() const override { return "tier"; }

 private:
  void send_token(ProcessContext& ctx, std::uint64_t value) {
    // The wired topology includes this process's control channel; tokens
    // ride the application channels only.
    if (app_out_.empty()) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        if (!ctx.topology().channel(c).is_control) app_out_.push_back(c);
      }
    }
    ByteWriter writer;
    writer.u64(value);
    ++sent_;
    ctx.send(app_out_[value % app_out_.size()],
             Message::application(std::move(writer).take()));
  }

  std::vector<ChannelId> app_out_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

// Message conservation over a halted cut of processes whose state encodes
// (sent, received) counters, as TierLoadProcess and GossipProcess both do.
// With FIFO channels and Lemma 2.2, sent == received + recorded exactly on
// a consistent cut, at O(n) cost.
struct Conservation {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t recorded = 0;
  bool decodable = true;
  [[nodiscard]] bool holds() const {
    return decodable && sent == received + recorded;
  }
};

Conservation count_conservation(const GlobalState& state,
                                const Topology& topology) {
  Conservation out;
  for (const auto& [p, snapshot] : state.snapshots()) {
    ByteReader reader(snapshot.state);
    const auto s = reader.u64();
    const auto r = reader.u64();
    if (!s.ok() || !r.ok()) {
      out.decodable = false;
      continue;
    }
    out.sent += s.value();
    out.received += r.value();
    for (const ChannelState& channel : snapshot.in_channels) {
      if (!topology.channel(channel.channel).is_control) {
        out.recorded += channel.messages.size();
      }
    }
  }
  return out;
}

void tier_fail(std::uint32_t n, std::uint32_t fanout, const char* what) {
  std::fprintf(stderr, "bench_scale: tier n=%u fanout=%u: %s\n", n, fanout,
               what);
  std::exit(1);
}

// One halt wave through a debugger tier (fanout == 0: flat debugger
// baseline).  Returns {workload_ms, halt_ms} wall-clock.
std::pair<double, double> run_tier_config(std::uint32_t n,
                                          std::uint32_t fanout) {
  const bool vclocks = n < 10000;
  HarnessConfig config;
  config.seed = 1;
  config.debugger_fanout = fanout;
  config.latency = constant_latency(Duration::millis(1));
  config.shim_options.stamp_vector_clocks = vclocks;
  std::vector<ProcessPtr> users;
  users.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    users.push_back(std::make_unique<TierLoadProcess>());
  }

  auto t0 = std::chrono::steady_clock::now();
  SimDebugHarness harness(Topology::tree(n, 2), std::move(users),
                          std::move(config));
  harness.sim().run_for(Duration::millis(30));
  auto t1 = std::chrono::steady_clock::now();
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(Duration::seconds(120));
  auto t2 = std::chrono::steady_clock::now();
  const double run_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double halt_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();

  if (!wave.has_value() || !wave->complete) {
    tier_fail(n, fanout, "halt wave did not complete");
  }
  if (wave->state.size() != n) tier_fail(n, fanout, "missing snapshots");

  // Vector-clock cut criterion where clocks fit in memory.
  if (vclocks && !consistent_cut(wave->state)) {
    tier_fail(n, fanout, "vector-clock cut inconsistency");
  }

  // Conservation-based cut check (O(n), valid at any scale).
  const Topology& topology = harness.topology();
  const Conservation conservation = count_conservation(wave->state, topology);
  if (!conservation.decodable) tier_fail(n, fanout, "undecodable state");
  if (!conservation.holds()) {
    std::fprintf(stderr,
                 "bench_scale: tier n=%u fanout=%u: conservation broken: "
                 "sent=%llu received=%llu recorded=%llu\n",
                 n, fanout,
                 static_cast<unsigned long long>(conservation.sent),
                 static_cast<unsigned long long>(conservation.received),
                 static_cast<unsigned long long>(conservation.recorded));
    std::exit(1);
  }

  const auto tier = harness.sim().metrics().snapshot().tier;
  if (fanout == 0) {
    if (tier.acks_aggregated != 0) tier_fail(n, fanout, "flat mode acked");
  } else {
    // One combined report per aggregator per wave, never more than one ack
    // per non-root tier node.
    if (tier.acks_aggregated != topology.num_aggregators() ||
        tier.acks_aggregated >= n) {
      tier_fail(n, fanout, "aggregated ack count off");
    }
    if (tier.markers_suppressed == 0) tier_fail(n, fanout, "no suppression");
    if (tier.tree_fanout == 0 || tier.tree_fanout > fanout) {
      tier_fail(n, fanout, "tree fanout gauge off");
    }
  }

  // The ddbg.metrics.v1 snapshot JSON includes every *active* channel —
  // ~4n of them here — so rows at N >= 10k are deliberately not recorded
  // into BENCH_scale.json: the file would be dominated by channel entries
  // while the verification above already carries the signal.  This skip
  // and the vclock one are the documented large-N exclusions.
  if (n < 10000) {
    char label[128];
    std::snprintf(label, sizeof label,
                  "tier n=%u fanout=%u halt wall_ms=%.2f", n, fanout,
                  halt_ms);
    record_metrics(label, harness.sim());
  } else {
    print_row("  (skipping BENCH_scale.json row and vclock cut check for "
              "tier n=%u: per-channel JSON and O(n^2) clock memory; "
              "conservation check performed instead)",
              n);
  }
  return {run_ms, halt_ms};
}

std::vector<std::uint32_t> tier_sizes() {
  return sizes_from_env("DDBG_SCALE_TREE_N", {256, 10000, 100000});
}

void print_tier_table() {
  print_header(
      "Hierarchical debugger tier: halt-wave scale sweep",
      "Binary-tree workload halted mid-flight through a fanout-16 debugger\n"
      "tier; every wave verified complete, conservation-clean and (below\n"
      "10k) vector-clock consistent.  The flat row shows the O(channels)\n"
      "single-debugger baseline at the smallest N.");
  print_row("%8s %8s %7s %12s %12s", "mode", "n", "fanout", "run ms",
            "halt ms");
  bool flat_done = false;
  for (const std::uint32_t n : tier_sizes()) {
    if (!flat_done) {
      // Flat baseline once, at the smallest N: the root owns all 2n
      // control channels, which is exactly the ceiling the tier removes.
      const auto [run_ms, halt_ms] = run_tier_config(n, 0);
      print_row("%8s %8u %7u %12.1f %12.1f", "flat", n, 0, run_ms, halt_ms);
      flat_done = true;
    }
    const auto [run_ms, halt_ms] = run_tier_config(n, kTierFanout);
    print_row("%8s %8u %7u %12.1f %12.1f", "tier", n, kTierFanout, run_ms,
              halt_ms);
  }
  print_row("\n(every wave above completed with a verified consistent cut)");
}

std::vector<std::uint32_t> sweep_sizes() {
  return sizes_from_env("DDBG_SCALE_N", {64, 256, 1024});
}
std::vector<std::uint32_t> complete_halt_sizes() {
  return sizes_from_env("DDBG_SCALE_N", {256, 512, 1024});
}

// ---------------------------------------------------------------------------
// Complete-graph halt waves
// ---------------------------------------------------------------------------
//
// A flat debugger halts gossip on complete(n).  The wave sends one marker
// on each of the n(n-1) application channels, and each marker closes one
// of its receiver's n-1 in-channels, so the per-marker cost of the
// marker-wave core is what this row times.  Vector clocks are off and each
// process gossips once, so the wave is almost all of the work.  Every wave
// is verified complete and conservation-clean.
//
// A halted complete(n) has touched every channel, so its metrics snapshot
// carries n(n-1) channel entries: ~23 MB of JSON at n=256, ~16x that at
// n=1024.  Rows above kCompleteJsonMaxN are timed and verified but not
// recorded into BENCH_scale.json, like the tier sweep's large rows.
constexpr std::uint32_t kCompleteJsonMaxN = 256;

void complete_fail(std::uint32_t n, const char* what) {
  std::fprintf(stderr, "bench_scale: complete-halt n=%u: %s\n", n, what);
  std::exit(1);
}

// Returns the wall-clock ms of halt() + wait_for_halt().
double run_complete_halt(std::uint32_t n) {
  HarnessConfig config;
  config.seed = 1;
  config.latency = constant_latency(Duration::millis(1));
  config.shim_options.stamp_vector_clocks = false;
  GossipConfig gossip;
  gossip.max_sends = 1;
  SimDebugHarness harness(Topology::complete(n), make_gossip(n, gossip),
                          std::move(config));
  harness.sim().run_for(Duration::millis(5));

  const auto start = std::chrono::steady_clock::now();
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(Duration::seconds(120));
  const double halt_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  if (!wave.has_value() || !wave->complete) {
    complete_fail(n, "halt wave did not complete");
  }
  if (wave->state.size() != n) complete_fail(n, "missing snapshots");
  if (!count_conservation(wave->state, harness.topology()).holds()) {
    complete_fail(n, "conservation broken");
  }

  if (n <= kCompleteJsonMaxN) {
    char label[128];
    std::snprintf(label, sizeof label, "complete-halt n=%u flat wall_ms=%.2f",
                  n, halt_ms);
    record_metrics(label, harness.sim());
  } else {
    print_row("  (skipping BENCH_scale.json row for complete-halt n=%u: "
              "per-channel JSON)",
              n);
  }
  return halt_ms;
}

void print_complete_table() {
  print_header(
      "Complete-graph halt waves: marker-wave core cost",
      "Flat debugger halting one-shot gossip on complete(n), vector clocks\n"
      "off: n(n-1) application-channel markers per wave, in-degree n-1 at\n"
      "every process.  Every wave verified complete and conservation-clean.");
  print_row("%8s %12s %12s", "n", "markers", "halt ms");
  for (const std::uint32_t n : complete_halt_sizes()) {
    const double halt_ms = run_complete_halt(n);
    print_row("%8u %12llu %12.1f", n,
              static_cast<unsigned long long>(n) * (n - 1), halt_ms);
  }
}

void print_table() {
  print_header(
      "Scale sweep: the sequential event loop",
      "N concurrent tokens, 48 hops each, deterministic per-hop mixing "
      "work.");
  print_row("%9s %6s %12s", "topology", "n", "wall ms");
  for (const std::uint32_t n : sweep_sizes()) {
    const Config configs[] = {{"ring", n, make_ring},
                              {"tree", n, make_tree},
                              {"complete", n, make_complete}};
    for (const Config& config : configs) {
      print_row("%9s %6u %12.2f", config.topo, n, run_config(config));
    }
  }
}

void BM_Ring256(benchmark::State& state) {
  const Config config{"ring", 256, make_ring};
  for (auto _ : state) {
    auto sim = make_sim(config);
    sim->run_until_quiescent();
    benchmark::DoNotOptimize(checksum_sum(*sim, config.n));
  }
}
BENCHMARK(BM_Ring256)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ddbg::bench

int main(int argc, char** argv) {
  ddbg::bench::print_table();
  ddbg::bench::print_tier_table();
  ddbg::bench::print_complete_table();
  ddbg::bench::write_metrics_json("scale");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
