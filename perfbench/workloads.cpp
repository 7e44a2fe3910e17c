#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>

#include "analysis/consistency.hpp"
#include "core/predicate_parser.hpp"
#include "microcosts.hpp"
#include "stats.hpp"

namespace perfbench {

using ddbg::DebuggerProcess;
using ddbg::Duration;
using ddbg::ProcessId;
using WaveInfo = DebuggerProcess::WaveInfo;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    {
      Workload sim_complete;
      sim_complete.name = "sim_complete_halt";
      sim_complete.system.substrate = Substrate::kSim;
      sim_complete.system.users = ddbg::Topology::complete(128);
      sim_complete.system.user.mode = UserConfig::Mode::kGossip;
      sim_complete.system.user.interval = Duration::millis(2);
      sim_complete.system.user.mark_every = 1;
      sim_complete.traffic = Duration::millis(20);
      sim_complete.warmup_cycles = 2;
      w.push_back(std::move(sim_complete));
    }
    {
      Workload chaos;
      chaos.name = "sim_chaos_tier";
      chaos.system.substrate = Substrate::kSim;
      chaos.system.users = ddbg::Topology::tree(1024, 2);
      chaos.system.fanout = 16;
      chaos.system.faults = "drop=0.02,dup=0.01,reorder=0.01,delay=0.02";
      chaos.system.user.mode = UserConfig::Mode::kFlood;
      chaos.system.user.tokens = 1;
      chaos.system.user.mark_every = 1;
      chaos.traffic = Duration::millis(20);
      chaos.warmup_cycles = 2;
      w.push_back(std::move(chaos));
    }
    for (const Substrate substrate : {Substrate::kTcp, Substrate::kThreads}) {
      Workload flood;
      flood.name = substrate == Substrate::kTcp ? "tcp_flood_halt"
                                                : "threads_flood_halt";
      flood.system.substrate = substrate;
      flood.system.users = ddbg::Topology::ring(3);
      flood.system.vector_clocks = true;
      flood.system.user.mode = UserConfig::Mode::kFlood;
      flood.system.user.tokens = 16;
      flood.system.user.mark_every = 64;
      flood.traffic = Duration::millis(20);
      flood.warmup_cycles = 10;
      w.push_back(std::move(flood));
    }
    return w;
  }();
  return all;
}

namespace {

constexpr Duration kTimeout = Duration::seconds(10);

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

std::uint64_t fnv1a(const ddbg::Bytes& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Peak RSS is read after this many measured cycles, so that it does not
// grow with how many cycles a run fits in (the debugger keeps every wave).
constexpr std::size_t kRssCycles = 100;

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

// Confines every thread of this process to `cpu`; threads started later
// inherit the affinity of the thread that starts them.  Returns whether the
// calling thread could be moved.
bool move_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return false;
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    // A thread that has exited meanwhile fails with ESRCH, harmlessly.
    sched_setaffinity(std::stoi(task.path().filename().string()), sizeof one,
                      &one);
  }
  return true;
}

struct Cycle {
  bool bp = false;
  bool ok = true;
  std::string why;  // first failed check
  std::uint64_t wave = 0;
  double latency_ms = 0;  // halt or breakpoint hit -> S_h, process CPU
  double resume_ms = 0;   // resume() -> first delivery, process CPU
  double wall_ms = 0;     // halts only: the same latency on the wall clock
  double resume_wall_ms = 0;
  std::int64_t virtual_ns = 0;  // sim: initiation -> S_h, virtual time
  std::uint64_t markers = 0;
  std::uint64_t channel_state = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dups = 0;
  std::uint64_t acks_aggregated = 0;
  std::uint64_t markers_suppressed = 0;
  std::uint64_t sh_hash = 0;
  std::uint64_t sh_bytes = 0;

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
  [[nodiscard]] bool same_outcome(const Cycle& o) const {
    return bp == o.bp && ok == o.ok && wave == o.wave &&
           virtual_ns == o.virtual_ns && markers == o.markers &&
           channel_state == o.channel_state && retransmits == o.retransmits &&
           dups == o.dups && sh_hash == o.sh_hash && sh_bytes == o.sh_bytes;
  }
};

struct Pass {
  std::vector<Cycle> cycles;
  std::size_t warmup = 0;
  std::uint64_t traffic_deliveries = 0;
  double traffic_cpu_s = 0;
  double traffic_wall_s = 0;
  std::uint64_t sim_events = 0;
  double setup_s = 0;  // process CPU
  double setup_wall_s = 0;
  double start_ms = 0;
  std::vector<double> session_call_us;
  ddbg::obs::MetricsSnapshot metrics;  // at the end of the pass
  std::string metrics_json;
  std::size_t metrics_json_bytes = 0;
  std::vector<ddbg::ProcessSnapshot> fragments;  // of the last S_h
  std::vector<double> latency_us;
  std::vector<double> post_us;
  std::size_t threads = 0;
  double peak_rss_mb = 0;
  bool aborted = false;

  [[nodiscard]] double msgs_per_cpu_s() const {
    return traffic_cpu_s > 0
               ? static_cast<double>(traffic_deliveries) / traffic_cpu_s
               : 0.0;
  }
  [[nodiscard]] double msgs_per_wall_s() const {
    return traffic_wall_s > 0
               ? static_cast<double>(traffic_deliveries) / traffic_wall_s
               : 0.0;
  }
  [[nodiscard]] std::vector<double> samples(bool bp) const {
    std::vector<double> out;
    for (std::size_t i = warmup; i < cycles.size(); ++i) {
      if (cycles[i].ok && cycles[i].bp == bp) out.push_back(cycles[i].latency_ms);
    }
    return out;
  }
  [[nodiscard]] std::vector<double> resume_samples() const {
    return per_cycle([](const Cycle& c) { return c.resume_ms; });
  }
  template <class F>
  [[nodiscard]] std::vector<double> per_cycle(F field) const {
    std::vector<double> out;
    for (std::size_t i = warmup; i < cycles.size(); ++i) {
      if (cycles[i].ok) out.push_back(static_cast<double>(field(cycles[i])));
    }
    return out;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Cycle& c : cycles) n += c.ok ? 0 : 1;
    return n;
  }
};

class CycleRunner {
 public:
  // `cpus`: before every cycle the whole process moves to the next of these;
  // empty leaves the threads to the scheduler.  `keep_fragments`: keep the
  // last S_h's snapshots as micro-cost inputs.
  CycleRunner(System& sys, const Workload& workload, std::uint64_t seed,
              Pass& pass, std::vector<int> cpus, bool keep_fragments = false)
      : sys_(sys),
        workload_(workload),
        pass_(pass),
        sim_(sys.sim() != nullptr),
        keep_fragments_(keep_fragments),
        cpus_(std::move(cpus)),
        bp_offset_(seed) {}

  // Cycles until the wall deadline, or exactly `count` cycles if given.
  void run(std::int64_t deadline_ns, std::optional<std::size_t> count) {
    pass_.warmup = workload_.warmup_cycles;
    std::uint64_t events_in_traffic = 0;
    while (count ? pass_.cycles.size() < *count : wall_ns() < deadline_ns) {
      const bool measured = pass_.cycles.size() >= pass_.warmup;
      if (!cpus_.empty()) move_to_cpu(cpus_[pass_.cycles.size() % cpus_.size()]);
      if (pass_.cycles.size() == pass_.warmup + kRssCycles) {
        pass_.peak_rss_mb = peak_rss_mb();
      }
      const std::uint64_t e0 = sim_ ? sys_.sim()->events_processed() : 0;
      traffic(measured);
      if (sim_ && measured) events_in_traffic += sys_.sim()->events_processed() - e0;
      Cycle cycle;
      cycle.bp = pass_.cycles.size() % 2 == 1;
      const bool alive = run_cycle(cycle);
      pass_.cycles.push_back(std::move(cycle));
      if (!alive) {
        pass_.aborted = true;
        break;
      }
    }
    pass_.sim_events = events_in_traffic;
    if (pass_.peak_rss_mb == 0) pass_.peak_rss_mb = peak_rss_mb();
  }

 private:
  void traffic(bool measured) {
    const std::uint64_t d0 = sys_.probe().deliveries();
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = wall_ns();
    sys_.advance(workload_.traffic);
    const std::int64_t t1 = wall_ns();
    const std::int64_t c1 = process_cpu_ns();
    const std::uint64_t d1 = sys_.probe().deliveries();
    if (!measured) return;
    pass_.traffic_deliveries += d1 - d0;
    pass_.traffic_cpu_s += static_cast<double>(c1 - c0) / 1e9;
    pass_.traffic_wall_s += static_cast<double>(t1 - t0) / 1e9;
  }

  // Returns false when the system can no longer be driven.
  bool run_cycle(Cycle& cycle) {
    const ddbg::obs::MetricsSnapshot before =
        sys_.metrics().snapshot(sys_.now());
    std::optional<WaveInfo> wave = cycle.bp ? breakpoint(cycle) : halt(cycle);
    if (!wave.has_value() || !wave->complete) {
      cycle.fail("no complete S_h within the timeout");
      return false;
    }
    cycle.wave = wave->id;
    if (wave->id != last_wave_ + 1) cycle.fail("wave ids not consecutive");
    last_wave_ = wave->id;
    cycle.virtual_ns = sim_ ? (wave->completed_at - wave->started_at).ns : 0;

    const ddbg::obs::MetricsSnapshot after =
        sys_.metrics().snapshot(sys_.now());
    cycle.markers = after.totals.sent[1] - before.totals.sent[1];
    cycle.retransmits = after.transport.retransmits - before.transport.retransmits;
    cycle.dups = after.transport.dup_suppressed - before.transport.dup_suppressed;
    cycle.acks_aggregated = after.tier.acks_aggregated - before.tier.acks_aggregated;
    cycle.markers_suppressed =
        after.tier.markers_suppressed - before.tier.markers_suppressed;
    if (workload_.system.faults.empty() &&
        (after.transport.retransmits != 0 || after.transport.reconnects != 0 ||
         after.transport.channel_down != 0)) {
      cycle.fail("fault-free run shows retransmits/reconnects/channel_down");
    }
    verify(*wave, cycle);
    if (sim_) {
      const ddbg::Bytes encoded = wave->state.encode_snapshots();
      cycle.sh_hash = fnv1a(encoded);
      cycle.sh_bytes = encoded.size();
    }
    if (keep_fragments_) {
      pass_.fragments.clear();
      for (const auto& [p, snapshot] : wave->state.snapshots()) {
        if (pass_.fragments.size() >= 256) break;
        pass_.fragments.push_back(snapshot);
      }
    }
    return resume(cycle);
  }

  // Latencies are process CPU time: the whole system runs on one CPU, so
  // that is its wall latency minus the time other programs (or the
  // hypervisor) held the CPU.  Once S_h is complete every process is idle,
  // so the session's sleep-polling adds only its own few wake-ups.
  std::optional<WaveInfo> halt(Cycle& cycle) {
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = wall_ns();
    sys_.session().halt();
    std::optional<WaveInfo> wave = sys_.session().wait_for_halt(kTimeout);
    const std::int64_t t1 = wall_ns();
    const std::int64_t c1 = process_cpu_ns();
    if (wave.has_value()) {
      cycle.latency_ms = ms_between(c0, c1);
      // Sim: wall time of halt() + wait_for_halt().  Threads/TCP: the
      // debugger's own stamps on the runtime clock.
      cycle.wall_ms = sim_ ? ms_between(t0, t1)
                           : ms_between(wave->started_at.ns,
                                        wave->completed_at.ns);
    }
    return wave;
  }

  std::optional<WaveInfo> breakpoint(Cycle& cycle) {
    const std::uint32_t target =
        static_cast<std::uint32_t>((bp_offset_ + bp_count_++) % sys_.num_users());
    const std::size_t armed = sys_.armed();
    Probe& probe = sys_.probe();
    probe.cpu_stamp_user.store(target);
    const std::int64_t t0 = wall_ns();
    auto bp = sys_.session().set_breakpoint(
        "p" + std::to_string(target) + ":event(mark)", kTimeout);
    pass_.session_call_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
    if (!bp.ok()) {
      cycle.fail("breakpoint not acknowledged");
      return std::nullopt;
    }
    if (!sys_.wait([&] { return sys_.armed() > armed; }, kTimeout)) {
      cycle.fail("breakpoint never armed");
      return std::nullopt;
    }
    std::optional<WaveInfo> wave = sys_.session().wait_for_halt(kTimeout);
    const std::int64_t done_cpu = process_cpu_ns();
    probe.cpu_stamp_user.store(-1);
    if (!wave.has_value() || !wave->state.has(ProcessId(target))) {
      return wave;
    }
    // The hit process initiated the wave and halted at the end of the
    // handler that emitted the mark, so its S_h state names that mark.
    UserState state;
    const auto path = wave->halt_paths.find(ProcessId(target));
    if (path == wave->halt_paths.end() || !path->second.empty()) {
      cycle.fail("breakpoint wave not initiated by the target");
    } else if (!decode_user_state(wave->state.at(ProcessId(target)).state,
                                  state) ||
               state.marks == 0) {
      cycle.fail("target state names no mark");
    } else {
      const BenchUser::MarkStamp stamp =
          probe.users[target]->mark_stamp(state.marks);
      if (stamp.cpu_ns == 0) {
        cycle.fail("mark stamp overwritten");
      } else {
        cycle.latency_ms = ms_between(stamp.cpu_ns, done_cpu);
      }
    }
    return wave;
  }

  bool resume(Cycle& cycle) {
    Probe& probe = sys_.probe();
    probe.first_delivery_cpu_ns.store(0);
    probe.watch_resume.store(true);
    const std::int64_t t0_runtime = sys_.now().ns;
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = wall_ns();
    sys_.session().resume(kTimeout);
    pass_.session_call_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
    if (!sys_.wait([&] { return probe.first_delivery_cpu_ns.load() != 0; },
                   kTimeout)) {
      cycle.fail("no delivery after resume");
      return false;
    }
    const std::int64_t t1 = wall_ns();
    cycle.resume_ms = ms_between(c0, probe.first_delivery_cpu_ns.load());
    cycle.resume_wall_ms =
        sim_ ? ms_between(t0, t1)
             : ms_between(t0_runtime, probe.first_delivery_ns.load());
    probe.latency_epoch_ns.store(t0_runtime);
    return true;
  }

  void verify(const WaveInfo& wave, Cycle& cycle) {
    const ddbg::Topology& topology = sys_.topology();
    const Probe& probe = sys_.probe();
    const std::uint32_t n = sys_.num_users();
    if (wave.state.size() != n) cycle.fail("S_h misses users");
    std::vector<const ddbg::ChannelState*> recorded(topology.num_channels(),
                                                    nullptr);
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    for (std::uint32_t p = 0; p < n; ++p) {
      if (!wave.state.has(ProcessId(p))) {
        cycle.fail("user missing from S_h");
        return;
      }
      const ddbg::ProcessSnapshot& snapshot = wave.state.at(ProcessId(p));
      UserState state;
      if (!decode_user_state(snapshot.state, state)) {
        cycle.fail("undecodable user state");
        return;
      }
      if (state.fifo_violations != 0) cycle.fail("live FIFO violation");
      sent += state.sent;
      received += state.received;
      for (const ddbg::ChannelState& channel : snapshot.in_channels) {
        recorded[channel.channel.value()] = &channel;
      }
    }
    // Every application channel's recorded state is exactly the messages
    // its source sent past the destination's last receive, in order.
    std::uint64_t in_channels = 0;
    for (const ddbg::ChannelSpec& spec : topology.channels()) {
      if (spec.is_control) continue;
      const std::uint64_t first =
          probe.users[spec.destination.value()]->in_next(
              probe.in_pos[spec.id.value()]);
      const std::uint64_t end = probe.users[spec.source.value()]->out_seq(
          probe.out_pos[spec.id.value()]);
      const ddbg::ChannelState* state = recorded[spec.id.value()];
      const std::size_t count = state == nullptr ? 0 : state->messages.size();
      if (end < first || end - first != count) {
        cycle.fail("channel state does not close the cut");
        continue;
      }
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t seq = 0;
        if (!decode_payload_seq(state->messages[i], seq) || seq != first + i) {
          cycle.fail("channel state out of FIFO order");
          break;
        }
      }
      in_channels += count;
    }
    cycle.channel_state = in_channels;
    if (sent != received + in_channels) cycle.fail("conservation broken");
    if (workload_.system.vector_clocks && !ddbg::consistent_cut(wave.state)) {
      cycle.fail("vector-clock cut inconsistent");
    }
  }

  System& sys_;
  const Workload& workload_;
  Pass& pass_;
  bool sim_;
  bool keep_fragments_;
  std::vector<int> cpus_;
  std::uint64_t bp_offset_;
  std::uint64_t bp_count_ = 0;
  std::uint64_t last_wave_ = 0;
};

SystemConfig with_seed(const Workload& workload, std::uint64_t seed) {
  SystemConfig config = workload.system;
  config.seed = seed;
  return config;
}

// Builds a system and runs it to its first application delivery; returns
// null if it never gets there.
std::unique_ptr<System> set_up(const Workload& workload, std::uint64_t seed,
                               Tracer* tracer, Capture* capture, Pass& pass) {
  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t t0 = wall_ns();
  auto sys = std::make_unique<System>(with_seed(workload, seed), tracer,
                                      capture);
  Probe& probe = sys->probe();
  probe.watch_resume.store(true);
  const std::int64_t s0 = wall_ns();
  if (!sys->start()) return nullptr;
  pass.start_ms = ms_between(s0, wall_ns());
  if (!sys->wait([&] { return probe.first_delivery_cpu_ns.load() != 0; },
                 kTimeout)) {
    return nullptr;
  }
  pass.setup_s =
      static_cast<double>(probe.first_delivery_cpu_ns.load() - c0) / 1e9;
  pass.setup_wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
  pass.threads = sys->threads();
  return sys;
}

void finish(System& sys, Pass& pass, bool keep_json) {
  pass.metrics = sys.metrics().snapshot(sys.now());
  const std::string json = pass.metrics.to_json();
  pass.metrics_json_bytes = json.size();
  if (keep_json) pass.metrics_json = json;
  pass.post_us = sys.post_samples_us();
  sys.shutdown();
  pass.latency_us = sys.probe().latency_samples_us();
}

std::string fmt(const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.6g", key, value);
  return buf;
}

void add_common_info(BenchResult& result, const Pass& pass) {
  result.info.push_back(fmt("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  result.info.push_back(fmt("runtime_threads", static_cast<double>(pass.threads)));
  result.info.push_back(fmt("cycles", static_cast<double>(pass.cycles.size())));
  result.info.push_back(fmt("warmup_cycles", static_cast<double>(pass.warmup)));
  result.info.push_back(fmt("halt_samples", static_cast<double>(pass.samples(false).size())));
  result.info.push_back(fmt("bp_samples", static_cast<double>(pass.samples(true).size())));
  result.info.push_back(fmt("resume_samples", static_cast<double>(pass.resume_samples().size())));
  for (const Cycle& c : pass.cycles) {
    if (!c.ok) {
      result.info.push_back("first_failure=" + c.why);
      break;
    }
  }
}

// Medians of the first and second half of the measured halt samples.
std::pair<double, double> drift(const std::vector<double>& samples) {
  const std::size_t half = samples.size() / 2;
  return {median({samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(half)}),
          median({samples.begin() + static_cast<std::ptrdiff_t>(half), samples.end()})};
}

BenchResult end_to_end(const Workload& workload, std::uint64_t seed,
                       double seconds) {
  BenchResult result;
  // The workload runs on one CPU at a time: see "Clocks and CPUs" in
  // README.md.  Without an affinity the threads stay with the scheduler,
  // and the run says so with cpus_rotated=0.
  std::vector<int> cpus = allowed_cpus();
  if (cpus.empty() || !move_to_cpu(cpus.front())) cpus.clear();
  constexpr int kSetups = 15;
  std::vector<double> setups;
  std::vector<double> wall_setups;
  Pass pass;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    sys = set_up(workload, seed, nullptr, nullptr, pass);
    if (!sys) {
      result.correct = false;
      result.attempted = 1;
      result.failed = 1;
      result.info.push_back("first_failure=set-up never delivered");
      return result;
    }
    setups.push_back(pass.setup_s);
    wall_setups.push_back(pass.setup_wall_s);
  }
  CycleRunner runner(*sys, workload, seed, pass, cpus);
  runner.run(wall_ns() + static_cast<std::int64_t>(seconds * 1e9), std::nullopt);
  finish(*sys, pass, false);
  sys.reset();

  const std::vector<double> halts = pass.samples(false);
  const std::vector<double> bp_halts = pass.samples(true);
  const std::vector<double> resumes = pass.resume_samples();
  result.attempted = pass.cycles.size();
  result.failed = pass.failed();
  result.correct = result.failed == 0 && !pass.aborted && !halts.empty();
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  // Means rather than medians: on a shared host the CPU time of one halt
  // switches between two levels for seconds at a time, and the mean follows
  // the share of slow cycles smoothly where the median jumps between levels.
  result.metrics = {
      {"msgs_per_cpu_s", pass.msgs_per_cpu_s(), "1/s"},
      {"halt_cpu_ms.mean", mean(halts), "ms"},
      {"halt_cpu_ms.p90", quantile(halts, 0.9), "ms"},
      {"bp_halt_cpu_ms.mean", mean(bp_halts), "ms"},
      {"resume_cpu_ms.mean", mean(resumes), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", pass.peak_rss_mb, "MB"},
      {"ok_ratio", (attempted - static_cast<double>(result.failed)) / attempted, "ratio"},
  };
  add_common_info(result, pass);
  result.info.push_back(fmt("cpus_rotated", static_cast<double>(cpus.size())));
  result.info.push_back(fmt("halt_cpu_ms.p50", median(halts)));
  result.info.push_back(fmt("bp_halt_cpu_ms.p50", median(bp_halts)));
  result.info.push_back(fmt("resume_cpu_ms.p50", median(resumes)));
  const auto [first, second] = drift(halts);
  result.info.push_back(fmt("halt_cpu_ms.p50.first_half", first));
  result.info.push_back(fmt("halt_cpu_ms.p50.second_half", second));
  // The wall-clock figures, which a shared host makes unsteady.
  result.info.push_back(fmt("wall.msgs_per_s", pass.msgs_per_wall_s()));
  std::vector<double> wall_halts;
  for (std::size_t i = pass.warmup; i < pass.cycles.size(); ++i) {
    const Cycle& c = pass.cycles[i];
    if (c.ok && !c.bp) wall_halts.push_back(c.wall_ms);
  }
  result.info.push_back(fmt("wall.halt_ms.p50", median(wall_halts)));
  result.info.push_back(fmt(
      "wall.resume_ms.p50",
      median(pass.per_cycle([](const Cycle& c) { return c.resume_wall_ms; }))));
  result.info.push_back(fmt("wall.setup_s", median(wall_setups)));
  return result;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

BenchResult per_layer(const Workload& workload, std::uint64_t seed,
                      double seconds) {
  BenchResult result;
  const bool sim = workload.system.substrate == Substrate::kSim;
  const Substrate substrate = workload.system.substrate;

  // Pass 1: untraced.
  Pass plain;
  {
    auto sys = set_up(workload, seed, nullptr, nullptr, plain);
    if (!sys) {
      result.correct = false;
      result.attempted = result.failed = 1;
      return result;
    }
    CycleRunner runner(*sys, workload, seed, plain, {});
    runner.run(wall_ns() + static_cast<std::int64_t>(seconds * 0.5e9),
               std::nullopt);
    finish(*sys, plain, sim);
  }

  // Pass 2: traced, same inputs; on the simulator the same cycles.
  Tracer tracer;
  Capture capture;
  Pass traced;
  Tracer::Summary spans;
  {
    auto sys = set_up(workload, seed, &tracer, &capture, traced);
    if (!sys) {
      result.correct = false;
      result.attempted = result.failed = 1;
      return result;
    }
    CycleRunner runner(*sys, workload, seed, traced, {},
                       /*keep_fragments=*/true);
    if (sim) {
      runner.run(0, plain.cycles.size());
    } else {
      runner.run(wall_ns() + static_cast<std::int64_t>(seconds * 0.5e9),
                 std::nullopt);
    }
    finish(*sys, traced, sim);
    sys.reset();  // joins the worker threads, which records their CPU time
    spans = tracer.summarize();
  }
  // Chrome trace-event sample, next to the binary (the build directory).
  std::error_code error;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", error);
  if (!error) {
    tracer.write_sample(
        (exe.parent_path() / ("trace_" + workload.name + ".json")).string());
  }

  result.attempted = plain.cycles.size() + traced.cycles.size();
  result.failed = plain.failed() + traced.failed();
  result.correct = !plain.aborted && !traced.aborted;
  if (sim) {
    // Byte-identical metrics JSON and S_h encodings, and identical per-wave
    // virtual latency, markers, retransmits and duplicates.
    if (plain.metrics_json != traced.metrics_json) {
      result.correct = false;
      result.info.push_back("first_failure=traced metrics JSON differs");
    }
    for (std::size_t i = 0; i < traced.cycles.size(); ++i) {
      if (i >= plain.cycles.size() ||
          !traced.cycles[i].same_outcome(plain.cycles[i])) {
        ++result.failed;
        result.info.push_back("first_failure=traced cycle " +
                              std::to_string(i) + " differs");
        break;
      }
    }
  }
  result.correct = result.correct && result.failed == 0;

  MicroInputs inputs;
  inputs.messages = capture.messages();
  inputs.markers = capture.markers();
  inputs.snapshots = traced.fragments;
  inputs.breakpoint = ddbg::parse_breakpoint("p0:event(mark)").value();
  inputs.seed = seed;
  const MicroCosts micro = measure_micro_costs(inputs);

  const ddbg::obs::MetricsSnapshot& m = plain.metrics;
  const double app_delivered = static_cast<double>(m.totals.delivered[0]);
  const double transmissions =
      static_cast<double>(m.totals.messages_sent + m.transport.retransmits +
                          m.transport.faults_injected[1]);
  const auto self_ns = [&](SpanKind k) { return spans.at(k).self_per_call(); };
  const double shim_app_calls = static_cast<double>(spans.at(SpanKind::kShimApp).count);
  const double shim_app_ns =
      shim_app_calls > 0
          ? static_cast<double>(spans.at(SpanKind::kShimApp).self_ns +
                                spans.at(SpanKind::kShimSendPath).self_ns +
                                spans.at(SpanKind::kShimEvent).self_ns) /
                shim_app_calls
          : 0.0;
  const double traced_delivered = static_cast<double>(traced.metrics.totals.delivered[0]);
  double first_virtual_ms = 0;
  for (std::size_t i = plain.warmup; i < plain.cycles.size(); ++i) {
    if (!plain.cycles[i].bp) {
      first_virtual_ms = static_cast<double>(plain.cycles[i].virtual_ns) / 1e6;
      break;
    }
  }
  const auto cycle_median = [&](auto field) { return median(plain.per_cycle(field)); };
  const bool tcp = substrate == Substrate::kTcp;
  const bool threads = substrate == Substrate::kThreads;
  const auto only = [](bool on, double v) { return on ? v : 0.0; };
  std::uint64_t max_queue = 0;
  for (const auto& p : m.processes) max_queue = std::max(max_queue, p.max_queue_depth);
  const double send_ns = spans.at(SpanKind::kSend).total_per_call();
  const double latency_p50 = median(plain.latency_us);
  const auto [first_half, second_half] = drift(plain.samples(false));

  result.metrics = {
      {"sim.events_per_cpu_s", only(sim, ratio(static_cast<double>(plain.sim_events), plain.traffic_cpu_s)), "1/s"},
      {"sim.halt_virtual_ms", only(sim, first_virtual_ms), "ms"},
      {"core.shim.app_ns", shim_app_ns, "ns"},
      {"core.shim.marker_ns", self_ns(SpanKind::kShimMarker), "ns"},
      {"core.halt_markers_per_wave", cycle_median([](const Cycle& c) { return c.markers; }), "count"},
      {"core.channel_state_msgs_per_wave", cycle_median([](const Cycle& c) { return c.channel_state; }), "count"},
      {"core.halting.on_marker_ns.d2", micro.halting_marker_d2_ns, "ns"},
      {"core.halting.on_marker_ns.d255", micro.halting_marker_d255_ns, "ns"},
      {"core.lp.on_event_ns", micro.lp_event_ns, "ns"},
      {"debugger.root_ns", self_ns(SpanKind::kRoot), "ns"},
      {"debugger.aggregator_ns", self_ns(SpanKind::kAggregator), "ns"},
      {"debugger.global_state_add_ns", micro.global_state_add_ns, "ns"},
      {"debugger.session_call_us", median(plain.session_call_us), "us"},
      {"tier.acks_aggregated", cycle_median([](const Cycle& c) { return c.acks_aggregated; }), "count"},
      {"tier.markers_suppressed", cycle_median([](const Cycle& c) { return c.markers_suppressed; }), "count"},
      {"net.encode_ns", micro.encode_ns, "ns"},
      {"net.decode_ns", micro.decode_ns, "ns"},
      {"net.frame_parse_ns", micro.frame_parse_ns, "ns"},
      {"net.rel.stage_ack_ns", micro.rel_stage_ack_ns, "ns"},
      {"net.rel.on_frame_ns", micro.rel_on_frame_ns, "ns"},
      {"net.rel.retransmits_per_msg", ratio(static_cast<double>(m.transport.retransmits), static_cast<double>(m.totals.messages_sent)), "ratio"},
      {"net.rel.dup_suppressed_per_msg", ratio(static_cast<double>(m.transport.dup_suppressed), static_cast<double>(m.totals.messages_sent)), "ratio"},
      {"net.rel.useful_ratio", ratio(static_cast<double>(m.totals.messages_delivered), transmissions), "ratio"},
      {"tcp.send_ns", only(tcp, send_ns), "ns"},
      {"tcp.reactor_cpu_ns_per_msg", only(tcp, ratio(static_cast<double>(spans.worker_cpu_ns - spans.worker_span_ns), traced_delivered)), "ns"},
      {"tcp.frames_per_write", only(tcp, ratio(static_cast<double>(m.transport.write_batch_frames), static_cast<double>(m.transport.write_batches))), "count"},
      {"tcp.wakeups_per_msg", only(tcp, ratio(static_cast<double>(m.transport.epoll_wakeups), app_delivered)), "ratio"},
      {"tcp.eagain_deferrals", only(tcp, static_cast<double>(m.transport.eagain_deferrals)), "count"},
      {"tcp.msg_latency_us.p50", only(tcp, latency_p50), "us"},
      {"threads.send_ns", only(threads, send_ns), "ns"},
      {"threads.deliver_batch", only(threads, ratio(static_cast<double>(m.transport.deliver_batch_messages), static_cast<double>(m.transport.deliver_batches))), "count"},
      {"threads.max_queue_depth", only(threads, static_cast<double>(max_queue)), "count"},
      {"threads.msg_latency_us.p50", only(threads, latency_p50), "us"},
      {"runtime.post_us", median(traced.post_us), "us"},
      {"runtime.start_ms", only(!sim, plain.start_ms), "ms"},
      {"pool.hit_ratio", ratio(static_cast<double>(m.transport.pool_hits), static_cast<double>(m.transport.pool_hits + m.transport.pool_misses)), "ratio"},
      {"clock.merge_ns", micro.clock_merge_ns, "ns"},
      {"clock.compare_ns", micro.clock_compare_ns, "ns"},
      {"obs.snapshot_bytes", static_cast<double>(plain.metrics_json_bytes), "bytes"},
      {"user.handler_ns", self_ns(SpanKind::kUser), "ns"},
      {"trace.msgs_per_cpu_s_untraced", plain.msgs_per_cpu_s(), "1/s"},
      {"trace.msgs_per_cpu_s_traced", traced.msgs_per_cpu_s(), "1/s"},
      {"trace.overhead_ratio", ratio(plain.msgs_per_cpu_s(), traced.msgs_per_cpu_s()), "ratio"},
      {"drift.halt_cpu_ms.first_half", first_half, "ms"},
      {"drift.halt_cpu_ms.second_half", second_half, "ms"},
      {"samples.halt", static_cast<double>(plain.samples(false).size()), "count"},
      {"samples.bp", static_cast<double>(plain.samples(true).size()), "count"},
  };
  add_common_info(result, plain);
  return result;
}

}  // namespace

BenchResult run_workload(const Workload& workload, std::uint64_t seed,
                         double seconds, bool trace) {
  return trace ? per_layer(workload, seed, seconds)
               : end_to_end(workload, seed, seconds);
}

}  // namespace perfbench
