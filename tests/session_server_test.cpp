// Control-socket session server: protocol round trips, multi-session
// isolation, and the halt-ownership teardown contract (a client dying
// mid-halt must never leave the target halted forever).
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "debugger/harness.hpp"
#include "debugger/port_file.hpp"
#include "debugger/session_client.hpp"
#include "debugger/session_protocol.hpp"
#include "debugger/session_repl.hpp"
#include "debugger/session_server.hpp"
#include "workload/behaviors.hpp"
#include "workload/resources.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(10);

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(SessionProtocol, RequestRoundTrip) {
  SessionRequest request;
  request.req_id = 42;
  request.op = SessionOp::kBreak;
  request.text = "p0:event(token) -> p2:recv";
  request.number = -7;

  ByteWriter writer;
  request.encode(writer);
  const Bytes wire = std::move(writer).take();

  auto decoded = SessionRequest::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().req_id, 42u);
  EXPECT_EQ(decoded.value().op, SessionOp::kBreak);
  EXPECT_EQ(decoded.value().text, request.text);
  EXPECT_EQ(decoded.value().number, -7);
}

TEST(SessionProtocol, ResponseRoundTripAndErrorCodes) {
  SessionResponse ok = SessionResponse::success(7, "done", 3, {1, 2, 3});
  ByteWriter writer;
  ok.encode(writer);
  auto decoded = SessionResponse::decode(std::move(writer).take());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().ok());
  EXPECT_EQ(decoded.value().text, "done");
  EXPECT_EQ(decoded.value().payload, (Bytes{1, 2, 3}));

  SessionResponse failed = SessionResponse::failure(
      8, Error(ErrorCode::kTimeout, "too slow"));
  EXPECT_FALSE(failed.ok());
  ASSERT_TRUE(failed.error_code().has_value());
  EXPECT_EQ(*failed.error_code(), ErrorCode::kTimeout);
}

TEST(SessionProtocol, UnknownOpRejected) {
  ByteWriter writer;
  writer.u64(1);
  writer.u8(200);  // far past kQuit
  writer.str("");
  writer.i64(0);
  auto decoded = SessionRequest::decode(std::move(writer).take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
}

// ---------------------------------------------------------------------------
// REPL command parser
// ---------------------------------------------------------------------------

TEST(SessionRepl, ParsesCommandsAndOperands) {
  auto brk = parse_repl_line("  break p0:recv -> p1:recv  ");
  ASSERT_TRUE(brk.ok());
  EXPECT_EQ(brk.value().op, SessionOp::kBreak);
  EXPECT_EQ(brk.value().text, "p0:recv -> p1:recv");

  auto inspect = parse_repl_line("inspect p3");
  ASSERT_TRUE(inspect.ok());
  EXPECT_EQ(inspect.value().op, SessionOp::kInspect);
  EXPECT_EQ(inspect.value().number, 3);

  auto clear = parse_repl_line("clear 2");
  ASSERT_TRUE(clear.ok());
  EXPECT_EQ(clear.value().op, SessionOp::kClear);
  EXPECT_EQ(clear.value().number, 2);

  auto comment = parse_repl_line("# a comment");
  ASSERT_TRUE(comment.ok());
  EXPECT_EQ(comment.value().kind, ReplLine::Kind::kEmpty);

  auto expect = parse_repl_line("expect no deadlock");
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(expect.value().kind, ReplLine::Kind::kExpect);
  EXPECT_EQ(expect.value().text, "no deadlock");
}

TEST(SessionRepl, RejectsMalformedLines) {
  EXPECT_FALSE(parse_repl_line("break").ok());
  EXPECT_FALSE(parse_repl_line("clear zero").ok());
  EXPECT_FALSE(parse_repl_line("inspect").ok());
  EXPECT_FALSE(parse_repl_line("halt now").ok());
  EXPECT_FALSE(parse_repl_line("frobnicate").ok());
  EXPECT_FALSE(parse_repl_line("clear 99999999999999999999").ok());
}

// ---------------------------------------------------------------------------
// set_breakpoint error discrimination (satellite bugfix)
// ---------------------------------------------------------------------------

// A host that drops every post: the debugger never acknowledges the arm,
// so the Result must be kTimeout — not the old kInvalidArgument conflation.
class DroppingHost final : public SessionHost {
 public:
  void post(ProcessId,
            std::function<void(ProcessContext&, Process&)>) override {}
  bool wait(const std::function<bool()>& condition, Duration) override {
    return condition();  // never becomes true; report expiry immediately
  }
};

TEST(SessionErrors, ParseFailureIsParseErrorWithColumn) {
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, {}));
  auto result = harness.session().set_breakpoint("p0:@bad");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
  EXPECT_NE(result.error().message().find("syntax error at column"),
            std::string::npos)
      << result.error().message();
}

TEST(SessionErrors, ArmTimeoutIsTimeout) {
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, {}));
  DroppingHost dropping;
  DebuggerSession session(dropping, harness.debugger(),
                          harness.debugger_id());
  auto result = session.set_breakpoint("p0:recv", Duration::millis(50));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_NE(result.error().message().find("did not ack arm"),
            std::string::npos)
      << result.error().message();
}

TEST(SessionErrors, UnknownProcessIsInvalidArgument) {
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, {}));
  auto result = harness.session().set_breakpoint("p9:recv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end over TCP
// ---------------------------------------------------------------------------

struct TcpTarget {
  explicit TcpTarget(std::uint32_t n = 4, std::uint32_t fanout = 0)
      : harness(Topology::ring(n), make_token_ring(n, ring_config()),
                make_harness_config(fanout)),
        host(harness.tcp()),
        server(host, harness.debugger(), harness.debugger_id(),
               &harness.tcp().metrics(),
               SessionServerConfig{.command_timeout = Duration::seconds(5),
                                   .num_user_processes = n}) {
    server.set_metrics_json_source([this] {
      return harness.tcp().metrics().snapshot(harness.tcp().now()).to_json();
    });
    harness.tcp().set_control_acceptor(server.acceptor());
  }

  ~TcpTarget() {
    server.stop();
    harness.shutdown();
  }

  static TokenRingConfig ring_config() {
    TokenRingConfig config;
    config.rounds = 1'000'000;
    config.hop_delay = Duration::millis(1);
    return config;
  }

  static HarnessConfig make_harness_config(std::uint32_t fanout) {
    HarnessConfig config;
    config.seed = 1;
    config.debugger_fanout = fanout;
    return config;
  }

  [[nodiscard]] bool start() { return harness.start(); }
  [[nodiscard]] std::uint16_t port() {
    return harness.tcp().control_port();
  }

  TcpDebugHarness harness;
  TcpHost host;
  SessionServer server;
};

TEST(SessionServerTcp, FullCommandCycle) {
  TcpTarget target;
  ASSERT_TRUE(target.start());
  ASSERT_NE(target.port(), 0);

  SessionClient client;
  ASSERT_TRUE(client.connect(target.port()).ok());

  auto hello = client.call(SessionOp::kHello, "test");
  ASSERT_TRUE(hello.ok());
  ASSERT_TRUE(hello.value().ok());
  EXPECT_EQ(hello.value().number, 1);  // first session

  auto brk = client.call(SessionOp::kBreak, "p1:sent>=5");
  ASSERT_TRUE(brk.ok());
  ASSERT_TRUE(brk.value().ok()) << brk.value().text;
  EXPECT_GT(brk.value().number, 0);

  auto bad = client.call(SessionOp::kBreak, "p0:@");
  ASSERT_TRUE(bad.ok());
  ASSERT_FALSE(bad.value().ok());
  EXPECT_EQ(*bad.value().error_code(), ErrorCode::kParseError);
  EXPECT_NE(bad.value().text.find("column"), std::string::npos);

  // state before any halt: a clean precondition failure, not a hang.
  auto early = client.call(SessionOp::kState);
  ASSERT_TRUE(early.ok());
  ASSERT_FALSE(early.value().ok());
  EXPECT_EQ(*early.value().error_code(), ErrorCode::kFailedPrecondition);

  auto halt = client.call(SessionOp::kHalt);
  ASSERT_TRUE(halt.ok());
  ASSERT_TRUE(halt.value().ok()) << halt.value().text;
  EXPECT_GT(halt.value().number, 0);
  EXPECT_EQ(target.server.halt_owner(), 1u);

  auto state = client.call(SessionOp::kState);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state.value().ok()) << state.value().text;
  // Payload: varint count + one ProcessSnapshot per user process.
  ByteReader reader(state.value().payload);
  auto count = reader.varint();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 4u);
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto snapshot = ProcessSnapshot::decode(reader);
    ASSERT_TRUE(snapshot.ok()) << snapshot.error().to_string();
  }

  // The deadlock verdict is a successful command on any workload; a lively
  // token ring reports "no deadlock" (number 0) rather than an error.
  auto deadlock = client.call(SessionOp::kDeadlock);
  ASSERT_TRUE(deadlock.ok());
  ASSERT_TRUE(deadlock.value().ok()) << deadlock.value().text;
  EXPECT_EQ(deadlock.value().number, 0) << deadlock.value().text;
  EXPECT_NE(deadlock.value().text.find("no deadlock"), std::string::npos);

  auto inspect = client.call(SessionOp::kInspect, "", 2);
  ASSERT_TRUE(inspect.ok());
  ASSERT_TRUE(inspect.value().ok()) << inspect.value().text;

  auto outside = client.call(SessionOp::kInspect, "", 99);
  ASSERT_TRUE(outside.ok());
  ASSERT_FALSE(outside.value().ok());
  EXPECT_EQ(*outside.value().error_code(), ErrorCode::kInvalidArgument);

  auto metrics = client.call(SessionOp::kMetrics);
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok());
  EXPECT_NE(metrics.value().text.find("\"ddbg.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(metrics.value().text.find("\"session\":{\"opened\":1"),
            std::string::npos);

  auto resume = client.call(SessionOp::kResume);
  ASSERT_TRUE(resume.ok());
  ASSERT_TRUE(resume.value().ok());
  EXPECT_EQ(target.server.halt_owner(), 0u);

  auto quit = client.call(SessionOp::kQuit);
  ASSERT_TRUE(quit.ok());
  EXPECT_TRUE(quit.value().ok());

  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return target.server.active_sessions() == 0; }, kWait));
}

TEST(SessionServerTcp, DeadlockVerdictOnResourceRing) {
  const std::uint32_t n = 3;
  // Real threads do not tick in lockstep, so widen the hold-own window far
  // past startup skew: every process sits on its own resource before
  // requesting the successor's, and the circular wait closes on the first
  // acquisition cycle.
  ResourceRingConfig rcfg;
  rcfg.acquire_delay = Duration::millis(30);
  HarnessConfig hcfg;
  TcpDebugHarness harness(resource_ring_topology(n),
                          make_resource_ring(n, rcfg), std::move(hcfg));
  TcpHost host(harness.tcp());
  SessionServer server(host, harness.debugger(), harness.debugger_id(),
                       &harness.tcp().metrics(),
                       SessionServerConfig{.num_user_processes = n});
  harness.tcp().set_control_acceptor(server.acceptor());
  ASSERT_TRUE(harness.start());

  SessionClient client;
  ASSERT_TRUE(client.connect(harness.tcp().control_port()).ok());

  // Let every process grab its own resource and send its (delayed)
  // request, then halt and analyze.  Retry: a halt can still land inside
  // the startup transient.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  bool deadlocked = false;
  for (int attempt = 0; attempt < 20 && !deadlocked; ++attempt) {
    auto halt = client.call(SessionOp::kHalt);
    ASSERT_TRUE(halt.ok());
    ASSERT_TRUE(halt.value().ok()) << halt.value().text;
    auto verdict = client.call(SessionOp::kDeadlock);
    ASSERT_TRUE(verdict.ok());
    ASSERT_TRUE(verdict.value().ok()) << verdict.value().text;
    if (verdict.value().number == 1) {
      deadlocked = true;
      EXPECT_NE(verdict.value().text.find("DEADLOCK"), std::string::npos);
    } else {
      auto resume = client.call(SessionOp::kResume);
      ASSERT_TRUE(resume.ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(deadlocked);

  server.stop();
  harness.shutdown();
}

TEST(SessionServerTcp, FourConcurrentSessionsAreIsolated) {
  TcpTarget target(5);
  ASSERT_TRUE(target.start());

  constexpr int kClients = 4;
  SessionClient clients[kClients];
  for (auto& client : clients) {
    ASSERT_TRUE(client.connect(target.port()).ok());
    auto hello = client.call(SessionOp::kHello);
    ASSERT_TRUE(hello.ok());
    ASSERT_TRUE(hello.value().ok());
  }
  EXPECT_EQ(target.server.active_sessions(), 4u);

  // Interleave requests across all sessions from one thread; each session
  // must answer with its own req_id stream intact.
  std::vector<std::int64_t> breakpoint_ids;
  for (int i = 0; i < kClients; ++i) {
    auto brk = clients[i].call(
        SessionOp::kBreak, "p" + std::to_string(i) + ":sent>=1000");
    ASSERT_TRUE(brk.ok());
    ASSERT_TRUE(brk.value().ok()) << brk.value().text;
    breakpoint_ids.push_back(brk.value().number);
  }
  // Distinct breakpoints — the sessions share the debugger but not state.
  for (int i = 0; i < kClients; ++i) {
    for (int j = i + 1; j < kClients; ++j) {
      EXPECT_NE(breakpoint_ids[i], breakpoint_ids[j]);
    }
  }

  // One session halts; the others can read the same S_h.
  auto halt = clients[0].call(SessionOp::kHalt);
  ASSERT_TRUE(halt.ok());
  ASSERT_TRUE(halt.value().ok());
  for (int i = 1; i < kClients; ++i) {
    auto state = clients[i].call(SessionOp::kState);
    ASSERT_TRUE(state.ok());
    ASSERT_TRUE(state.value().ok()) << state.value().text;
  }
  auto resume = clients[0].call(SessionOp::kResume);
  ASSERT_TRUE(resume.ok());

  for (auto& client : clients) {
    auto quit = client.call(SessionOp::kQuit);
    ASSERT_TRUE(quit.ok());
  }
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return target.server.active_sessions() == 0; }, kWait));
  EXPECT_EQ(target.server.sessions_served(), 4u);
}

// A resume arriving while another session's halt wave is still
// propagating would strand that wave incomplete; the server serializes
// the wave-mutating ops, so a storm of concurrent halt/resume cycles
// from many sessions must all succeed.
TEST(SessionServerTcp, ConcurrentHaltResumeStormSerializes) {
  TcpTarget target(6);
  ASSERT_TRUE(target.start());

  constexpr int kClients = 4;
  constexpr int kCycles = 3;
  std::vector<std::thread> threads;
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  const auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> guard{failures_mutex};
    failures.push_back(std::move(what));
  };
  const auto check = [&](const char* op,
                         const Result<SessionResponse>& result) {
    if (!result.ok()) {
      fail(std::string(op) + ": " + result.error().to_string());
      return false;
    }
    if (!result.value().ok()) {
      fail(std::string(op) + ": " + result.value().text);
      return false;
    }
    return true;
  };
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&target, &fail, &check] {
      SessionClient client;
      if (auto status = client.connect(target.port()); !status.ok()) {
        fail("connect: " + status.error().to_string());
        return;
      }
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        if (!check("halt", client.call(SessionOp::kHalt))) return;
        if (!check("state", client.call(SessionOp::kState))) return;
        if (!check("resume", client.call(SessionOp::kResume))) return;
      }
      auto quit = client.call(SessionOp::kQuit);
      (void)quit;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& failure : failures) ADD_FAILURE() << failure;
}

// Two DebuggerSessions on one debugger.  A halt() issued while the other
// session's wave is complete and not yet resumed must return a new wave:
// halt() only posts the initiate, so the older wave is still the latest
// complete one when the wait begins.
TEST(SessionRace, HaltWhileAnotherWaveIsUnresumedReturnsANewWave) {
  SimDebugHarness harness(Topology::ring(4), make_gossip(4, GossipConfig{}));
  SimHost host(harness.sim());
  DebuggerSession first(host, harness.debugger(), harness.debugger_id());
  DebuggerSession second(host, harness.debugger(), harness.debugger_id());
  harness.sim().run_for(Duration::millis(20));

  first.halt();
  const auto held = first.wait_for_halt(Duration::seconds(5));
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->id, 1u);
  second.halt();
  const auto fresh = second.wait_for_halt(Duration::seconds(5));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->id, 2u);
  EXPECT_TRUE(fresh->complete);
  // A breakpoint-free wait after a resume waits for the next wave.
  second.resume();
  EXPECT_FALSE(first.wait_for_halt(Duration::millis(50)).has_value());
}

// The same race on real threads: two sessions storm halt/resume cycles.
// Like the session server, each holds a lock across halt + wait and across
// resume, so one session halts while the other's wave is complete and
// unresumed; every wait must still return a complete wave newer than every
// wave that existed at its halt().
TEST(SessionRace, TwoSessionsHaltResumeStorm) {
  RuntimeDebugHarness harness(Topology::ring(4),
                              make_gossip(4, GossipConfig{}));
  harness.start();
  RuntimeHost host(harness.runtime());
  std::mutex wave_mutex;
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  const auto storm = [&] {
    DebuggerSession session(host, harness.debugger(), harness.debugger_id());
    for (int cycle = 0; cycle < 20; ++cycle) {
      {
        std::lock_guard<std::mutex> guard{wave_mutex};
        const std::uint64_t before = harness.debugger().last_halt_id();
        session.halt();
        const auto wave = session.wait_for_halt(Duration::seconds(10));
        if (!wave.has_value() || !wave->complete || wave->id <= before) {
          std::lock_guard<std::mutex> failed{failures_mutex};
          failures.push_back(
              "cycle " + std::to_string(cycle) + ": halted after wave " +
              std::to_string(before) + " but got " +
              (wave.has_value() ? "wave " + std::to_string(wave->id)
                                : std::string("nothing")));
          return;
        }
      }
      std::lock_guard<std::mutex> guard{wave_mutex};
      session.resume();
    }
  };
  std::thread a(storm);
  std::thread b(storm);
  a.join();
  b.join();
  harness.shutdown();
  for (const std::string& failure : failures) ADD_FAILURE() << failure;
}

// The disconnect-mid-halt contract, case 1: last session out — the server
// must resume the computation outright.
TEST(SessionServerTcp, DisconnectMidHaltReleasesTarget) {
  TcpTarget target;
  ASSERT_TRUE(target.start());

  {
    SessionClient client;
    ASSERT_TRUE(client.connect(target.port()).ok());
    auto halt = client.call(SessionOp::kHalt);
    ASSERT_TRUE(halt.ok());
    ASSERT_TRUE(halt.value().ok()) << halt.value().text;
    EXPECT_EQ(target.server.halt_owner(), 1u);
    client.close();  // vanish without resume or quit
  }

  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return target.server.halt_owner() == 0; }, kWait));
  // The ring must actually move again: message totals grow past the
  // halted-state count.
  const auto before = target.harness.tcp().metrics().totals();
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] {
        return target.harness.tcp().metrics().totals().messages_delivered >
               before.messages_delivered;
      },
      kWait));
  // The serve thread bumps the counter after running the resume; poll
  // rather than racing it.
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] {
        return target.harness.tcp().metrics().snapshot().session
                   .halts_released == 1u;
      },
      kWait));
  EXPECT_EQ(
      target.harness.tcp().metrics().snapshot().session.halts_handed_off,
      0u);
}

// Case 2: another session survives — ownership transfers instead of
// resuming under the survivor's feet.
TEST(SessionServerTcp, DisconnectMidHaltHandsOffToSurvivor) {
  TcpTarget target;
  ASSERT_TRUE(target.start());

  SessionClient survivor;
  ASSERT_TRUE(survivor.connect(target.port()).ok());
  auto hello = survivor.call(SessionOp::kHello);
  ASSERT_TRUE(hello.ok());
  const std::uint64_t survivor_id =
      static_cast<std::uint64_t>(hello.value().number);

  {
    SessionClient owner;
    ASSERT_TRUE(owner.connect(target.port()).ok());
    auto halt = owner.call(SessionOp::kHalt);
    ASSERT_TRUE(halt.ok());
    ASSERT_TRUE(halt.value().ok());
    owner.close();  // vanish mid-halt
  }

  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] { return target.server.halt_owner() == survivor_id; }, kWait));
  // The survivor still sees the halted state and owns the resume.
  auto state = survivor.call(SessionOp::kState);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state.value().ok()) << state.value().text;
  auto resume = survivor.call(SessionOp::kResume);
  ASSERT_TRUE(resume.ok());
  ASSERT_TRUE(resume.value().ok());
  EXPECT_EQ(target.server.halt_owner(), 0u);

  const auto snap = target.harness.tcp().metrics().snapshot();
  EXPECT_EQ(snap.session.halts_handed_off, 1u);
  EXPECT_EQ(snap.session.halts_released, 0u);
}

// -- Port files: the target -> client rendezvous (debugger/port_file) ------
//
// Regression suite for the stale-port race: a port file left behind by a
// dead target used to make the client dial a recycled port.  The fixed
// scheme writes atomically (tmp + rename) and names the server PID so the
// reader can reject entries whose server is gone.

namespace {

std::string port_file_path(const char* tag) {
  return testing::TempDir() + "ddbg_port_" + tag + "_" +
         std::to_string(::getpid());
}

}  // namespace

TEST(PortFile, WriteReadRoundTripCarriesLivePid) {
  const std::string path = port_file_path("roundtrip");
  ASSERT_TRUE(write_port_file(path, 41233).ok());
  auto entry = read_port_file(path);
  ASSERT_TRUE(entry.ok()) << entry.error().message();
  EXPECT_EQ(entry.value().port, 41233);
  EXPECT_EQ(entry.value().pid, static_cast<std::int64_t>(::getpid()));
  // The atomic write must not leave its temporary behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(PortFile, StaleEntryFromDeadServerIsRejected) {
  // A freshly reaped child is a guaranteed-dead PID that was just alive —
  // exactly what a crashed ddbg_target leaves in its port file.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_FALSE(process_alive(child));

  const std::string path = port_file_path("stale");
  {
    std::ofstream out(path);
    out << "DDBG_CONTROL_PORT=41233\n"
        << "DDBG_SERVER_PID=" << child << "\n";
  }
  auto entry = read_port_file(path);
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.error().code(), ErrorCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(PortFile, LegacyBarePortFileStillAccepted) {
  const std::string path = port_file_path("legacy");
  {
    std::ofstream out(path);
    out << "41233\n";
  }
  auto entry = read_port_file(path);
  ASSERT_TRUE(entry.ok()) << entry.error().message();
  EXPECT_EQ(entry.value().port, 41233);
  EXPECT_EQ(entry.value().pid, 0);  // no PID, no liveness check
  std::remove(path.c_str());
}

TEST(PortFile, MissingAndEmptyFilesReadAsNotReady) {
  auto missing = read_port_file(port_file_path("missing"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kNotFound);

  const std::string path = port_file_path("empty");
  { std::ofstream out(path); }
  auto empty = read_port_file(path);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code(), ErrorCode::kNotFound);

  // A PID with no port is also "not ready yet", not a dialable entry.
  {
    std::ofstream out(path);
    out << "DDBG_SERVER_PID=" << ::getpid() << "\n";
  }
  auto pid_only = read_port_file(path);
  ASSERT_FALSE(pid_only.ok());
  EXPECT_EQ(pid_only.error().code(), ErrorCode::kNotFound);
  std::remove(path.c_str());
}

TEST(PortFile, MalformedEntriesAreParseErrors) {
  const std::string path = port_file_path("malformed");
  for (const char* content :
       {"DDBG_CONTROL_PORT=banana\n", "DDBG_CONTROL_PORT=99999999\n",
        "DDBG_SERVER_PID=banana\nDDBG_CONTROL_PORT=41233\n",
        "not a port file\n"}) {
    {
      std::ofstream out(path);
      out << content;
    }
    auto entry = read_port_file(path);
    ASSERT_FALSE(entry.ok()) << content;
    EXPECT_EQ(entry.error().code(), ErrorCode::kParseError) << content;
  }
  std::remove(path.c_str());
}

TEST(PortFile, RewriteReplacesEntryAtomically) {
  // A target restarting on the same path must atomically supersede its old
  // entry; the reader sees either the old complete entry or the new one.
  const std::string path = port_file_path("rewrite");
  ASSERT_TRUE(write_port_file(path, 1111).ok());
  ASSERT_TRUE(write_port_file(path, 2222).ok());
  auto entry = read_port_file(path);
  ASSERT_TRUE(entry.ok()) << entry.error().message();
  EXPECT_EQ(entry.value().port, 2222);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddbg
