// SessionServer: the multi-client serving surface of the interactive
// debugger.
//
// The TCP runtime's control listener (TcpRuntime::set_control_acceptor)
// hands every accepted debugger-client socket to adopt(), which registers
// a session and spawns a service thread for it.  Each session owns a
// private DebuggerSession bound to the shared DebuggerProcess — requests
// from different clients are isolated from each other (their blocking
// waits never interleave on one session object) while the debugger's own
// mutex serializes the underlying state.  The thread speaks the
// length-prefixed request/response protocol of session_protocol.hpp until
// the client quits or its socket dies.
//
// Halt ownership: the paper's halt/resume cycle assumes the user who
// halted eventually resumes.  With many clients that user can vanish
// mid-halt (socket closed between `halt` and `resume`), which must not
// leave the target computation halted forever.  The server tracks which
// session holds the current unresumed halt; on that session's teardown
// the halt is handed off to the lowest-id surviving session (which can
// inspect and resume at leisure) or, when no session remains, released by
// resuming the computation outright.  Both outcomes are deterministic and
// surfaced in the `session` metrics block.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "debugger/session.hpp"
#include "debugger/session_protocol.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

struct SessionServerConfig {
  // Per-request deadline for blocking debugger operations (arm ack, halt
  // wave assembly, state queries).
  Duration command_timeout = Duration::seconds(5);
  // Inspect targets must be below this; 0 = unknown (skip validation and
  // let the timeout catch bad targets).
  std::uint32_t num_user_processes = 0;
};

class SessionServer {
 public:
  // `metrics` may be null (no session counters recorded).  The server
  // holds references; host/debugger/metrics must outlive it.
  SessionServer(SessionHost& host, DebuggerProcess& debugger,
                ProcessId debugger_id, obs::MetricsRegistry* metrics,
                SessionServerConfig config = {});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  // Take ownership of an accepted client socket and serve it on its own
  // thread.  Safe to call from the TCP runtime's reactor thread; returns
  // immediately.  After stop() the fd is closed instead.
  void adopt(int fd);

  // Bindable acceptor for TcpRuntime::set_control_acceptor.
  [[nodiscard]] std::function<void(int)> acceptor() {
    return [this](int fd) { adopt(fd); };
  }

  // The kMetrics op answers with this supplier's JSON; unset -> error.
  void set_metrics_json_source(std::function<std::string()> source);

  // The kReplay op hands its command text ("load <path>", "run", "back",
  // "cut <k>", "status") to this handler and answers with the returned
  // report text; unset -> error.  The server stays agnostic of the replay
  // machinery (src/replay) — embedders that record wire a
  // ReplayCommandHandler in, everything else keeps the op disabled.
  void set_replay_handler(
      std::function<Result<std::string>(const std::string&)> handler);

  // Close every client socket and join every service thread.  Idempotent.
  void stop();

  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] std::uint64_t sessions_served() const;
  // Session id currently holding an unresumed halt; 0 = none.
  [[nodiscard]] std::uint64_t halt_owner() const;

 private:
  struct Client {
    std::uint64_t id = 0;
    int fd = -1;
    std::unique_ptr<DebuggerSession> session;
    std::thread thread;
    std::atomic<bool> done{false};
    // Wave id of this session's last completed halt: `state` and
    // `deadlock` read that wave, not whatever wave another session may
    // have started since.  0 = never halted (fall back to the latest).
    std::uint64_t halt_wave = 0;
  };

  void serve(Client& client);
  [[nodiscard]] SessionResponse handle(Client& client,
                                       const SessionRequest& request);
  // The wave this session's state/deadlock commands refer to: its own
  // last halt if it has one, otherwise the debugger's latest.
  [[nodiscard]] std::optional<DebuggerProcess::WaveInfo> session_halt_wave(
      const Client& client) const;
  // Halt-ownership teardown for a departing session (see header comment).
  void release_or_hand_off(Client& client);
  void reap_finished_locked();
  [[nodiscard]] bool send_response(int fd, const SessionResponse& response);

  SessionHost& host_;
  DebuggerProcess& debugger_;
  ProcessId debugger_id_;
  obs::MetricsRegistry* metrics_;
  SessionServerConfig config_;

  mutable std::mutex mutex_;
  // Serializes the wave-mutating ops (halt, snapshot, resume) across
  // sessions: a resume arriving while another session's halt wave is
  // still propagating would release processes mid-wave and strand the
  // wave incomplete.  Locked before mutex_ when both are needed.
  std::mutex wave_mutex_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::function<std::string()> metrics_json_;
  std::function<Result<std::string>(const std::string&)> replay_handler_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t sessions_served_ = 0;
  // Session holding the current unresumed halt (0 = none).
  std::uint64_t halt_owner_ = 0;
  bool stopped_ = false;
};

}  // namespace ddbg
