#include "debugger/session_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <limits>
#include <utility>

#include "analysis/deadlock.hpp"
#include "net/framing.hpp"

namespace ddbg {

namespace {

// Blocking full-buffer send for response frames; a dead client fails the
// send (MSG_NOSIGNAL) and ends its session instead of raising SIGPIPE.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::string process_name(ProcessId p) {
  return prefixed_id('p', p.value());
}

std::string describe_wave(const DebuggerProcess::WaveInfo& wave,
                          const char* what) {
  std::string out = what;
  out += " wave " + std::to_string(wave.id) + ": " +
         std::to_string(wave.state.size()) + " processes, " +
         std::to_string(wave.state.total_channel_messages()) +
         " in-flight messages";
  return out;
}

}  // namespace

SessionServer::SessionServer(SessionHost& host, DebuggerProcess& debugger,
                             ProcessId debugger_id,
                             obs::MetricsRegistry* metrics,
                             SessionServerConfig config)
    : host_(host),
      debugger_(debugger),
      debugger_id_(debugger_id),
      metrics_(metrics),
      config_(config) {}

SessionServer::~SessionServer() { stop(); }

void SessionServer::set_metrics_json_source(
    std::function<std::string()> source) {
  std::lock_guard<std::mutex> guard{mutex_};
  metrics_json_ = std::move(source);
}

void SessionServer::set_replay_handler(
    std::function<Result<std::string>(const std::string&)> handler) {
  std::lock_guard<std::mutex> guard{mutex_};
  replay_handler_ = std::move(handler);
}

void SessionServer::adopt(int fd) {
  std::unique_ptr<Client> client;
  std::size_t active = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopped_) {
      ::close(fd);
      return;
    }
    reap_finished_locked();
    client = std::make_unique<Client>();
    client->id = next_session_id_++;
    client->fd = fd;
    client->session =
        std::make_unique<DebuggerSession>(host_, debugger_, debugger_id_);
    ++sessions_served_;
    clients_.push_back(std::move(client));
    Client* raw = clients_.back().get();
    raw->thread = std::thread([this, raw] { serve(*raw); });
    for (const auto& c : clients_) {
      if (!c->done.load(std::memory_order_acquire)) ++active;
    }
  }
  if (metrics_ != nullptr) {
    metrics_->on_session_opened();
    metrics_->observe_active_sessions(active);
  }
}

void SessionServer::stop() {
  std::vector<std::unique_ptr<Client>> clients;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopped_) return;
    stopped_ = true;
    clients.swap(clients_);
    // A halt held at shutdown is moot: the embedder is tearing the whole
    // target down, so teardown must not post resumes into a dying runtime.
    halt_owner_ = 0;
  }
  // Unblock every service thread's recv, then join.
  for (const auto& client : clients) ::shutdown(client->fd, SHUT_RDWR);
  for (const auto& client : clients) {
    if (client->thread.joinable()) client->thread.join();
    ::close(client->fd);
  }
}

std::size_t SessionServer::active_sessions() const {
  std::lock_guard<std::mutex> guard{mutex_};
  std::size_t active = 0;
  for (const auto& c : clients_) {
    if (!c->done.load(std::memory_order_acquire)) ++active;
  }
  return active;
}

std::uint64_t SessionServer::sessions_served() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return sessions_served_;
}

std::uint64_t SessionServer::halt_owner() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return halt_owner_;
}

void SessionServer::reap_finished_locked() {
  for (auto it = clients_.begin(); it != clients_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = clients_.erase(it);
    } else {
      ++it;
    }
  }
}

bool SessionServer::send_response(int fd, const SessionResponse& response) {
  Bytes frame;
  const std::size_t header_at = begin_frame(frame);
  ByteWriter writer(frame);
  response.encode(writer);
  end_frame(frame, header_at);
  return write_all(fd, frame.data(), frame.size());
}

void SessionServer::serve(Client& client) {
  FrameParser parser;
  std::uint8_t chunk[4096];
  bool running = true;
  while (running) {
    if (const auto body = parser.next()) {
      auto request = SessionRequest::decode(*body);
      SessionResponse response =
          request.ok() ? handle(client, request.value())
                       : SessionResponse::failure(0, request.error());
      if (metrics_ != nullptr) {
        metrics_->on_session_request(response.ok());
      }
      if (!send_response(client.fd, response)) break;
      if (request.ok() && request.value().op == SessionOp::kQuit) break;
      continue;
    }
    if (parser.corrupt()) break;
    const ssize_t n = ::recv(client.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      parser.append(
          std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    running = false;  // peer closed or socket shut down
  }
  // Deterministic teardown: a session that vanishes mid-halt must not
  // leave the target halted forever.
  release_or_hand_off(client);
  ::shutdown(client.fd, SHUT_RDWR);
  client.done.store(true, std::memory_order_release);
  if (metrics_ != nullptr) metrics_->on_session_closed();
}

void SessionServer::release_or_hand_off(Client& client) {
  bool release = false;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (stopped_ || halt_owner_ != client.id) return;
    // Hand the held halt to the lowest-id surviving session, which keeps
    // the target inspectable for the users still attached.
    const Client* heir = nullptr;
    for (const auto& c : clients_) {
      if (c.get() == &client) continue;
      if (c->done.load(std::memory_order_acquire)) continue;
      if (heir == nullptr || c->id < heir->id) heir = c.get();
    }
    if (heir != nullptr) {
      halt_owner_ = heir->id;
    } else {
      halt_owner_ = 0;
      release = true;
    }
  }
  if (release) {
    // Last session out: resume the computation outright (under the wave
    // lock — the disconnect may race another session's propagating wave).
    std::lock_guard<std::mutex> wave_guard{wave_mutex_};
    client.session->resume(config_.command_timeout);
    if (metrics_ != nullptr) metrics_->on_halt_released_on_disconnect();
  } else if (metrics_ != nullptr) {
    metrics_->on_halt_handed_off();
  }
}

std::optional<DebuggerProcess::WaveInfo> SessionServer::session_halt_wave(
    const Client& client) const {
  if (client.halt_wave != 0) return debugger_.halt_wave(client.halt_wave);
  return debugger_.latest_halt_wave();
}

SessionResponse SessionServer::handle(Client& client,
                                      const SessionRequest& request) {
  DebuggerSession& session = *client.session;
  const Duration timeout = config_.command_timeout;
  switch (request.op) {
    case SessionOp::kHello: {
      std::string banner = "ddbg session " + std::to_string(client.id) +
                           ": attached to debugger " +
                           process_name(debugger_id_);
      if (!request.text.empty()) banner += " (client " + request.text + ")";
      return SessionResponse::success(
          request.req_id, std::move(banner),
          static_cast<std::int64_t>(client.id));
    }
    case SessionOp::kBreak: {
      auto spec = parse_breakpoint(request.text);
      if (!spec.ok()) {
        return SessionResponse::failure(request.req_id, spec.error());
      }
      auto bp = session.arm_breakpoint(spec.value(), timeout);
      if (!bp.ok()) {
        return SessionResponse::failure(request.req_id, bp.error());
      }
      return SessionResponse::success(
          request.req_id,
          "breakpoint " + std::to_string(bp.value().value()) +
              " set: " + spec.value().describe(),
          static_cast<std::int64_t>(bp.value().value()));
    }
    case SessionOp::kClear: {
      if (request.number <= 0 ||
          request.number >
              static_cast<std::int64_t>(
                  std::numeric_limits<BreakpointId::rep_type>::max())) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kInvalidArgument,
                  "clear needs a valid breakpoint id"));
      }
      session.clear_breakpoint(
          BreakpointId(static_cast<BreakpointId::rep_type>(request.number)));
      return SessionResponse::success(
          request.req_id,
          "breakpoint " + std::to_string(request.number) + " cleared",
          request.number);
    }
    case SessionOp::kHalt: {
      // Hold the wave lock across initiate + wait so no other session can
      // resume (or start a competing wave) while the markers propagate.
      std::lock_guard<std::mutex> wave_guard{wave_mutex_};
      session.halt();
      const auto wave = session.wait_for_halt(timeout);
      if (!wave.has_value()) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kTimeout,
                  "halt wave did not complete within " +
                      std::to_string(timeout.ns / 1'000'000) + "ms; " +
                      session.debugger().describe_pending(
                          /*halt=*/true, session.debugger().last_halt_id())));
      }
      client.halt_wave = wave->id;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        if (halt_owner_ == 0) halt_owner_ = client.id;
      }
      return SessionResponse::success(
          request.req_id, describe_wave(*wave, "halted:"),
          static_cast<std::int64_t>(wave->id));
    }
    case SessionOp::kState: {
      auto wave = session_halt_wave(client);
      if (!wave.has_value() || !wave->complete) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kFailedPrecondition,
                  "no completed halt wave; run `halt` first"));
      }
      return SessionResponse::success(
          request.req_id,
          describe_wave(*wave, "S_h of") + "\n" + wave->state.describe(),
          static_cast<std::int64_t>(wave->id),
          *wave->encoded);
    }
    case SessionOp::kSnapshot: {
      std::lock_guard<std::mutex> wave_guard{wave_mutex_};
      auto wave = session.take_snapshot(timeout);
      if (!wave.has_value()) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kTimeout,
                  "snapshot wave did not complete within " +
                      std::to_string(timeout.ns / 1'000'000) + "ms; " +
                      session.debugger().describe_pending(
                          /*halt=*/false,
                          session.debugger().last_snapshot_id())));
      }
      return SessionResponse::success(
          request.req_id,
          describe_wave(*wave, "S_r of") + "\n" + wave->state.describe(),
          static_cast<std::int64_t>(wave->id),
          *wave->encoded);
    }
    case SessionOp::kInspect: {
      if (request.number < 0 ||
          (config_.num_user_processes != 0 &&
           request.number >=
               static_cast<std::int64_t>(config_.num_user_processes))) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kInvalidArgument,
                  "process p" + std::to_string(request.number) +
                      " is outside the topology"));
      }
      const ProcessId target(static_cast<std::uint32_t>(request.number));
      auto snapshot = session.inspect(target, timeout);
      if (!snapshot.has_value()) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kTimeout,
                  process_name(target) + " did not report state within " +
                      std::to_string(timeout.ns / 1'000'000) + "ms"));
      }
      ByteWriter writer;
      snapshot->encode(writer);
      return SessionResponse::success(
          request.req_id, process_name(target) + ": " + snapshot->description,
          request.number, std::move(writer).take());
    }
    case SessionOp::kDeadlock: {
      auto wave = session_halt_wave(client);
      if (!wave.has_value() || !wave->complete) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kFailedPrecondition,
                  "no completed halt wave; run `halt` first"));
      }
      auto report = find_deadlock(wave->state);
      if (!report.ok()) {
        // The analysis ran and concluded it cannot apply to this
        // workload's state encoding — that is an answer, not a protocol
        // failure.
        return SessionResponse::success(
            request.req_id,
            "deadlock analysis inapplicable: " + report.error().message(),
            -1);
      }
      const DeadlockReport& r = report.value();
      std::string text;
      if (r.deadlocked) {
        text = "DEADLOCK: cycle";
        for (const ProcessId p : r.cycle) {
          text += " -> " + process_name(p);
        }
      } else {
        text = "no deadlock: " + std::to_string(r.blocked_processes) +
               " blocked, " + std::to_string(r.rescued_by_channel_state) +
               " rescued by in-flight channel state";
      }
      return SessionResponse::success(request.req_id, std::move(text),
                                      r.deadlocked ? 1 : 0);
    }
    case SessionOp::kHits: {
      const auto hits = session.hits();
      std::string text;
      for (const auto& hit : hits) {
        if (!text.empty()) text += '\n';
        text += "bp " + std::to_string(hit.breakpoint.value()) + " at " +
                process_name(hit.process) + ": " + hit.description;
      }
      if (text.empty()) text = "no breakpoint hits";
      return SessionResponse::success(
          request.req_id, std::move(text),
          static_cast<std::int64_t>(hits.size()));
    }
    case SessionOp::kMetrics: {
      std::function<std::string()> source;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        source = metrics_json_;
      }
      if (!source) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kFailedPrecondition,
                  "target exposes no metrics source"));
      }
      return SessionResponse::success(request.req_id, source());
    }
    case SessionOp::kResume: {
      std::lock_guard<std::mutex> wave_guard{wave_mutex_};
      session.resume(timeout);
      {
        std::lock_guard<std::mutex> guard{mutex_};
        halt_owner_ = 0;
      }
      return SessionResponse::success(request.req_id, "resumed");
    }
    case SessionOp::kReplay: {
      std::function<Result<std::string>(const std::string&)> handler;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        handler = replay_handler_;
      }
      if (!handler) {
        return SessionResponse::failure(
            request.req_id,
            Error(ErrorCode::kFailedPrecondition,
                  "target was not started with recording "
                  "(ddbg_target --record <dir>)"));
      }
      // Replays run a private simulation; they never touch the live
      // target's waves, so no wave_mutex_ here.
      auto report = handler(request.text);
      if (!report.ok()) {
        return SessionResponse::failure(request.req_id, report.error());
      }
      return SessionResponse::success(request.req_id,
                                      std::move(report).value());
    }
    case SessionOp::kQuit:
      return SessionResponse::success(request.req_id, "bye");
  }
  return SessionResponse::failure(
      request.req_id, Error(ErrorCode::kInvalidArgument, "unknown op"));
}

}  // namespace ddbg
