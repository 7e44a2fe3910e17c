#include "runtime/tcp_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <span>
#include <thread>
#include <unordered_map>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "common/serialization.hpp"
#include "net/framing.hpp"
#include "net/reliable.hpp"

namespace ddbg {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Replay-log annotation for transport-level nondeterminism (fault draws,
// reconnects, resyncs).  Diagnostic provenance only — the null check keeps
// unrecorded runs untouched.
void annotate(const std::shared_ptr<ReplaySink>& sink, std::uint8_t kind,
              ChannelId channel, std::uint64_t detail) {
  if (sink != nullptr) sink->record_annotation(kind, channel, detail);
}

// Every frame body starts with the 4-byte channel id it belongs to — the
// demultiplexing key on a shared pair socket.
constexpr std::size_t kChannelPrefixSize = 4;

// Adaptive write budget: the most bytes one gathered sendmsg may carry.
// Starts small (a handler burst fits in one call), doubles while the pair
// stays backpressured, and decays once the queue drains.
constexpr std::size_t kWriteBudgetMin = 16 * 1024;
constexpr std::size_t kWriteBudgetMax = 1024 * 1024;
// Frames per gathered write; a cap on iovec array size, not on batching —
// the reactor loops until the budget or the socket buffer is exhausted.
constexpr std::size_t kMaxWriteIov = 64;

constexpr int kMaxEpollEvents = 64;

// epoll user-data tags for the non-pair fds; pair connections use their
// slot index directly.
constexpr std::uint64_t kTagWake = ~std::uint64_t{0};
constexpr std::uint64_t kTagListen = ~std::uint64_t{0} - 1;
// Debugger-session control listener (config.on_control_accept).
constexpr std::uint64_t kTagControl = ~std::uint64_t{0} - 2;

// Write the whole buffer on a *blocking* fd, retrying on short writes.
// Only the tiny connection hellos use this; data flows through the
// nonblocking reactor path.  MSG_NOSIGNAL: a dead peer must fail the
// send, not SIGPIPE the process.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void apply_pair_socket_options(int fd, const TcpRuntimeConfig& config) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (config.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sndbuf_bytes,
                 sizeof(config.sndbuf_bytes));
  }
  if (config.rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &config.rcvbuf_bytes,
                 sizeof(config.rcvbuf_bytes));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

class TcpProcessContext;

class TcpRuntime::Worker {
 public:
  Worker(TcpRuntime& runtime, ProcessId id, ProcessPtr process, Rng rng);
  ~Worker();

  bool init_sockets();           // create listener + wake pipe
  [[nodiscard]] std::uint16_t port() const { return port_; }
  // Bind the debugger-session control listener on this worker (runs in
  // start(), before any thread launches).
  bool init_control_listener();
  [[nodiscard]] std::uint16_t control_port() const { return control_port_; }
  // Accept the startup connection for every pair this worker is the
  // acceptor side of.
  bool accept_inbound();

  void start();
  void stop_and_join();
  void request_stop();

  void push_closure(std::function<void(ProcessContext&, Process&)> action);
  TimerId add_timer(Duration delay);
  void cancel_timer(TimerId timer);

  // Encode `message` into a pooled frame (channel id + body) and queue it
  // on the channel's pair connection.  Runs on this worker's own thread
  // only (the sender's), like all sends.
  void stage_send(ChannelId channel, const Message& message);

  // Reliability-layer entry point for do_send (runtime_.config_.faults
  // only): stage in the retransmit window and attempt transmission under
  // the fault plan.  Runs on this worker's own thread.
  void rel_send_message(ChannelId channel, const Message& message);

  [[nodiscard]] Process& process() { return *process_; }
  [[nodiscard]] TcpRuntime& runtime() { return runtime_; }
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] std::uint64_t poll_iterations() const {
    return poll_iterations_.load(std::memory_order_relaxed);
  }

 private:
  // One multiplexed connection endpoint.  Slots are stable for the
  // worker's lifetime; only the fd inside comes and goes (epoll interest
  // follows it, so a dead fd is never re-polled).
  struct PairConn {
    std::uint32_t pair = 0;
    std::uint8_t side = 0;  // 0 = dialer end (pair.a), 1 = acceptor end
    int fd = -1;
    bool read_open = false;
    bool write_open = false;
    bool want_write = false;      // EPOLLOUT armed (queue hit EAGAIN)
    std::uint32_t epoll_mask = 0;  // currently registered interest
    std::size_t write_budget = kWriteBudgetMin;
    FrameParser parser;
    struct QueuedFrame {
      ChannelId channel;
      BufferPool::Lease frame;
    };
    std::deque<QueuedFrame> outq;
    std::size_t front_offset = 0;  // bytes of outq.front() already written
    SteadyClock::time_point blocked_since{};
    ChannelId blocked_channel{};
    // Dialer-side redial backoff; max() = no redial scheduled.
    SteadyClock::time_point reconnect_at = SteadyClock::time_point::max();
  };

  void thread_main();
  void wake();
  void setup_conns();
  void setup_epoll();
  void update_epoll_interest(std::size_t slot);
  void epoll_add_conn(std::size_t slot);
  void handle_readable(std::size_t slot, std::uint32_t events);
  void parse_pair_frames(std::size_t slot);
  void fire_due_timers();
  [[nodiscard]] int next_timeout_ms();

  // ---- send path ----
  void queue_frame(ChannelId channel, BufferPool::Lease frame);
  void queue_frame_on(std::size_t slot, ChannelId channel,
                      BufferPool::Lease frame);
  void flush_sends();
  void try_flush(std::size_t slot);
  void continue_flush(std::size_t slot);
  // Retire fully written frames against `written` bytes; returns how many
  // frames completed.
  std::size_t advance_out_queue(PairConn& conn, std::size_t written);
  void fail_write_side(std::size_t slot);

  // ---- connection lifecycle ----
  // Tear the pair endpoint down (epoll DEL, quarantine the fd, flush
  // state).  With faults, the dialer side schedules a redial and the
  // acceptor side waits for the peer's dial.
  void conn_down(std::size_t slot, bool count_loss);
  void retire_fd_from_epoll(int fd);

  // ---- reliability layer (runtime_.config_.faults only) ----
  void rel_transmit(std::size_t slot, std::uint64_t seq);
  void rel_write_data(std::size_t slot, std::uint64_t seq);
  void rel_write_ack(std::size_t in_slot, std::size_t conn_slot);
  void rel_write_ack_frame(std::size_t in_slot, std::size_t conn_slot);
  void rel_try_reconnect(std::size_t slot);
  void rel_fire_due();
  void resync_pair(std::uint32_t pair);
  [[nodiscard]] SteadyClock::time_point rel_next_deadline() const;
  void accept_runtime_connection();
  void accept_control_connections();

  TcpRuntime& runtime_;
  ProcessId id_;
  ProcessPtr process_;
  Rng rng_;
  std::unique_ptr<TcpProcessContext> context_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int control_listen_fd_ = -1;
  std::uint16_t control_port_ = 0;
  int pipe_read_ = -1;
  int pipe_write_ = -1;
  int epoll_fd_ = -1;

  // Declared before conns_: the queued frames in PairConn hold leases that
  // recycle into this pool when destroyed, so the pool must outlive them.
  BufferPool pool_;

  // deque, not vector: PairConn holds move-only pooled leases and must
  // never be relocated (epoll events reference slots by index).
  std::deque<PairConn> conns_;
  // pair index -> the conn slot this worker sends on (side 0 for a
  // self-pair, the worker's only side otherwise).
  std::unordered_map<std::uint32_t, std::uint32_t> send_slot_of_pair_;
  // This process's channels, by endpoint slot (Topology::in_slot /
  // out_slot); the per-channel reliability tables below share the index.
  std::span<const ChannelId> in_channels_;
  std::span<const ChannelId> out_channels_;

  std::size_t frames_this_wakeup_ = 0;
  // Scratch: in-slots that received data in the current parse batch (one
  // cumulative ack each).
  std::vector<std::uint32_t> ack_pending_;

  // Reliability state; sized only when a FaultPlan is configured.
  std::vector<ReliableSender> rel_send_;   // by out slot
  std::vector<std::uint64_t> out_attempts_;  // data fault stream, by out slot
  std::vector<ReliableReceiver> in_recv_;    // by in slot
  std::vector<std::uint64_t> in_ack_attempts_;  // ack fault stream
  // Scratch reused by every retry check and every parsed data frame.
  std::vector<std::uint64_t> due_;
  std::vector<ReliableReceiver::Delivery> releases_;
  // Frames held back by delay/reorder faults, fired by the reactor.
  struct DelayedWire {
    bool is_ack = false;
    std::size_t slot = 0;       // out slot (data) / in slot (ack)
    std::size_t conn_slot = 0;  // ack only: the conn the data arrived on
    std::uint64_t seq = 0;      // data only
  };
  std::multimap<SteadyClock::time_point, DelayedWire> delayed_;
  // Replaced connection fds are shut down but closed only at destruction,
  // so a racing shutdown() snapshot of pair_fd_ can never hit a reused
  // descriptor number.
  std::vector<int> retired_fds_;

  std::mutex mutex_;
  std::deque<std::function<void(ProcessContext&, Process&)>> closures_;
  std::map<std::pair<SteadyClock::time_point, std::uint32_t>, TimerId>
      timers_;
  std::unordered_map<std::uint32_t, SteadyClock::time_point> timer_deadline_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> poll_iterations_{0};

  std::thread thread_;
};

class TcpProcessContext final : public ProcessContext {
 public:
  explicit TcpProcessContext(TcpRuntime::Worker& worker) : worker_(worker) {}

  [[nodiscard]] ProcessId self() const override { return worker_.id(); }
  [[nodiscard]] TimePoint now() const override {
    return worker_.runtime().now();
  }
  [[nodiscard]] const Topology& topology() const override {
    return worker_.runtime().topology();
  }
  void send(ChannelId channel, Message message) override {
    worker_.runtime().do_send(worker_.id(), channel, std::move(message));
  }
  TimerId set_timer(Duration delay) override {
    return worker_.add_timer(delay);
  }
  void cancel_timer(TimerId timer) override { worker_.cancel_timer(timer); }
  [[nodiscard]] Rng& rng() override { return worker_.rng(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return &worker_.runtime().metrics();
  }
  void stop_self() override {}

 private:
  TcpRuntime::Worker& worker_;
};

TcpRuntime::Worker::Worker(TcpRuntime& runtime, ProcessId id,
                           ProcessPtr process, Rng rng)
    : runtime_(runtime),
      id_(id),
      process_(std::move(process)),
      rng_(rng),
      in_channels_(runtime_.topology_.in_channels(id_)),
      out_channels_(runtime_.topology_.out_channels(id_)) {
  context_ = std::make_unique<TcpProcessContext>(*this);
  if (runtime_.config_.faults) {
    rel_send_.assign(out_channels_.size(),
                     ReliableSender(runtime_.config_.reliable));
    out_attempts_.assign(out_channels_.size(), 0);
    in_recv_.resize(in_channels_.size());
    in_ack_attempts_.assign(in_channels_.size(), 0);
  }
}

TcpRuntime::Worker::~Worker() {
  stop_and_join();
  for (PairConn& conn : conns_) close_fd(conn.fd);
  for (int& fd : retired_fds_) close_fd(fd);
  close_fd(listen_fd_);
  close_fd(control_listen_fd_);
  close_fd(pipe_read_);
  close_fd(pipe_write_);
  close_fd(epoll_fd_);
}

bool TcpRuntime::Worker::init_sockets() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  pipe_read_ = pipe_fds[0];
  pipe_write_ = pipe_fds[1];
  if (!set_nonblocking(pipe_read_)) return false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return false;
  }
  // start() dials every pair before any worker accepts, so the backlog
  // must hold this worker's whole acceptor-side fan-in.
  if (::listen(listen_fd_, 1024) != 0) return false;
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return false;
  }
  port_ = ntohs(addr.sin_port);
  return true;
}

bool TcpRuntime::Worker::init_control_listener() {
  control_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (control_listen_fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(control_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return false;
  }
  if (::listen(control_listen_fd_, 64) != 0) return false;
  socklen_t len = sizeof(addr);
  if (::getsockname(control_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return false;
  }
  // Nonblocking so the reactor's accept loop can drain until EAGAIN.
  if (!set_nonblocking(control_listen_fd_)) return false;
  control_port_ = ntohs(addr.sin_port);
  return true;
}

bool TcpRuntime::Worker::accept_inbound() {
  std::size_t expected = 0;
  for (const std::uint32_t p : runtime_.pairs_of_process_[id_.value()]) {
    if (runtime_.pairs_[p].b == id_.value()) ++expected;
  }
  for (std::size_t i = 0; i < expected; ++i) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return false;
    // Hello frame: the 4-byte pair index this connection realizes.
    std::uint8_t hello[4];
    std::size_t got = 0;
    while (got < sizeof(hello)) {
      const ssize_t n = ::read(fd, hello + got, sizeof(hello) - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    std::uint32_t pair = 0;
    std::memcpy(&pair, hello, sizeof(pair));
    if (pair >= runtime_.pairs_.size() ||
        runtime_.pairs_[pair].b != id_.value()) {
      ::close(fd);
      return false;
    }
    apply_pair_socket_options(fd, runtime_.config_);
    if (!set_nonblocking(fd)) {
      ::close(fd);
      return false;
    }
    runtime_.pair_fd_[2 * pair + 1].store(fd);
  }
  return true;
}

void TcpRuntime::Worker::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void TcpRuntime::Worker::request_stop() {
  stopping_.store(true);
  wake();
}

void TcpRuntime::Worker::stop_and_join() {
  request_stop();
  if (thread_.joinable()) thread_.join();
}

void TcpRuntime::Worker::wake() {
  if (pipe_write_ >= 0) {
    const std::uint8_t byte = 1;
    (void)!::write(pipe_write_, &byte, 1);
  }
}

void TcpRuntime::Worker::push_closure(
    std::function<void(ProcessContext&, Process&)> action) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    closures_.push_back(std::move(action));
  }
  wake();
}

TimerId TcpRuntime::Worker::add_timer(Duration delay) {
  const TimerId id(runtime_.next_timer_id_.fetch_add(1));
  const auto deadline =
      SteadyClock::now() + std::chrono::nanoseconds(delay.ns);
  {
    std::lock_guard<std::mutex> guard{mutex_};
    timers_.emplace(std::make_pair(deadline, id.value()), id);
    timer_deadline_.emplace(id.value(), deadline);
  }
  wake();
  return id;
}

void TcpRuntime::Worker::cancel_timer(TimerId timer) {
  std::lock_guard<std::mutex> guard{mutex_};
  const auto it = timer_deadline_.find(timer.value());
  if (it == timer_deadline_.end()) return;  // already fired or cancelled
  timers_.erase(std::make_pair(it->second, timer.value()));
  timer_deadline_.erase(it);
}

// The single wakeup-deadline computation: pending closures, the nearest
// user timer, and — with faults — every reliability deadline (retransmit
// RTOs, delayed frames, redial backoffs) all clamp the same epoll_wait
// timeout.  A long reconnect backoff can therefore never oversleep a user
// timer or vice versa; whichever deadline is nearest bounds the sleep.
int TcpRuntime::Worker::next_timeout_ms() {
  auto deadline = SteadyClock::time_point::max();
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (!closures_.empty()) return 0;
    if (!timers_.empty()) deadline = timers_.begin()->first.first;
  }
  if (runtime_.config_.faults) {
    const auto rel = rel_next_deadline();
    if (rel < deadline) deadline = rel;
  }
  if (deadline == SteadyClock::time_point::max()) return -1;
  const auto now = SteadyClock::now();
  if (deadline <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  return static_cast<int>(std::min<long long>(ms + 1, 1000));
}

void TcpRuntime::Worker::fire_due_timers() {
  while (true) {
    TimerId due;
    {
      std::lock_guard<std::mutex> guard{mutex_};
      if (timers_.empty() ||
          timers_.begin()->first.first > SteadyClock::now()) {
        return;
      }
      due = timers_.begin()->second;
      timer_deadline_.erase(due.value());
      timers_.erase(timers_.begin());
    }
    process_->on_timer(*context_, due);
  }
}

// ---------------------------------------------------------------------------
// Worker: epoll reactor
// ---------------------------------------------------------------------------

void TcpRuntime::Worker::setup_conns() {
  for (const std::uint32_t p : runtime_.pairs_of_process_[id_.value()]) {
    const HostPair& pair = runtime_.pairs_[p];
    if (pair.a == id_.value()) {
      send_slot_of_pair_[p] = static_cast<std::uint32_t>(conns_.size());
      PairConn& conn = conns_.emplace_back();
      conn.pair = p;
      conn.side = 0;
      conn.fd = runtime_.pair_fd_[2 * p].load();
      conn.read_open = conn.write_open = conn.fd >= 0;
    }
    if (pair.b == id_.value()) {
      // The acceptor end sends here unless this is a self-pair (then side
      // 0, registered above, is the send end and this one only receives).
      if (pair.a != pair.b) {
        send_slot_of_pair_[p] = static_cast<std::uint32_t>(conns_.size());
      }
      PairConn& conn = conns_.emplace_back();
      conn.pair = p;
      conn.side = 1;
      conn.fd = runtime_.pair_fd_[2 * p + 1].load();
      conn.read_open = conn.write_open = conn.fd >= 0;
    }
  }
}

void TcpRuntime::Worker::setup_epoll() {
  epoll_fd_ = ::epoll_create1(0);
  DDBG_ASSERT(epoll_fd_ >= 0, "epoll_create1 failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagWake;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, pipe_read_, &ev);
  if (runtime_.config_.faults) {
    // The listener only matters for reconnect dials, which only the fault
    // path performs.
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListen;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  if (control_listen_fd_ >= 0) {
    ev.events = EPOLLIN;
    ev.data.u64 = kTagControl;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, control_listen_fd_, &ev);
  }
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    if (conns_[slot].fd >= 0) epoll_add_conn(slot);
  }
}

void TcpRuntime::Worker::epoll_add_conn(std::size_t slot) {
  PairConn& conn = conns_[slot];
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = slot;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
  conn.epoll_mask = EPOLLIN;
}

void TcpRuntime::Worker::update_epoll_interest(std::size_t slot) {
  PairConn& conn = conns_[slot];
  if (conn.fd < 0) return;
  const std::uint32_t desired = (conn.read_open ? EPOLLIN : 0u) |
                                (conn.want_write ? EPOLLOUT : 0u);
  if (desired == conn.epoll_mask) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = slot;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.epoll_mask = desired;
}

void TcpRuntime::Worker::retire_fd_from_epoll(int fd) {
  // shutdown() now, close() at worker destruction: a concurrently running
  // TcpRuntime::shutdown may have snapshotted this fd, and keeping the
  // number allocated guarantees its ::shutdown can never hit a stranger.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::shutdown(fd, SHUT_RDWR);
  retired_fds_.push_back(fd);
}

void TcpRuntime::Worker::conn_down(std::size_t slot, bool count_loss) {
  PairConn& conn = conns_[slot];
  if (conn.fd < 0) return;
  const bool live = !stopping_.load(std::memory_order_relaxed) &&
                    !runtime_.stopped_.load(std::memory_order_relaxed);
  if (count_loss && live) runtime_.metrics_.on_channel_down();
  runtime_.pair_fd_[2 * conn.pair + conn.side].store(-1);
  retire_fd_from_epoll(conn.fd);
  conn.fd = -1;
  conn.read_open = conn.write_open = false;
  conn.want_write = false;
  conn.epoll_mask = 0;
  conn.parser = FrameParser();
  conn.outq.clear();
  conn.front_offset = 0;
  conn.write_budget = kWriteBudgetMin;
  if (runtime_.config_.faults && live && conn.side == 0 &&
      conn.reconnect_at == SteadyClock::time_point::max()) {
    conn.reconnect_at =
        SteadyClock::now() +
        std::chrono::nanoseconds(runtime_.config_.reliable.rto_initial.ns);
  }
}

void TcpRuntime::Worker::handle_readable(std::size_t slot,
                                         std::uint32_t events) {
  PairConn& conn = conns_[slot];
  if (!conn.read_open) {
    // Read side already half-closed: only a full hangup is news (and it
    // must retire the fd, or level-triggered EPOLLHUP would spin).
    if (events & (EPOLLHUP | EPOLLERR)) {
      conn_down(slot, /*count_loss=*/runtime_.config_.faults != nullptr);
    }
    return;
  }
  bool closed = false;
  std::uint8_t chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      conn.parser.append(
          std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer closed its write side (or error): nothing more arrives here.
    closed = true;
    break;
  }
  parse_pair_frames(slot);
  if (conn.parser.corrupt()) {
    DDBG_ERROR() << "tcp: frame length " << conn.parser.rejected_frame_len()
                 << " exceeds cap on pair " << conn.pair
                 << "; dropping connection";
    conn_down(slot, /*count_loss=*/true);
    return;
  }
  if (!closed) return;
  if (runtime_.config_.faults) {
    // Connection loss under reliability: quarantine and reconnect-with-
    // resync (the dialer side redials, this side may be either).
    conn_down(slot, /*count_loss=*/true);
    return;
  }
  // Bare mode: a half-closed peer stops our reading but the reverse
  // direction may still flow.  Drop EPOLLIN so EOF cannot busy-spin the
  // reactor; a later full hangup retires the fd above.
  conn.read_open = false;
  if (!conn.write_open) {
    conn_down(slot, /*count_loss=*/false);
    return;
  }
  update_epoll_interest(slot);
}

void TcpRuntime::Worker::parse_pair_frames(std::size_t slot) {
  PairConn& conn = conns_[slot];
  FrameParser& parser = conn.parser;
  std::size_t delivered = 0;
  ack_pending_.clear();
  while (const auto body = parser.next()) {
    ++frames_this_wakeup_;
    if (body->size() < kChannelPrefixSize) continue;
    ByteReader reader(*body);
    std::uint32_t channel_id = 0;
    {
      const auto ch = reader.u32();
      if (!ch.ok()) continue;
      channel_id = ch.value();
    }
    const ChannelId channel(channel_id);
    if (!runtime_.config_.faults) {
      if (!runtime_.topology_.find_in_slot(id_, channel)) {
        DDBG_ERROR() << "tcp: frame for foreign channel " << channel_id
                     << " on pair " << conn.pair;
        continue;
      }
      auto message = Message::decode(reader);
      if (!message.ok()) {
        DDBG_ERROR() << "tcp: bad frame on " << to_string(channel) << ": "
                     << message.error().to_string();
        continue;
      }
      ++delivered;
      runtime_.metrics_.on_deliver(
          channel_id, traffic_class(message.value().kind),
          static_cast<std::uint32_t>(body->size() - kChannelPrefixSize));
      runtime_.metrics_.observe_backlog(channel_id, parser.buffered_bytes());
      process_->on_message(*context_, channel,
                           std::move(message).value());
      continue;
    }
    auto header = RelHeader::decode(reader);
    if (!header.ok()) {
      DDBG_ERROR() << "tcp: bad reliable frame on channel " << channel_id
                   << ": " << header.error().to_string();
      continue;
    }
    if (header.value().tag == RelHeader::kAck) {
      const auto out_idx = runtime_.topology_.find_out_slot(id_, channel);
      if (!out_idx) continue;
      rel_send_[*out_idx].ack(header.value().cum_ack);
      continue;
    }
    const auto found = runtime_.topology_.find_in_slot(id_, channel);
    if (!found) {
      DDBG_ERROR() << "tcp: frame for foreign channel " << channel_id
                   << " on pair " << conn.pair;
      continue;
    }
    const std::uint32_t in_idx = *found;
    auto message = Message::decode(reader);
    if (!message.ok()) {
      DDBG_ERROR() << "tcp: bad frame on " << to_string(channel) << ": "
                   << message.error().to_string();
      continue;
    }
    const std::uint64_t wire =
        body->size() - kChannelPrefixSize - kRelHeaderSize;
    releases_.clear();
    const auto accept = in_recv_[in_idx].on_frame(
        header.value().seq, std::move(message).value(), wire, releases_);
    if (accept == ReliableReceiver::Accept::kDuplicate) {
      runtime_.metrics_.on_dup_suppressed();
    }
    for (auto& release : releases_) {
      ++delivered;
      runtime_.metrics_.on_deliver(
          channel_id, traffic_class(release.message.kind),
          static_cast<std::uint32_t>(release.meta));
      process_->on_message(*context_, channel, std::move(release.message));
    }
    runtime_.metrics_.observe_backlog(channel_id, parser.buffered_bytes());
    if (std::find(ack_pending_.begin(), ack_pending_.end(), in_idx) ==
        ack_pending_.end()) {
      ack_pending_.push_back(in_idx);
    }
  }
  // One cumulative ack per channel per drained batch — it carries the
  // furthest in-order point whether the batch delivered, buffered or
  // suppressed.
  for (const std::uint32_t in_idx : ack_pending_) {
    rel_write_ack(in_idx, slot);
  }
  ack_pending_.clear();
  if (delivered > 0) runtime_.metrics_.on_deliver_batch(delivered);
}

void TcpRuntime::Worker::thread_main() {
  setup_conns();
  setup_epoll();
  process_->on_start(*context_);
  flush_sends();

  epoll_event events[kMaxEpollEvents];
  std::deque<std::function<void(ProcessContext&, Process&)>> batch;
  while (!stopping_.load()) {
    poll_iterations_.fetch_add(1, std::memory_order_relaxed);
    const int timeout = next_timeout_ms();
    const int ready =
        ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout);
    if (ready < 0 && errno != EINTR) break;
    runtime_.metrics_.on_epoll_wakeup();
    frames_this_wakeup_ = 0;

    for (int i = 0; i < ready; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTagWake) {
        std::uint8_t sink[256];
        while (::read(pipe_read_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (tag == kTagListen) {
        accept_runtime_connection();
        continue;
      }
      if (tag == kTagControl) {
        accept_control_connections();
        continue;
      }
      const auto slot = static_cast<std::size_t>(tag);
      if (slot >= conns_.size() || conns_[slot].fd < 0) continue;
      if (events[i].events & EPOLLOUT) continue_flush(slot);
      if (conns_[slot].fd >= 0 &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        handle_readable(slot, events[i].events);
      }
    }

    // Run queued closures: swap the whole queue out under one lock and
    // dispatch the batch lock-free while posters refill a fresh deque.
    {
      std::lock_guard<std::mutex> guard{mutex_};
      batch.swap(closures_);
    }
    for (auto& closure : batch) closure(*context_, *process_);
    batch.clear();

    fire_due_timers();
    if (runtime_.config_.faults) rel_fire_due();

    // Everything handlers staged this iteration is offered to the kernel
    // before the next sleep; whatever does not fit parks on EPOLLOUT.
    flush_sends();
    if (frames_this_wakeup_ > 0) {
      runtime_.metrics_.observe_frames_per_wakeup(frames_this_wakeup_);
    }
  }
  flush_sends();
}

// ---------------------------------------------------------------------------
// Worker: send path
// ---------------------------------------------------------------------------

void TcpRuntime::Worker::stage_send(ChannelId channel,
                                    const Message& message) {
  BufferPool::Lease lease = pool_.acquire();
  runtime_.metrics_.on_pool_acquire(lease.reused());
  Bytes& frame = lease.bytes();
  const std::size_t header_at = begin_frame(frame);
  ByteWriter writer(frame);
  writer.u32(channel.value());
  message.encode(writer);
  end_frame(frame, header_at);
  // Wire bytes exclude the frame prefix and the channel id so byte
  // accounting stays identical across the sim/threads/tcp substrates.
  runtime_.metrics_.on_send(
      channel.value(), traffic_class(message.kind),
      static_cast<std::uint32_t>(frame.size() - kFrameHeaderSize -
                                 kChannelPrefixSize));
  queue_frame(channel, std::move(lease));
}

void TcpRuntime::Worker::queue_frame(ChannelId channel,
                                     BufferPool::Lease frame) {
  const std::uint32_t pair = runtime_.channel_pair_[channel.value()];
  const auto it = send_slot_of_pair_.find(pair);
  DDBG_ASSERT(it != send_slot_of_pair_.end(),
              "send on a pair this worker does not own");
  queue_frame_on(it->second, channel, std::move(frame));
}

void TcpRuntime::Worker::queue_frame_on(std::size_t slot, ChannelId channel,
                                        BufferPool::Lease frame) {
  PairConn& conn = conns_[slot];
  if (!conn.write_open) {
    // Bare mode: the loss was counted when the write side died; with
    // faults the retransmit window replays once the pair reconnects.
    return;
  }
  conn.outq.push_back(PairConn::QueuedFrame{channel, std::move(frame)});
}

std::size_t TcpRuntime::Worker::advance_out_queue(PairConn& conn,
                                                  std::size_t written) {
  std::size_t retired = 0;
  while (written > 0 && !conn.outq.empty()) {
    const std::size_t remaining =
        conn.outq.front().frame.bytes().size() - conn.front_offset;
    if (written >= remaining) {
      written -= remaining;
      conn.front_offset = 0;
      conn.outq.pop_front();
      ++retired;
    } else {
      conn.front_offset += written;
      written = 0;
    }
  }
  return retired;
}

void TcpRuntime::Worker::fail_write_side(std::size_t slot) {
  PairConn& conn = conns_[slot];
  const bool live = !stopping_.load(std::memory_order_relaxed) &&
                    !runtime_.stopped_.load(std::memory_order_relaxed);
  if (runtime_.config_.faults) {
    // Nothing is lost: every data frame is still staged in its retransmit
    // window, so tear the pair down and let reconnect-with-resync replay.
    conn_down(slot, /*count_loss=*/true);
    return;
  }
  if (live) {
    // Bare-TCP mode has no retransmit window: the queued frames are lost
    // with the connection.  Count the event so tests and operators see
    // the drop instead of relying on a log line.
    runtime_.metrics_.on_channel_down();
    DDBG_ERROR() << "tcp: write failed on pair " << conn.pair;
  }
  conn.write_open = false;
  conn.want_write = false;
  conn.outq.clear();
  conn.front_offset = 0;
  if (!conn.read_open) {
    conn_down(slot, /*count_loss=*/false);
    return;
  }
  update_epoll_interest(slot);
}

void TcpRuntime::Worker::try_flush(std::size_t slot) {
  PairConn& conn = conns_[slot];
  while (conn.fd >= 0 && conn.write_open && !conn.outq.empty()) {
    // Gather frames under the adaptive byte budget (always at least the
    // remainder of the front frame, so progress is guaranteed).
    iovec iov[kMaxWriteIov];
    std::size_t count = 0;
    std::size_t total = 0;
    for (PairConn::QueuedFrame& queued : conn.outq) {
      if (count == kMaxWriteIov) break;
      Bytes& bytes = queued.frame.bytes();
      const std::size_t offset = count == 0 ? conn.front_offset : 0;
      iov[count].iov_base = bytes.data() + offset;
      iov[count].iov_len = bytes.size() - offset;
      total += iov[count].iov_len;
      ++count;
      if (total >= conn.write_budget) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    // The send-blocked clock brackets the syscall; on a nonblocking fd it
    // is ~0, and the real wedge time (EPOLLOUT armed -> queue drained) is
    // added in continue_flush when the backpressure clears.
    const ChannelId front_channel = conn.outq.front().channel;
    const auto write_start = SteadyClock::now();
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    runtime_.metrics_.add_send_blocked(
        front_channel.value(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - write_start)
            .count());
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Socket buffer full: park the queue on EPOLLOUT instead of
        // spinning — the reactor resumes the flush when space frees up.
        runtime_.metrics_.on_eagain_deferral();
        if (!conn.want_write) {
          conn.want_write = true;
          conn.blocked_since = SteadyClock::now();
          conn.blocked_channel = front_channel;
          update_epoll_interest(slot);
        }
        return;
      }
      fail_write_side(slot);
      return;
    }
    const auto written = static_cast<std::size_t>(n);
    const std::size_t retired = advance_out_queue(conn, written);
    if (retired > 0) runtime_.metrics_.on_write_batch(retired);
    if (written < total) {
      // Partial write: the kernel buffer is full mid-frame.  Same
      // deferral as EAGAIN, and sustained backpressure earns a bigger
      // budget so the next writable window moves more per syscall.
      runtime_.metrics_.on_eagain_deferral();
      conn.write_budget = std::min(conn.write_budget * 2, kWriteBudgetMax);
      if (!conn.want_write) {
        conn.want_write = true;
        conn.blocked_since = SteadyClock::now();
        conn.blocked_channel = front_channel;
        update_epoll_interest(slot);
      }
      return;
    }
    if (!conn.outq.empty()) {
      // Budget-limited, not kernel-limited: grow and keep draining.
      conn.write_budget = std::min(conn.write_budget * 2, kWriteBudgetMax);
    }
  }
  if (conn.outq.empty()) {
    conn.write_budget = std::max(conn.write_budget / 2, kWriteBudgetMin);
    if (conn.want_write) {
      conn.want_write = false;
      runtime_.metrics_.add_send_blocked(
          conn.blocked_channel.value(),
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              SteadyClock::now() - conn.blocked_since)
              .count());
      update_epoll_interest(slot);
    }
  }
}

void TcpRuntime::Worker::continue_flush(std::size_t slot) {
  try_flush(slot);
}

void TcpRuntime::Worker::flush_sends() {
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    if (!conns_[slot].outq.empty() && !conns_[slot].want_write) {
      try_flush(slot);
    }
  }
}

// ---------------------------------------------------------------------------
// Worker: reliability layer
// ---------------------------------------------------------------------------

void TcpRuntime::Worker::rel_send_message(ChannelId channel,
                                          const Message& message) {
  const auto found = runtime_.topology_.find_out_slot(id_, channel);
  DDBG_ASSERT(found.has_value(), "channel is not sourced by this worker");
  const std::size_t slot = *found;
  // Bytes accounted once per logical send, like the bare-TCP path; the
  // wire frame itself is rebuilt per transmission attempt, and the size is
  // stashed alongside the staged message so retransmissions never
  // re-measure.
  const std::uint64_t wire = message.encoded_size();
  runtime_.metrics_.on_send(channel.value(), traffic_class(message.kind),
                            static_cast<std::uint32_t>(wire));
  const std::uint64_t seq =
      rel_send_[slot].stage(message, wire, runtime_.now());
  rel_transmit(slot, seq);
}

void TcpRuntime::Worker::rel_transmit(std::size_t slot, std::uint64_t seq) {
  if (rel_send_[slot].peek(seq) == nullptr) return;  // acked meanwhile
  const ChannelId channel = out_channels_[slot];
  const std::uint64_t attempt = out_attempts_[slot]++;
  const FaultDecision fault =
      runtime_.config_.faults->decide(channel, attempt);
  switch (fault.kind) {
    case FaultKind::kNone:
      rel_write_data(slot, seq);
      return;
    case FaultKind::kDrop:
    case FaultKind::kPartition:
      // Swallowed by the adversary; the retransmit timer recovers.
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      return;
    case FaultKind::kReset: {
      // Connection torn down under the frame: quarantine the pair socket
      // and redial after a backoff.  Resync on the fresh connection
      // replays the whole unacked window, this frame included.
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      const std::uint32_t pair = runtime_.channel_pair_[channel.value()];
      conn_down(send_slot_of_pair_.at(pair), /*count_loss=*/true);
      return;
    }
    case FaultKind::kDuplicate:
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      rel_write_data(slot, seq);
      rel_write_data(slot, seq);
      return;
    case FaultKind::kReorder:
    case FaultKind::kDelay:
      // Held back and fired by the reactor; later frames on the channel
      // overtake this one on the wire, and the receiver's sequencer puts
      // the order back.
      runtime_.metrics_.on_fault(fault_index(fault.kind));
      annotate(runtime_.config_.replay,
               static_cast<std::uint8_t>(fault_index(fault.kind)), channel,
               attempt);
      delayed_.emplace(SteadyClock::now() +
                           std::chrono::nanoseconds(fault.extra_delay.ns),
                       DelayedWire{false, slot, 0, seq});
      return;
  }
}

void TcpRuntime::Worker::rel_write_data(std::size_t slot, std::uint64_t seq) {
  const ReliableSender::Staged* staged = rel_send_[slot].peek(seq);
  if (staged == nullptr) return;  // acked before a delayed copy fired
  const ChannelId channel = out_channels_[slot];
  BufferPool::Lease lease = pool_.acquire();
  runtime_.metrics_.on_pool_acquire(lease.reused());
  Bytes& frame = lease.bytes();
  const std::size_t header_at = begin_frame(frame);
  ByteWriter writer(frame);
  writer.u32(channel.value());
  RelHeader header;
  header.tag = RelHeader::kData;
  header.seq = seq;
  header.encode(writer);
  staged->message.encode(writer);
  end_frame(frame, header_at);
  queue_frame(channel, std::move(lease));
}

void TcpRuntime::Worker::rel_write_ack(std::size_t in_slot,
                                       std::size_t conn_slot) {
  const std::uint64_t attempt = in_ack_attempts_[in_slot]++;
  const FaultDecision fault = runtime_.config_.faults->decide_ack(
      in_channels_[in_slot], attempt);
  if (fault.kind == FaultKind::kDrop) {
    // Cumulative acks make a lost one free: the next carries its news.
    runtime_.metrics_.on_fault(fault_index(fault.kind));
    annotate(runtime_.config_.replay,
             static_cast<std::uint8_t>(fault_index(fault.kind)),
             in_channels_[in_slot], attempt);
    return;
  }
  if (fault.kind == FaultKind::kDelay) {
    runtime_.metrics_.on_fault(fault_index(fault.kind));
    annotate(runtime_.config_.replay,
             static_cast<std::uint8_t>(fault_index(fault.kind)),
             in_channels_[in_slot], attempt);
    delayed_.emplace(SteadyClock::now() +
                         std::chrono::nanoseconds(fault.extra_delay.ns),
                     DelayedWire{true, in_slot, conn_slot, 0});
    return;
  }
  rel_write_ack_frame(in_slot, conn_slot);
}

void TcpRuntime::Worker::rel_write_ack_frame(std::size_t in_slot,
                                             std::size_t conn_slot) {
  // The ack rides the same pair socket the data arrived on (full duplex);
  // if that connection is being replaced, resync re-acks.
  const PairConn& conn = conns_[conn_slot];
  if (conn.fd < 0 || !conn.write_open) return;
  const ChannelId channel = in_channels_[in_slot];
  BufferPool::Lease lease = pool_.acquire();
  runtime_.metrics_.on_pool_acquire(lease.reused());
  Bytes& frame = lease.bytes();
  const std::size_t header_at = begin_frame(frame);
  ByteWriter writer(frame);
  writer.u32(channel.value());
  RelHeader header;
  header.tag = RelHeader::kAck;
  header.cum_ack = in_recv_[in_slot].cum_ack();
  header.encode(writer);
  end_frame(frame, header_at);
  queue_frame_on(conn_slot, channel, std::move(lease));
}

void TcpRuntime::Worker::resync_pair(std::uint32_t pair) {
  // Everything unacked on this worker's out-channels crossing the pair
  // becomes due at once and flows out through the normal retransmit path
  // (counted as both replayed and retransmits).
  for (std::size_t slot = 0; slot < out_channels_.size(); ++slot) {
    if (runtime_.channel_pair_[out_channels_[slot].value()] != pair) {
      continue;
    }
    const std::size_t replayed = rel_send_[slot].mark_all_due(runtime_.now());
    if (replayed > 0) {
      runtime_.metrics_.on_resync_replayed(replayed);
      annotate(runtime_.config_.replay, kReplayAnnotationResync,
               out_channels_[slot], replayed);
    }
  }
}

void TcpRuntime::Worker::rel_try_reconnect(std::size_t slot) {
  PairConn& conn = conns_[slot];
  conn.reconnect_at = SteadyClock::time_point::max();
  if (stopping_.load(std::memory_order_relaxed) ||
      runtime_.stopped_.load(std::memory_order_relaxed)) {
    return;
  }
  const HostPair& pair = runtime_.pairs_[conn.pair];
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  bool ok = fd >= 0;
  if (ok) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(runtime_.workers_[pair.b]->port());
    ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  if (ok) {
    const std::uint32_t pair_index = conn.pair;
    std::uint8_t hello[4];
    std::memcpy(hello, &pair_index, sizeof(pair_index));
    ok = write_all(fd, hello, sizeof(hello));
  }
  if (ok) {
    apply_pair_socket_options(fd, runtime_.config_);
    ok = set_nonblocking(fd);
  }
  if (!ok) {
    if (fd >= 0) ::close(fd);
    conn.reconnect_at =
        SteadyClock::now() +
        std::chrono::nanoseconds(runtime_.config_.reliable.rto_initial.ns);
    return;
  }
  if (conn.fd >= 0) retire_fd_from_epoll(conn.fd);
  conn.fd = fd;
  conn.read_open = conn.write_open = true;
  conn.want_write = false;
  conn.parser = FrameParser();
  conn.outq.clear();
  conn.front_offset = 0;
  epoll_add_conn(slot);
  runtime_.pair_fd_[2 * conn.pair].store(fd);
  runtime_.metrics_.on_reconnect();
  annotate(runtime_.config_.replay, kReplayAnnotationReconnect,
           ChannelId(conn.pair), conn.pair);
  resync_pair(conn.pair);
}

void TcpRuntime::Worker::accept_runtime_connection() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  // Same 4-byte pair-index hello as the startup dial.  The dialer writes
  // it immediately after connect, so this blocking read is momentary.
  std::uint8_t hello[4];
  std::size_t got = 0;
  while (got < sizeof(hello)) {
    const ssize_t n = ::read(fd, hello + got, sizeof(hello) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return;
    }
    got += static_cast<std::size_t>(n);
  }
  std::uint32_t pair = 0;
  std::memcpy(&pair, hello, sizeof(pair));
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    PairConn& conn = conns_[slot];
    if (conn.pair != pair || conn.side != 1) continue;
    if (conn.fd >= 0) retire_fd_from_epoll(conn.fd);
    apply_pair_socket_options(fd, runtime_.config_);
    if (!set_nonblocking(fd)) {
      ::close(fd);
      return;
    }
    conn.fd = fd;
    conn.read_open = conn.write_open = true;
    conn.want_write = false;
    conn.parser = FrameParser();
    conn.outq.clear();
    conn.front_offset = 0;
    epoll_add_conn(slot);
    runtime_.pair_fd_[2 * pair + 1].store(fd);
    // in_recv_ state survives on purpose: its delivered-prefix state is
    // exactly what suppresses the replayed frames the reconnecting peer
    // is about to resend.  Our own unacked sends replay too — the peer's
    // receiver suppresses what it already saw.
    resync_pair(pair);
    return;
  }
  DDBG_ERROR() << "tcp: reconnect hello for unknown pair " << pair;
  ::close(fd);
}

void TcpRuntime::Worker::accept_control_connections() {
  // Level-triggered + nonblocking listener: drain the whole backlog now
  // so a burst of debugger clients costs one wakeup.
  while (true) {
    const int fd = ::accept(control_listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: backlog drained (or listener gone)
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // The accepted fd stays *blocking* (O_NONBLOCK does not inherit
    // through accept): the session server's per-client thread does
    // straightforward blocking I/O on it.
    runtime_.config_.on_control_accept(fd);
  }
}

void TcpRuntime::Worker::rel_fire_due() {
  const auto now = SteadyClock::now();
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    if (conns_[slot].reconnect_at <= now) rel_try_reconnect(slot);
  }
  while (!delayed_.empty() && delayed_.begin()->first <= now) {
    const DelayedWire wire = delayed_.begin()->second;
    delayed_.erase(delayed_.begin());
    // No second fault roll: the frame already paid its delay.
    if (wire.is_ack) {
      rel_write_ack_frame(wire.slot, wire.conn_slot);
    } else {
      rel_write_data(wire.slot, wire.seq);
    }
  }
  for (std::size_t slot = 0; slot < out_channels_.size(); ++slot) {
    rel_send_[slot].due(runtime_.now(), due_);
    for (const std::uint64_t seq : due_) {
      runtime_.metrics_.on_retransmit();
      rel_transmit(slot, seq);
    }
  }
}

SteadyClock::time_point TcpRuntime::Worker::rel_next_deadline() const {
  auto deadline = SteadyClock::time_point::max();
  for (const PairConn& conn : conns_) {
    if (conn.reconnect_at < deadline) deadline = conn.reconnect_at;
  }
  if (!delayed_.empty() && delayed_.begin()->first < deadline) {
    deadline = delayed_.begin()->first;
  }
  for (const auto& sender : rel_send_) {
    if (const auto next = sender.next_deadline()) {
      const auto when = runtime_.epoch_ + std::chrono::nanoseconds(next->ns);
      if (when < deadline) deadline = when;
    }
  }
  return deadline;
}

// ---------------------------------------------------------------------------
// TcpRuntime
// ---------------------------------------------------------------------------

TcpRuntime::TcpRuntime(Topology topology, std::vector<ProcessPtr> processes,
                       TcpRuntimeConfig config)
    : topology_(std::move(topology)),
      config_(config),
      metrics_("tcp", topology_.num_processes(), channel_meta(topology_)) {
  DDBG_ASSERT(processes.size() == topology_.num_processes(),
              "one Process per topology process required");
  // Enumerate host pairs: every unordered process pair with at least one
  // channel gets exactly one connection, shared by all its channels.
  channel_pair_.resize(topology_.num_channels());
  pairs_of_process_.resize(topology_.num_processes());
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
      pair_index;
  for (const ChannelSpec& spec : topology_.channels()) {
    const std::uint32_t a =
        std::min(spec.source.value(), spec.destination.value());
    const std::uint32_t b =
        std::max(spec.source.value(), spec.destination.value());
    const auto [it, inserted] = pair_index.try_emplace(
        std::make_pair(a, b), static_cast<std::uint32_t>(pairs_.size()));
    if (inserted) {
      pairs_.push_back(HostPair{a, b, 0});
      pairs_of_process_[a].push_back(it->second);
      if (b != a) pairs_of_process_[b].push_back(it->second);
    }
    ++pairs_[it->second].num_channels;
    channel_pair_[spec.id.value()] = it->second;
  }
  for (const HostPair& pair : pairs_) {
    metrics_.observe_mux_channels(pair.num_channels);
  }
  pair_fd_ = std::vector<std::atomic<int>>(2 * pairs_.size());
  for (auto& fd : pair_fd_) fd.store(-1, std::memory_order_relaxed);

  Rng root(config_.seed);
  workers_.reserve(processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>(
        *this, ProcessId(static_cast<std::uint32_t>(i)),
        std::move(processes[i]), root.fork()));
  }
  epoch_ = SteadyClock::now();
}

TcpRuntime::~TcpRuntime() {
  shutdown();
  for (auto& slot : pair_fd_) {
    const int fd = slot.exchange(-1);
    if (fd >= 0) ::close(fd);
  }
}

std::uint16_t TcpRuntime::control_port() const {
  for (const auto& worker : workers_) {
    if (worker->control_port() != 0) return worker->control_port();
  }
  return 0;
}

std::size_t TcpRuntime::max_channels_per_socket() const {
  std::size_t widest = 0;
  for (const HostPair& pair : pairs_) {
    widest = std::max<std::size_t>(widest, pair.num_channels);
  }
  return widest;
}

bool TcpRuntime::start() {
  DDBG_ASSERT(!started_.exchange(true), "TcpRuntime::start called twice");
  for (auto& worker : workers_) {
    if (!worker->init_sockets()) return false;
  }
  if (config_.on_control_accept) {
    // The control listener lives on the debugger's worker so accepted
    // sessions share a reactor with the process they drive.
    const std::uint32_t host =
        topology_.has_debugger() ? topology_.debugger_id().value() : 0;
    if (!workers_[host]->init_control_listener()) return false;
  }
  // Connect every pair: side a dials side b's listener and sends the
  // pair-index hello.  Backlogs hold the pending connections until the
  // acceptors drain them below.
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(workers_[pairs_[p].b]->port());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
    const auto pair_index = static_cast<std::uint32_t>(p);
    std::uint8_t hello[4];
    std::memcpy(hello, &pair_index, sizeof(pair_index));
    if (!write_all(fd, hello, sizeof(hello))) {
      ::close(fd);
      return false;
    }
    apply_pair_socket_options(fd, config_);
    if (!set_nonblocking(fd)) {
      ::close(fd);
      return false;
    }
    pair_fd_[2 * p].store(fd);
  }
  for (auto& worker : workers_) {
    if (!worker->accept_inbound()) return false;
  }
  epoch_ = SteadyClock::now();
  for (auto& worker : workers_) worker->start();
  return true;
}

void TcpRuntime::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) worker->request_stop();
  // Unblock the reactors: half-close every pair socket so parked writes
  // fail instead of waiting for a reader that is itself shutting down.
  // ::shutdown (unlike ::close) is safe while another thread uses the fd,
  // and pending inbox data is dropped by contract.
  for (const auto& slot : pair_fd_) {
    const int fd = slot.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& worker : workers_) worker->stop_and_join();
}

void TcpRuntime::post(ProcessId target,
                      std::function<void(ProcessContext&, Process&)> action) {
  DDBG_ASSERT(target.value() < workers_.size(), "unknown process");
  workers_[target.value()]->push_closure(std::move(action));
}

bool TcpRuntime::wait_until(const std::function<bool()>& condition,
                            Duration timeout) {
  const auto deadline =
      SteadyClock::now() + std::chrono::nanoseconds(timeout.ns);
  while (!condition()) {
    if (SteadyClock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  return true;
}

Process& TcpRuntime::process(ProcessId id) {
  DDBG_ASSERT(id.value() < workers_.size(), "unknown process");
  return workers_[id.value()]->process();
}

TimePoint TcpRuntime::now() const {
  const auto elapsed = SteadyClock::now() - epoch_;
  return TimePoint{
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()};
}

void TcpRuntime::do_send(ProcessId sender, ChannelId channel,
                         Message message) {
  const ChannelSpec& spec = topology_.channel(channel);
  DDBG_ASSERT(spec.source == sender,
              "process may only send on its own outgoing channels");
  if (message.message_id == 0) {
    message.message_id = next_message_id_.fetch_add(1);
  }
  if (config_.faults) {
    // Reliability path: stage in the sending worker's retransmit window
    // and transmit under the fault plan.  The pair is legitimately down
    // mid-reconnect; the window replays once the new connection is up.
    workers_[sender.value()]->rel_send_message(channel, message);
    return;
  }
  // do_send runs on the sender's own worker thread, so the frame encodes
  // into that worker's pooled buffer and queues on the pair connection: a
  // handler emitting several messages pays one gathered write, and
  // steady-state sends allocate nothing.
  workers_[sender.value()]->stage_send(channel, message);
}

void TcpRuntime::half_close_channel(ChannelId channel) {
  DDBG_ASSERT(channel.value() < channel_pair_.size(), "unknown channel");
  const ChannelSpec& spec = topology_.channel(channel);
  const std::uint32_t pair = channel_pair_[channel.value()];
  const std::uint32_t side = spec.source.value() == pairs_[pair].a ? 0 : 1;
  const int fd = pair_fd_[2 * pair + side].load();
  if (fd >= 0) ::shutdown(fd, SHUT_WR);
}

std::uint64_t TcpRuntime::poll_iterations() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->poll_iterations();
  return total;
}

}  // namespace ddbg
