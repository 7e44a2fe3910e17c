#include "runtime/tcp_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/serialization.hpp"
#include "net/framing.hpp"
#include "net/reliable.hpp"
#include "net/transport_hooks.hpp"

namespace ddbg {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Every frame body starts with the 4-byte channel id it belongs to — the
// demultiplexing key on a shared pair socket.
constexpr std::size_t kChannelPrefixSize = 4;

constexpr int kMaxEpollEvents = 64;

// epoll user-data tags for the non-pair fds; pair connections use their
// slot index directly.
constexpr std::uint64_t kTagWake = ~std::uint64_t{0};
constexpr std::uint64_t kTagListen = ~std::uint64_t{0} - 1;
// Debugger-session control listener (TcpRuntime::set_control_acceptor).
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

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// A loopback listener on an ephemeral port, written to `port`; -1 on
// failure.
int listen_loopback(int backlog, std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = loopback_addr(0);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

// Hand a connected pair socket to the reactor: socket options, then
// nonblocking.  Returns the fd, or closes it and returns -1.
int ready_pair_socket(int fd, const TcpRuntimeConfig& config) {
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
  if (set_nonblocking(fd)) return fd;
  ::close(fd);
  return -1;
}

// Dial the acceptor's listener on `port` and send the 4-byte pair-index
// hello; returns the ready fd, or -1.
int dial_pair(std::uint16_t port, std::uint32_t pair,
              const TcpRuntimeConfig& config) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const sockaddr_in addr = loopback_addr(port);
  std::uint8_t hello[4];
  std::memcpy(hello, &pair, sizeof(pair));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 ||
      !write_all(fd, hello, sizeof(hello))) {
    ::close(fd);
    return -1;
  }
  return ready_pair_socket(fd, config);
}

// Read the pair-index hello from a freshly accepted (blocking) fd.  The
// dialer writes it right after connect, so the read is momentary.
std::optional<std::uint32_t> read_hello(int fd) {
  std::uint8_t hello[4];
  std::size_t got = 0;
  while (got < sizeof(hello)) {
    const ssize_t n = ::read(fd, hello + got, sizeof(hello) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    got += static_cast<std::size_t>(n);
  }
  std::uint32_t pair = 0;
  std::memcpy(&pair, hello, sizeof(pair));
  return pair;
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

class TcpRuntime::Worker final : public WorkerCore {
 public:
  Worker(TcpRuntime& runtime, ProcessId id, ProcessPtr process, Rng rng);
  ~Worker() override;

  bool init_sockets();           // create listener + wake pipe
  [[nodiscard]] std::uint16_t port() const { return port_; }
  // Bind the debugger-session control listener on this worker (runs in
  // start(), before any thread launches).
  bool init_control_listener();
  [[nodiscard]] std::uint16_t control_port() const { return control_port_; }
  // Accept the startup connection for every pair this worker is the
  // acceptor side of.
  bool accept_inbound();

  void push_closure(Closure action) override;

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
    bool want_write = false;      // EPOLLOUT armed (send hit EAGAIN)
    std::uint32_t epoll_mask = 0;  // currently registered interest
    FrameParser parser;
    // Frames encoded in place, back to back; out[written..] is not yet on
    // the socket.
    Bytes out;
    std::size_t written = 0;
    // One entry per frame not yet fully written: where it ends in `out`
    // and its channel (write batches count the frames a send completes;
    // send-blocked time goes to the oldest unwritten frame's channel).
    struct Unwritten {
      std::size_t end;
      ChannelId channel;
    };
    std::deque<Unwritten> unwritten;
    SteadyClock::time_point blocked_since{};
    ChannelId blocked_channel{};
    // Dialer-side redial backoff; max() = no redial scheduled.
    SteadyClock::time_point reconnect_at = SteadyClock::time_point::max();

    void clear_output() {
      out.clear();
      written = 0;
      unwritten.clear();
    }
  };

  void run() override;
  void wake() override;
  // Account the message's wire bytes and frame it onto the channel's pair
  // connection, through the link when there is one.  Runs on this
  // worker's own thread only (the sender's), like all sends.
  void transmit(ChannelId channel, Message message) override;
  void setup_conns();
  void setup_epoll();
  void update_epoll_interest(std::size_t slot);
  void epoll_add_conn(std::size_t slot);
  void handle_readable(std::size_t slot, std::uint32_t events);
  void parse_pair_frames(std::size_t slot);
  void fire_due();
  [[nodiscard]] int next_timeout_ms();

  // ---- send path ----
  // Encode one frame (channel id, optional reliability header, optional
  // message) at the end of the channel's pair output buffer.
  void append_frame(ChannelId channel, const RelHeader* header,
                    const Message* body);
  void flush_sends();
  void try_flush(std::size_t slot);
  void fail_write_side(std::size_t slot);

  // ---- connection lifecycle ----
  // Tear the pair endpoint down (epoll DEL, quarantine the fd, flush
  // state).  With faults, the dialer side schedules a redial and the
  // acceptor side waits for the peer's dial.
  void conn_down(std::size_t slot, bool count_loss);
  void retire_fd_from_epoll(int fd);
  // Install a freshly dialed or accepted fd in a pair endpoint and resync
  // every channel this worker sends across the pair.
  void conn_up(std::size_t slot, int fd);
  void try_reconnect(std::size_t slot);
  void accept_runtime_connection();
  void accept_control_connections();

  // ---- ReliableLink::Port: frames carry a RelHeader on the pair socket ----
  void transmit_data(std::size_t slot, ChannelId channel, std::uint64_t seq,
                     const ReliableSender::Staged& staged,
                     std::uint64_t attempt, Duration extra,
                     bool copy) override;
  void transmit_ack(std::size_t slot, ChannelId channel,
                    std::uint64_t cum_ack, std::uint64_t attempt,
                    Duration extra) override;
  void lose_connection(std::size_t slot, ChannelId channel,
                       TimePoint resync_at) override;
  // Append one reliable frame on `channel`: data frame `seq` of out-slot
  // `slot` while it is still unacked, or (`ack`) the cumulative ack `seq`.
  void write_rel_frame(std::size_t slot, ChannelId channel, bool ack,
                       std::uint64_t seq);

  TcpRuntime& runtime_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int control_listen_fd_ = -1;
  std::uint16_t control_port_ = 0;
  int pipe_read_ = -1;
  int pipe_write_ = -1;
  int epoll_fd_ = -1;

  // Indexed by slot (epoll events carry it).
  std::deque<PairConn> conns_;
  // pair index -> the conn slot this worker sends on (side 0 for a
  // self-pair, the worker's only side otherwise).
  std::unordered_map<std::uint32_t, std::uint32_t> send_slot_of_pair_;

  std::size_t frames_this_wakeup_ = 0;
  // Scratch: in-slots that received data in the current parse batch (one
  // cumulative ack each).
  std::vector<std::uint32_t> ack_pending_;
  // Replaced connection fds are shut down but closed only at destruction,
  // so a racing shutdown() snapshot of pair_fd_ can never hit a reused
  // descriptor number.
  std::vector<int> retired_fds_;

  std::deque<Closure> closures_;  // guarded by mutex_
  std::atomic<std::uint64_t> poll_iterations_{0};
};

TcpRuntime::Worker::Worker(TcpRuntime& runtime, ProcessId id,
                           ProcessPtr process, Rng rng)
    : WorkerCore(runtime, id, std::move(process), rng,
                 runtime.config_.faults.get(), runtime.config_.reliable,
                 runtime.config_.replay.get()),
      runtime_(runtime) {}

TcpRuntime::Worker::~Worker() {
  request_stop();
  join();
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
  // start() dials every pair before any worker accepts, so the backlog
  // must hold this worker's whole acceptor-side fan-in.
  listen_fd_ = listen_loopback(1024, port_);
  return listen_fd_ >= 0;
}

bool TcpRuntime::Worker::init_control_listener() {
  control_listen_fd_ = listen_loopback(64, control_port_);
  // Nonblocking so the reactor's accept loop can drain until EAGAIN.
  return control_listen_fd_ >= 0 && set_nonblocking(control_listen_fd_);
}

bool TcpRuntime::Worker::accept_inbound() {
  std::size_t expected = 0;
  for (const std::uint32_t p : runtime_.pairs_of_process_[id_.value()]) {
    if (runtime_.pairs_[p].b == id_.value()) ++expected;
  }
  for (std::size_t i = 0; i < expected; ++i) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return false;
    const std::optional<std::uint32_t> pair = read_hello(fd);
    if (!pair || *pair >= runtime_.pairs_.size() ||
        runtime_.pairs_[*pair].b != id_.value()) {
      ::close(fd);
      return false;
    }
    const int ready = ready_pair_socket(fd, runtime_.config_);
    if (ready < 0) return false;
    runtime_.pair_fd_[2 * *pair + 1].store(ready);
  }
  return true;
}

void TcpRuntime::Worker::wake() {
  if (pipe_write_ >= 0) {
    const std::uint8_t byte = 1;
    (void)!::write(pipe_write_, &byte, 1);
  }
}

void TcpRuntime::Worker::push_closure(Closure action) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    closures_.push_back(std::move(action));
  }
  wake();
}

// The single wakeup-deadline computation: pending closures, the nearest
// user timer and — with faults — every reliability deadline (retransmit
// checks and delayed frames in the core's deferred queue, redial backoffs
// here) all clamp the same epoll_wait timeout.  A long reconnect backoff can
// therefore never oversleep a user timer or vice versa; whichever deadline
// is nearest bounds the sleep.
int TcpRuntime::Worker::next_timeout_ms() {
  auto deadline = SteadyClock::time_point::max();
  {
    std::lock_guard<std::mutex> guard{mutex_};
    if (!closures_.empty()) return 0;
    deadline = next_wakeup();
  }
  for (const PairConn& conn : conns_) {
    deadline = std::min(deadline, conn.reconnect_at);
  }
  if (deadline == SteadyClock::time_point::max()) return -1;
  const auto now = SteadyClock::now();
  if (deadline <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  return static_cast<int>(std::min<long long>(ms + 1, 1000));
}

void TcpRuntime::Worker::fire_due() {
  const auto now = SteadyClock::now();
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    if (conns_[slot].reconnect_at <= now) try_reconnect(slot);
  }
  std::unique_lock<std::mutex> lock{mutex_};
  while (run_one_due(lock)) {
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
  conn.clear_output();
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
    RelHeader header;
    if (link_) {
      auto decoded = RelHeader::decode(reader);
      if (!decoded.ok()) {
        DDBG_ERROR() << "tcp: bad reliable frame on channel " << channel_id
                     << ": " << decoded.error().to_string();
        continue;
      }
      header = decoded.value();
      if (header.tag == RelHeader::kAck) {
        if (const auto out = runtime_.topology_.find_out_slot(id_, channel)) {
          link_->on_ack(*out, header.cum_ack);
        }
        continue;
      }
    }
    const auto in_slot = runtime_.topology_.find_in_slot(id_, channel);
    if (!in_slot) {
      DDBG_ERROR() << "tcp: frame for foreign channel " << channel_id
                   << " on pair " << conn.pair;
      continue;
    }
    const auto wire = static_cast<std::uint32_t>(reader.remaining());
    auto message = Message::decode(reader);
    if (!message.ok()) {
      DDBG_ERROR() << "tcp: bad frame on " << to_string(channel) << ": "
                   << message.error().to_string();
      continue;
    }
    runtime_.metrics_.observe_backlog(channel_id, parser.buffered_bytes());
    if (!link_) {
      deliver_message(channel, std::move(message).value(), wire);
      continue;
    }
    link_->receive(*this, *in_slot, header.seq, std::move(message).value(),
                   wire);
    if (std::find(ack_pending_.begin(), ack_pending_.end(), *in_slot) ==
        ack_pending_.end()) {
      ack_pending_.push_back(*in_slot);
    }
  }
  // One cumulative ack per channel per drained batch — it carries the
  // furthest in-order point whether the batch delivered, buffered or
  // suppressed.
  for (const std::uint32_t in_slot : ack_pending_) {
    link_->acknowledge(*this, in_slot);
  }
  ack_pending_.clear();
  end_delivery_batch();
}

void TcpRuntime::Worker::run() {
  setup_conns();
  setup_epoll();
  process_->on_start(*this);
  flush_sends();

  epoll_event events[kMaxEpollEvents];
  std::deque<Closure> batch;
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
      if (events[i].events & EPOLLOUT) try_flush(slot);
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
    for (auto& closure : batch) closure(*this, *process_);
    batch.clear();

    fire_due();

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

void TcpRuntime::Worker::transmit(ChannelId channel, Message message) {
  // Bytes are accounted once per logical send on both paths.  With a link
  // the frame is re-encoded per transmission attempt, and the size rides
  // with the staged message so retransmissions never re-measure.
  const std::size_t wire = message.encoded_size();
  runtime_.metrics_.on_send(channel.value(), traffic_class(message.kind),
                            static_cast<std::uint32_t>(wire));
  if (link_) {
    link_->send(*this, runtime_.topology_.out_slot(channel),
                std::move(message), wire, now());
    return;
  }
  // Encoded straight into the pair's output buffer: a handler emitting
  // several messages pays one send, and encoding does not allocate once
  // the buffer has grown.
  append_frame(channel, nullptr, &message);
}

void TcpRuntime::Worker::append_frame(ChannelId channel,
                                      const RelHeader* header,
                                      const Message* body) {
  const std::uint32_t pair = runtime_.channel_pair_[channel.value()];
  const auto it = send_slot_of_pair_.find(pair);
  DDBG_ASSERT(it != send_slot_of_pair_.end(),
              "send on a pair this worker does not own");
  PairConn& conn = conns_[it->second];
  if (!conn.write_open) {
    // Bare mode: the loss was counted when the write side died; with
    // faults the retransmit window replays once the pair reconnects.
    return;
  }
  const std::size_t header_at = begin_frame(conn.out);
  ByteWriter writer(conn.out);
  writer.u32(channel.value());
  if (header != nullptr) header->encode(writer);
  if (body != nullptr) body->encode(writer);
  end_frame(conn.out, header_at);
  conn.unwritten.push_back(PairConn::Unwritten{conn.out.size(), channel});
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
    // Bare-TCP mode has no retransmit window: the unwritten frames are
    // lost with the connection.  Count the event so tests and operators
    // see the drop instead of relying on a log line.
    runtime_.metrics_.on_channel_down();
    DDBG_ERROR() << "tcp: write failed on pair " << conn.pair;
  }
  conn.write_open = false;
  conn.want_write = false;
  conn.clear_output();
  if (!conn.read_open) {
    conn_down(slot, /*count_loss=*/false);
    return;
  }
  update_epoll_interest(slot);
}

void TcpRuntime::Worker::try_flush(std::size_t slot) {
  PairConn& conn = conns_[slot];
  if (conn.fd < 0 || !conn.write_open || conn.written == conn.out.size()) {
    return;
  }
  // The send-blocked clock brackets the syscall; on a nonblocking fd it is
  // ~0, and the real wedge time (EPOLLOUT armed -> buffer drained) is
  // added below when the backpressure clears.
  const ChannelId front_channel = conn.unwritten.front().channel;
  const auto write_start = SteadyClock::now();
  ssize_t n = 0;
  do {
    n = ::send(conn.fd, conn.out.data() + conn.written,
               conn.out.size() - conn.written, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  runtime_.metrics_.add_send_blocked(
      front_channel.value(),
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - write_start)
          .count());
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
    fail_write_side(slot);
    return;
  }
  if (n > 0) {
    conn.written += static_cast<std::size_t>(n);
    std::size_t completed = 0;
    while (!conn.unwritten.empty() &&
           conn.unwritten.front().end <= conn.written) {
      conn.unwritten.pop_front();
      ++completed;
    }
    if (completed > 0) runtime_.metrics_.on_write_batch(completed);
  }
  if (conn.written == conn.out.size()) {
    conn.clear_output();  // keeps the capacity for the next batch
    if (conn.want_write) {
      conn.want_write = false;
      runtime_.metrics_.add_send_blocked(
          conn.blocked_channel.value(),
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              SteadyClock::now() - conn.blocked_since)
              .count());
      update_epoll_interest(slot);
    }
    return;
  }
  // EAGAIN or a partial write: the socket buffer is full.  Park on
  // EPOLLOUT instead of spinning; the reactor resumes the flush when space
  // frees up.  Once the written prefix is at least half the buffer, drop
  // it so a long backlog does not keep sent bytes alive.
  runtime_.metrics_.on_eagain_deferral();
  if (2 * conn.written >= conn.out.size()) {
    const auto prefix = static_cast<std::ptrdiff_t>(conn.written);
    conn.out.erase(conn.out.begin(), conn.out.begin() + prefix);
    for (PairConn::Unwritten& frame : conn.unwritten) {
      frame.end -= conn.written;
    }
    conn.written = 0;
  }
  if (!conn.want_write) {
    conn.want_write = true;
    conn.blocked_since = SteadyClock::now();
    conn.blocked_channel = conn.unwritten.front().channel;
    update_epoll_interest(slot);
  }
}

void TcpRuntime::Worker::flush_sends() {
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    const PairConn& conn = conns_[slot];
    if (conn.written < conn.out.size() && !conn.want_write) try_flush(slot);
  }
}

// ---------------------------------------------------------------------------
// Worker: reliability layer
// ---------------------------------------------------------------------------

void TcpRuntime::Worker::transmit_data(std::size_t slot, ChannelId channel,
                                       std::uint64_t seq,
                                       const ReliableSender::Staged&,
                                       std::uint64_t /*attempt*/,
                                       Duration extra, bool /*copy*/) {
  if (extra.ns <= 0) {
    write_rel_frame(slot, channel, false, seq);
    return;
  }
  // Held back, then written unless acked meanwhile; later frames on the
  // channel overtake this one on the wire, and the receiver's sequencer
  // puts the order back.
  defer(SteadyClock::now() + std::chrono::nanoseconds(extra.ns),
        [this, slot, channel, seq] {
          write_rel_frame(slot, channel, false, seq);
        });
}

void TcpRuntime::Worker::transmit_ack(std::size_t slot, ChannelId channel,
                                      std::uint64_t cum_ack,
                                      std::uint64_t /*attempt*/,
                                      Duration extra) {
  if (extra.ns <= 0) {
    write_rel_frame(slot, channel, true, cum_ack);
    return;
  }
  defer(SteadyClock::now() + std::chrono::nanoseconds(extra.ns),
        [this, slot, channel, cum_ack] {
          write_rel_frame(slot, channel, true, cum_ack);
        });
}

void TcpRuntime::Worker::lose_connection(std::size_t /*slot*/,
                                         ChannelId channel,
                                         TimePoint /*resync_at*/) {
  // Quarantine the pair socket; the dialer side redials after a backoff
  // and conn_up resyncs both ends (the link already counted the loss).
  const std::uint32_t pair = runtime_.channel_pair_[channel.value()];
  conn_down(send_slot_of_pair_.at(pair), /*count_loss=*/false);
}

void TcpRuntime::Worker::write_rel_frame(std::size_t slot, ChannelId channel,
                                         bool ack, std::uint64_t seq) {
  RelHeader header;
  const Message* body = nullptr;
  if (ack) {
    header.tag = RelHeader::kAck;
    header.cum_ack = seq;
  } else {
    const ReliableSender::Staged* staged = link_->peek(slot, seq);
    if (staged == nullptr) return;  // acked before a delayed copy fired
    header.seq = seq;
    body = &staged->message;
  }
  // Acks ride this worker's end of the pair (full duplex); if that
  // connection is being replaced, the resync re-acks.
  append_frame(channel, &header, body);
}

void TcpRuntime::Worker::conn_up(std::size_t slot, int fd) {
  PairConn& conn = conns_[slot];
  if (conn.fd >= 0) retire_fd_from_epoll(conn.fd);
  conn.fd = fd;
  conn.read_open = conn.write_open = true;
  conn.want_write = false;
  conn.parser = FrameParser();
  conn.clear_output();
  epoll_add_conn(slot);
  runtime_.pair_fd_[2 * conn.pair + conn.side].store(fd);
  // Every unacked frame on this worker's channels across the pair replays
  // on the fresh connection.  The link's receivers survive on purpose:
  // their delivered prefix is what suppresses the peer's replayed frames.
  const auto out_channels = runtime_.topology_.out_channels(id_);
  for (std::size_t out = 0; out < out_channels.size(); ++out) {
    if (runtime_.channel_pair_[out_channels[out].value()] == conn.pair) {
      link_->resync(*this, out, now());
    }
  }
}

void TcpRuntime::Worker::try_reconnect(std::size_t slot) {
  PairConn& conn = conns_[slot];
  conn.reconnect_at = SteadyClock::time_point::max();
  if (stopping_.load(std::memory_order_relaxed) ||
      runtime_.stopped_.load(std::memory_order_relaxed)) {
    return;
  }
  const int fd =
      dial_pair(runtime_.worker(runtime_.pairs_[conn.pair].b).port(),
                conn.pair, runtime_.config_);
  if (fd < 0) {
    conn.reconnect_at =
        SteadyClock::now() +
        std::chrono::nanoseconds(runtime_.config_.reliable.rto_initial.ns);
    return;
  }
  conn_up(slot, fd);
}

void TcpRuntime::Worker::accept_runtime_connection() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  // Same pair-index hello as the startup dial.
  const std::optional<std::uint32_t> pair = read_hello(fd);
  if (!pair) {
    ::close(fd);
    return;
  }
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    const PairConn& conn = conns_[slot];
    if (conn.pair != *pair || conn.side != 1) continue;
    const int ready = ready_pair_socket(fd, runtime_.config_);
    if (ready >= 0) conn_up(slot, ready);
    return;
  }
  DDBG_ERROR() << "tcp: reconnect hello for unknown pair " << *pair;
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
    runtime_.control_acceptor_(fd);
  }
}

// ---------------------------------------------------------------------------
// TcpRuntime
// ---------------------------------------------------------------------------

TcpRuntime::TcpRuntime(Topology topology, std::vector<ProcessPtr> processes,
                       TcpRuntimeConfig config)
    : ThreadedRuntime(std::move(topology), "tcp"), config_(std::move(config)) {
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

  spawn_workers<Worker>(*this, std::move(processes), config_.seed);
}

TcpRuntime::~TcpRuntime() {
  shutdown();
  for (auto& slot : pair_fd_) {
    const int fd = slot.exchange(-1);
    if (fd >= 0) ::close(fd);
  }
}

TcpRuntime::Worker& TcpRuntime::worker(std::uint32_t p) {
  return static_cast<Worker&>(*workers_[p]);
}

std::uint16_t TcpRuntime::control_port() const {
  for (const auto& worker : workers_) {
    const auto port = static_cast<const Worker&>(*worker).control_port();
    if (port != 0) return port;
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
  for (std::uint32_t p = 0; p < workers_.size(); ++p) {
    if (!worker(p).init_sockets()) return false;
  }
  if (control_acceptor_) {
    // The control listener lives on the debugger's worker so accepted
    // sessions share a reactor with the process they drive.
    const std::uint32_t host =
        topology_.has_debugger() ? topology_.debugger_id().value() : 0;
    if (!worker(host).init_control_listener()) return false;
  }
  // Connect every pair: side a dials side b's listener and sends the
  // pair-index hello.  Backlogs hold the pending connections until the
  // acceptors drain them below.
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    const int fd = dial_pair(worker(pairs_[p].b).port(),
                             static_cast<std::uint32_t>(p), config_);
    if (fd < 0) return false;
    pair_fd_[2 * p].store(fd);
  }
  for (std::uint32_t p = 0; p < workers_.size(); ++p) {
    if (!worker(p).accept_inbound()) return false;
  }
  start_workers();
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
  for (auto& worker : workers_) worker->join();
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
  for (const auto& worker : workers_) {
    total += static_cast<const Worker&>(*worker).poll_iterations();
  }
  return total;
}

}  // namespace ddbg
