// TcpRuntime: the distributed deployment substrate.
//
// One OS thread per process.  Unlike Runtime's in-memory inboxes, traffic
// crosses real TCP connections over loopback — but connections are
// multiplexed: all channels between an unordered process pair share one
// socket, and every frame carries the 4-byte channel id it belongs to
// right after the length prefix.  A tree(N,k) tier topology therefore
// costs O(adjacent pairs) fds, not O(channels).
//
// Each worker runs a level-triggered epoll reactor: fds are registered
// once and interest sets are mutated on state change (EPOLLOUT is armed
// only while a pair's output is blocked on a full socket buffer, and a
// dead fd is deleted from the set, never re-polled).  Each pair connection
// has one output buffer: frames are encoded in place at its end, and the
// unwritten span goes out in a single nonblocking send per flush; EAGAIN
// and partial writes park it on EPOLLOUT instead of spinning or blocking
// the worker.
//
// TCP still gives exactly the paper's channel model per channel: reliable,
// FIFO, unbounded (one stream carries each pair's channels in order, so
// per-channel FIFO is preserved).  Process implementations, debug shims
// and the debugger process run on this runtime unchanged; tests drive a
// full halting wave across sockets.  Single-host by construction
// (loopback), but nothing in the protocol assumes it — the address table
// is the only thing to change.  The thread, timer and context plumbing is
// the shared threaded core (runtime/worker_core.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "net/fault_plan.hpp"
#include "net/reliable.hpp"
#include "net/replay_hooks.hpp"
#include "runtime/worker_core.hpp"

namespace ddbg {

struct TcpRuntimeConfig {
  std::uint64_t seed = 1;
  // Fault adversary.  When set, every frame carries a reliability header
  // after its channel id (per-channel sequence numbers out, cumulative
  // acks back on the same pair socket), sends are held in a retransmit
  // window until acked, and a connection reset — injected or real —
  // triggers reconnect-with-resync: the pair's dialer side re-dials the
  // acceptor's listener and both sides replay every unacked frame, with
  // receivers suppressing what they already saw.  Null (default) keeps
  // the bare-TCP fast path untouched.
  std::shared_ptr<FaultPlan> faults;
  ReliableConfig reliable;
  // Socket-buffer overrides applied to every pair socket; 0 keeps the
  // kernel default.  Tests set a tiny SO_SNDBUF to force EAGAIN/partial
  // writes on the nonblocking send path deterministically.
  int sndbuf_bytes = 0;
  int rcvbuf_bytes = 0;
  // Record/replay sink (src/replay).  The reactor appends transport-level
  // annotations — fault draws, reconnects, resync replays — as diagnostic
  // provenance; the user-boundary inputs are recorded by the DebugShims.
  // Null (default) leaves every path untouched.
  std::shared_ptr<ReplaySink> replay;
};

class TcpRuntime final : public ThreadedRuntime {
 public:
  TcpRuntime(Topology topology, std::vector<ProcessPtr> processes,
             TcpRuntimeConfig config = {});
  ~TcpRuntime();

  // Bind/listen/connect one socket per host pair, then launch the process
  // threads.  Returns false (with everything torn down) if setup fails.
  bool start();
  void shutdown();

  static bool wait_until(const std::function<bool()>& condition,
                         Duration timeout) {
    return ThreadedRuntime::wait_until(condition, timeout,
                                       std::chrono::microseconds(300));
  }

  // Port of the debugger-session control listener; 0 when no control
  // acceptor is set or start() has not run.
  [[nodiscard]] std::uint16_t control_port() const;
  // Control-socket debugger sessions: with an acceptor, the debugger's
  // worker (or worker 0 without a debugger) binds a second loopback
  // listener and the reactor hands every accepted client fd to it.  The
  // acceptor must not block the reactor — SessionServer::adopt only
  // registers the fd and spawns a service thread.  Must be called before
  // start().
  void set_control_acceptor(std::function<void(int fd)> acceptor) {
    DDBG_ASSERT(!started_.load(), "set_control_acceptor after start");
    control_acceptor_ = std::move(acceptor);
  }

  // Multiplexing introspection: how many TCP connections carry how many
  // channels.  The soak bench asserts data_socket_count() << num_channels.
  [[nodiscard]] std::size_t data_socket_count() const { return pairs_.size(); }
  [[nodiscard]] std::size_t max_channels_per_socket() const;

  // Fault injection for tests: half-close the sending direction of
  // `channel`'s pair socket so its destination observes EOF mid-run.
  // Subsequent sends by that side (on any channel of the pair) fail and
  // are counted like any dead-peer write.
  void half_close_channel(ChannelId channel);
  // Total reactor loop iterations across all workers — a diagnostic for
  // busy-spin regressions (a dead fd left registered would make this grow
  // without bound while the runtime idles).  Not part of the metrics JSON.
  [[nodiscard]] std::uint64_t poll_iterations() const;

 private:
  class Worker;

  // An unordered process pair with at least one channel; exactly one TCP
  // connection realizes it.  Side 0 is a's end (a <= b; a dials at startup
  // and re-dials after a loss), side 1 is b's end (accepted).
  struct HostPair {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t num_channels = 0;
  };

  [[nodiscard]] Worker& worker(std::uint32_t p);

  TcpRuntimeConfig config_;
  std::function<void(int fd)> control_acceptor_;  // see set_control_acceptor
  std::vector<HostPair> pairs_;
  std::vector<std::uint32_t> channel_pair_;  // ChannelId -> pair index
  std::vector<std::vector<std::uint32_t>> pairs_of_process_;
  // fd of each end of each pair connection, indexed 2 * pair + side.
  // Atomic because with reliability enabled the owning worker replaces the
  // fd on reconnect while shutdown()/half_close_channel() read it from
  // another thread.
  std::vector<std::atomic<int>> pair_fd_;
};

}  // namespace ddbg
