#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "util/annotations.h"
#include "runtime/parallel_engine.h"
#include "telemetry/histogram.h"
#include "telemetry/snapshot.h"

namespace slick::net {

/// TCP front door for the parallel runtime (DESIGN.md §14): an epoll-based
/// ingest server speaking the framed binary batch protocol of net/frame.h.
/// Each event-loop thread owns the connections it accepted (the listener is
/// shared via EPOLLEXCLUSIVE, so the kernel load-balances accepts) and
/// drives one TrySink obtained from the factory at loop startup — with an
/// MpmcRing-backed engine, each loop wraps its own engine Producer handle,
/// so N loops feed shard rings concurrently with no router hop.
///
/// Backpressure (the same two policies as the engine's admission, applied
/// at the connection edge when the sink accepts only part of a batch):
///  - kBlock: the remainder parks in a per-connection pending buffer and
///    the connection's fd stops being read (TCP flow control pushes back on
///    the client) until the sink drains it. Lossless.
///  - kDropNewest: the unaccepted remainder is shed and counted immediately.
///
/// Protocol errors (bad magic/version, oversize, CRC mismatch, malformed
/// batch) are unrecoverable per connection — the stream has no resync
/// markers — so the connection is counted and closed; the server and every
/// other connection keep serving. Closed connections are retained for
/// post-mortem snapshots (their counters stay in snapshot()).
class IngestServer {
 public:
  /// Non-blocking admission attempt: hand up to `n` decoded tuples
  /// downstream, returning how many were accepted (0..n, in order). Must
  /// not park — blocking semantics are the server's job (pending buffers +
  /// fd flow control), so a sink that blocks stalls its whole event loop.
  using TrySink = std::function<std::size_t(const WireTuple*, std::size_t)>;

  /// Called once per event loop, from that loop's own thread, before it
  /// serves — so the sink it returns (e.g. an engine Producer handle
  /// captured by the closure) is thread-local to that loop by construction.
  using SinkFactory = std::function<TrySink(std::size_t loop_index)>;

  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;        ///< 0 = ephemeral; port() returns the binding.
    std::size_t threads = 1;  ///< Event-loop threads (clamped to >= 1).
    runtime::Backpressure backpressure = runtime::Backpressure::kBlock;
    /// Idle-connection timeout: a connection that has delivered no bytes
    /// for this long is closed and counted in snapshot().idle_closes
    /// (0 = disabled, the default). Granularity is the event-loop wake
    /// cadence (~20ms), so treat it as a floor, not a deadline. A
    /// sink-blocked connection is exempt — its silence is the server's
    /// own backpressure (the fd is paused), not a dead client.
    uint64_t idle_ns = 0;
    /// Largest DECLARED frame payload accepted before the connection is
    /// closed as malformed (memory-safety bound per connection).
    std::size_t max_frame_bytes = std::size_t{1} << 20;
  };

  IngestServer(Options options, SinkFactory factory);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds, listens and spawns the event loops. False on socket failure
  /// (address in use, no permission); the server is then inert.
  bool Start();

  /// Stops accepting, makes one best-effort drain pass over pending
  /// buffers, closes every connection and joins the loops. Lossless
  /// shutdown is the CALLER's protocol: quiesce clients first and wait
  /// until snapshot().tuples_accepted reaches the expected count —
  /// anything still pending at Stop() is counted as dropped. Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start() returns true).
  uint16_t port() const { return port_; }

  /// Live telemetry cut: per-connection and total frame/tuple counters
  /// plus the merged ingest-latency histogram (frame decode start to sink
  /// handoff, ns). Safe from any thread while the server runs; attach to a
  /// runtime snapshot via `rs.ingest = server.snapshot(); rs.has_ingest =
  /// true;` for the JSON export.
  telemetry::IngestSnapshot snapshot() const;

 private:
  /// Per-connection state, owned by exactly one event loop. The loop
  /// thread is the only writer of every field; snapshot() reads only the
  /// atomic counters, with relaxed loads.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::vector<WireTuple> scratch;   ///< last decoded batch
    std::vector<WireTuple> pending;   ///< sink-blocked remainder
    std::size_t pending_off = 0;      ///< delivered prefix of `pending`
    bool paused = false;              ///< EPOLLIN removed while blocked
    bool eof = false;                 ///< peer closed / read error seen
    uint64_t last_bytes_ns = 0;       ///< when the peer last delivered bytes
    // Telemetry counters: single-writer (the owning loop thread), read
    // concurrently by snapshot() with relaxed loads. Deliberately dense —
    // per-connection cache-line padding would cost 5 lines per socket for
    // counters only the owning thread ever writes (no write-write
    // sharing to avoid). slick-lint: allow(atomic-alignas)
    std::atomic<bool> open{true};
    // slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> frames{0};
    // slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> frame_errors{0};
    // slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> tuples_accepted{0};
    // slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> tuples_dropped{0};
  };

  struct Loop {
    int epoll_fd = -1;
    std::thread thread;
    TrySink sink;
    /// Guards the STRUCTURE of `conns` (push_back in accept vs. iteration
    /// in snapshot); the counters inside are atomics and need no lock.
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Connection>> conns;
    std::size_t blocked = 0;        ///< connections with a pending buffer
    uint64_t last_idle_scan_ns = 0;  ///< throttles CloseIdleConnections
  };

  void RunLoop(std::size_t index);
  void AcceptReady(Loop& loop);
  void ReadAndPump(Loop& loop, Connection& c);
  void Pump(Loop& loop, Connection& c);
  void HandleBatch(Loop& loop, Connection& c);
  SLICK_NODISCARD bool TryDrainPending(Loop& loop, Connection& c);
  void RetryBlocked(Loop& loop);
  void CloseIdleConnections(Loop& loop);
  void PauseReading(Loop& loop, Connection& c);
  void ResumeReading(Loop& loop, Connection& c);
  void CloseConnection(Loop& loop, Connection& c, bool on_error);

  const Options options_;
  SinkFactory factory_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<Loop>> loops_;
  /// Set by Stop(), polled by every loop between epoll waits.
  alignas(64) std::atomic<bool> stop_{false};
  /// Accept-order connection ids; doubles as connections_opened.
  alignas(64) std::atomic<uint64_t> next_conn_id_{0};
  alignas(64) std::atomic<uint64_t> closed_on_error_{0};
  alignas(64) std::atomic<uint64_t> idle_closes_{0};
  telemetry::LatencyHistogram ingest_latency_;
};

}  // namespace slick::net
