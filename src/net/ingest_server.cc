#include "net/ingest_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.h"
#include "util/clock.h"

namespace slick::net {
namespace {

/// epoll user data: the listener is tagged with nullptr, a connection with
/// its Connection pointer.
constexpr int kMaxEvents = 64;

/// Idle epoll timeout: bounds Stop() latency and the retry cadence for
/// pending buffers on an otherwise-quiet loop.
constexpr int kIdleTimeoutMs = 20;

/// Busy timeout while any connection has a sink-blocked pending buffer:
/// retries admission at ~1kHz instead of parking the loop.
constexpr int kBlockedTimeoutMs = 1;

}  // namespace

IngestServer::IngestServer(Options options, SinkFactory factory)
    : options_(std::move(options)), factory_(std::move(factory)) {
  SLICK_CHECK(factory_ != nullptr, "IngestServer needs a sink factory");
}

IngestServer::~IngestServer() { Stop(); }

bool IngestServer::Start() {
  SLICK_CHECK(!started_, "IngestServer::Start called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(bound.sin_port);

  const std::size_t threads = options_.threads < 1 ? 1 : options_.threads;
  loops_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(0);
    SLICK_CHECK(loop->epoll_fd >= 0, "epoll_create1 failed");
    epoll_event ev{};
    // EPOLLEXCLUSIVE: all loops watch the one listener; the kernel wakes
    // one per incoming connection, which is the accept load balancer.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.ptr = nullptr;
    SLICK_CHECK(::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) ==
                    0,
                "epoll_ctl(listener) failed");
    loops_.push_back(std::move(loop));
  }
  started_ = true;
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { RunLoop(i); });
  }
  return true;
}

void IngestServer::Stop() {
  if (!started_) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // release/acquire pairs with the loops' poll of stop_: everything this
  // thread did before Stop() is visible to the loops' final drain pass.
  stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
}

void IngestServer::RunLoop(std::size_t index) {
  Loop& loop = *loops_[index];
  loop.sink = factory_(index);
  SLICK_CHECK(loop.sink != nullptr, "sink factory returned a null sink");
  epoll_event events[kMaxEvents];
  // acquire: pairs with Stop()'s release store (see Stop()).
  while (!stop_.load(std::memory_order_acquire)) {
    const int timeout_ms =
        loop.blocked > 0 ? kBlockedTimeoutMs : kIdleTimeoutMs;
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        AcceptReady(loop);
      } else {
        ReadAndPump(loop, *static_cast<Connection*>(events[i].data.ptr));
      }
    }
    if (loop.blocked > 0) RetryBlocked(loop);
    if (options_.idle_ns > 0) CloseIdleConnections(loop);
  }
  // Best-effort final drain: one admission pass per blocked connection,
  // then close everything. Anything still pending is counted as dropped —
  // lossless shutdown is the caller's quiesce protocol (see header).
  for (auto& c : loop.conns) {
    if (c->fd < 0) continue;
    // Deliberate discard: a partial drain leaves the remainder in
    // `pending`, and CloseConnection below tallies it as dropped.
    if (!c->pending.empty()) (void)TryDrainPending(loop, *c);
    // CloseConnection tallies whatever is still pending as dropped.
    CloseConnection(loop, *c, /*on_error=*/false);
  }
  ::close(loop.epoll_fd);
  loop.epoll_fd = -1;
}

void IngestServer::AcceptReady(Loop& loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN (another loop won the wake) or transient
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_bytes_ns = util::MonotonicNanos();
    // relaxed: pure id allocation — uniqueness comes from the atomic RMW,
    // no other memory is published through it.
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(loop.mu);
      loop.conns.push_back(std::move(conn));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = raw;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseConnection(loop, *raw, /*on_error=*/false);
    }
  }
}

void IngestServer::ReadAndPump(Loop& loop, Connection& c) {
  if (c.fd < 0 || c.paused) return;
  char buf[65536];
  for (;;) {
    const ssize_t r = ::read(c.fd, buf, sizeof(buf));
    if (r > 0) {
      // Decode after every read, not once the socket is drained: the
      // decoder then never holds more than one partial frame plus one
      // read's worth of bytes (see FrameDecoder::Feed).
      c.decoder.Feed(buf, static_cast<std::size_t>(r));
      c.last_bytes_ns = util::MonotonicNanos();
      Pump(loop, c);
      if (c.fd < 0 || c.paused) return;
      // A short read drained the socket: skip the read that would fail
      // with EAGAIN. The registration is level-triggered, so bytes (or an
      // EOF) arriving later are reported by the next epoll_wait.
      if (static_cast<std::size_t>(r) < sizeof(buf)) return;
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.eof = true;  // peer closed (r == 0) or hard socket error
    Pump(loop, c);
    return;
  }
}

void IngestServer::Pump(Loop& loop, Connection& c) {
  if (c.fd < 0) return;
  if (!c.pending.empty() && !TryDrainPending(loop, c)) {
    PauseReading(loop, c);
    return;
  }
  for (;;) {
    const uint64_t t0 = util::MonotonicNanos();
    const FrameDecoder::Status st = c.decoder.Next(&c.scratch);
    if (st == FrameDecoder::Status::kNeedMore) break;
    if (st == FrameDecoder::Status::kError) {
      // relaxed: single-writer telemetry tally (see Connection).
      c.frame_errors.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(loop, c, /*on_error=*/true);
      return;
    }
    // relaxed: single-writer telemetry tally (see Connection).
    c.frames.fetch_add(1, std::memory_order_relaxed);
    HandleBatch(loop, c);
    ingest_latency_.Record(util::MonotonicNanos() - t0);
    if (!c.pending.empty()) {
      PauseReading(loop, c);
      return;
    }
  }
  ResumeReading(loop, c);
  if (c.eof && c.decoder.buffered() == 0) {
    CloseConnection(loop, c, /*on_error=*/false);
  } else if (c.eof) {
    // Bytes left that can never complete a frame (the peer is gone):
    // classify as a truncated stream, mirroring the serde reader.
    // relaxed: single-writer telemetry tally (see Connection).
    c.frame_errors.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(loop, c, /*on_error=*/true);
  }
}

void IngestServer::HandleBatch(Loop& loop, Connection& c) {
  const std::size_t n = c.scratch.size();
  if (n == 0) return;  // an empty batch is a valid keep-alive
  const std::size_t accepted = loop.sink(c.scratch.data(), n);
  // relaxed: single-writer telemetry tallies (see Connection).
  c.tuples_accepted.fetch_add(accepted, std::memory_order_relaxed);
  if (accepted == n) return;
  if (options_.backpressure == runtime::Backpressure::kBlock) {
    c.pending.assign(c.scratch.begin() + static_cast<std::ptrdiff_t>(accepted),
                     c.scratch.end());
    c.pending_off = 0;
  } else {
    c.tuples_dropped.fetch_add(n - accepted, std::memory_order_relaxed);
  }
}

bool IngestServer::TryDrainPending(Loop& loop, Connection& c) {
  const std::size_t left = c.pending.size() - c.pending_off;
  const std::size_t got = loop.sink(c.pending.data() + c.pending_off, left);
  // relaxed: single-writer telemetry tally (see Connection).
  c.tuples_accepted.fetch_add(got, std::memory_order_relaxed);
  c.pending_off += got;
  if (c.pending_off == c.pending.size()) {
    c.pending.clear();
    c.pending_off = 0;
    return true;
  }
  return false;
}

void IngestServer::RetryBlocked(Loop& loop) {
  for (auto& c : loop.conns) {
    if (c->fd < 0 || c->pending.empty()) continue;
    if (TryDrainPending(loop, *c)) {
      // Drained: resume the fd and pump whatever frames were already
      // buffered behind the blockage.
      Pump(loop, *c);
    }
  }
}

void IngestServer::CloseIdleConnections(Loop& loop) {
  const uint64_t now = util::MonotonicNanos();
  // Throttle the O(connections) sweep to a quarter of the timeout — the
  // close latency bound stays idle_ns + idle_ns/4 while busy loops (woken
  // per event, far faster than the epoll timeout) skip the scan.
  if (now - loop.last_idle_scan_ns < options_.idle_ns / 4) return;
  loop.last_idle_scan_ns = now;
  for (auto& c : loop.conns) {
    if (c->fd < 0 || c->eof) continue;
    // A sink-blocked connection is paused by OUR backpressure — its
    // silence proves nothing about the client.
    if (c->paused || !c->pending.empty()) continue;
    if (now - c->last_bytes_ns < options_.idle_ns) continue;
    CloseConnection(loop, *c, /*on_error=*/false);
    // relaxed: telemetry tally; see Connection.
    idle_closes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IngestServer::PauseReading(Loop& loop, Connection& c) {
  if (c.paused || c.fd < 0) return;
  epoll_event ev{};
  ev.events = 0;  // level-triggered: unread bytes would spin the loop
  ev.data.ptr = &c;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  c.paused = true;
  ++loop.blocked;
}

void IngestServer::ResumeReading(Loop& loop, Connection& c) {
  if (!c.paused || c.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &c;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  c.paused = false;
  --loop.blocked;
  // The pause was our backpressure, not client silence: restart the idle
  // clock so the client gets a full window to speak again.
  c.last_bytes_ns = util::MonotonicNanos();
}

void IngestServer::CloseConnection(Loop& loop, Connection& c, bool on_error) {
  if (c.fd < 0) return;
  if (c.paused) --loop.blocked;
  c.paused = false;
  ::close(c.fd);  // the kernel drops the epoll registration with the fd
  c.fd = -1;
  // Tally undelivered pending tuples before freeing the buffer — nothing
  // can admit them once the fd is gone.
  if (c.pending.size() > c.pending_off) {
    // relaxed: telemetry tally; see Connection.
    c.tuples_dropped.fetch_add(c.pending.size() - c.pending_off,
                               std::memory_order_relaxed);
  }
  // The retained post-mortem entry only needs the atomic counters; drop
  // the heavy buffers, or connection churn pins up to ~max_frame_bytes of
  // capacity per closed socket (decoder buffer + scratch + pending) for
  // the life of the server.
  c.decoder = FrameDecoder(options_.max_frame_bytes);
  c.scratch = {};
  c.pending = {};
  c.pending_off = 0;
  // relaxed: lifecycle flag for snapshots; no data is published through it.
  c.open.store(false, std::memory_order_relaxed);
  if (on_error) {
    // relaxed: telemetry tally; see Connection.
    closed_on_error_.fetch_add(1, std::memory_order_relaxed);
  }
}

telemetry::IngestSnapshot IngestServer::snapshot() const {
  telemetry::IngestSnapshot s;
  // relaxed: telemetry reads — a racing accept/close lands in this
  // snapshot or the next, which any live scraper tolerates.
  s.connections_opened = next_conn_id_.load(std::memory_order_relaxed);
  s.connections_closed_on_error =
      closed_on_error_.load(std::memory_order_relaxed);
  s.idle_closes = idle_closes_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->mu);
    for (const auto& c : loop->conns) {
      telemetry::ConnectionSnapshot cs;
      cs.id = c->id;
      // relaxed: telemetry reads, as above.
      cs.open = c->open.load(std::memory_order_relaxed);
      cs.frames = c->frames.load(std::memory_order_relaxed);
      cs.frame_errors = c->frame_errors.load(std::memory_order_relaxed);
      cs.tuples_accepted = c->tuples_accepted.load(std::memory_order_relaxed);
      cs.tuples_dropped = c->tuples_dropped.load(std::memory_order_relaxed);
      s.frames += cs.frames;
      s.frame_errors += cs.frame_errors;
      s.tuples_accepted += cs.tuples_accepted;
      s.tuples_dropped += cs.tuples_dropped;
      if (cs.open) ++s.connections_open;
      s.connections.push_back(cs);
    }
  }
  s.ingest_latency_ns = ingest_latency_.TakeSnapshot();
  return s;
}

}  // namespace slick::net
