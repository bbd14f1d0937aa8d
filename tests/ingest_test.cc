// Integration tests for the TCP front door (src/net/, DESIGN.md §14):
// multi-client round trips over loopback with per-client order checked
// against the sender's sequence, the full engine differential (clients →
// IngestServer → Producer handles → MPMC shard rings → shard answers vs
// a serial oracle), the connection-fatal handling of every adversarial
// frame shape (bad magic, CRC corruption, truncation at EOF, oversize
// declared payloads, byte-at-a-time splits), both per-connection
// backpressure policies (lossless kBlock, counted kDropNewest), and the
// telemetry JSON export.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "net/frame.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "ops/arith.h"
#include "runtime/mpmc_ring.h"
#include "runtime/parallel_engine.h"
#include "telemetry/json.h"
#include "util/rng.h"

namespace slick {
namespace {

using net::FrameDecoder;
using net::IngestClient;
using net::IngestServer;
using net::WireTuple;

constexpr char kHost[] = "127.0.0.1";

/// Polls `cond` at 1ms until it holds or `timeout` passes. The server's
/// counters are monotonic, so polling them is race-free by construction.
bool WaitFor(const std::function<bool()>& cond,
             std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---------------------------------------------------------------------
// Round trip: several clients, several event loops, order and counts.
// ---------------------------------------------------------------------
TEST(IngestServerTest, MultiClientRoundTripKeepsPerClientOrder) {
  constexpr int kClients = 3;
  constexpr uint64_t kPerClient = 4000;
  constexpr int64_t kTag = 1'000'000;

  // One capture vector per event loop; each is written only by its owning
  // loop thread, and read by the test only after Stop() joins the loops.
  std::vector<std::vector<WireTuple>> sunk(2);
  IngestServer server(
      {.port = 0, .threads = 2},
      [&sunk](std::size_t loop) -> IngestServer::TrySink {
        return [&v = sunk[loop]](const WireTuple* t, std::size_t n) {
          v.insert(v.end(), t, t + n);
          return n;
        };
      });
  ASSERT_TRUE(server.Start());

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port = server.port()] {
      IngestClient client;
      ASSERT_TRUE(client.Connect(kHost, port));
      util::SplitMix64 rng(static_cast<uint64_t>(c) + 5);
      std::vector<WireTuple> batch;
      uint64_t seq = 0;
      while (seq < kPerClient) {
        batch.clear();
        const uint64_t n = rng.NextBounded(50) + 1;
        for (uint64_t i = 0; i < n && seq < kPerClient; ++i, ++seq) {
          batch.push_back({seq, static_cast<double>(c * kTag +
                                                    static_cast<int64_t>(seq))});
        }
        ASSERT_TRUE(client.SendBatch(batch.data(), batch.size()));
      }
      client.CloseSend();
    });
  }
  for (auto& t : clients) t.join();

  ASSERT_TRUE(WaitFor([&server] {
    return server.snapshot().tuples_accepted == kClients * kPerClient;
  }));
  const telemetry::IngestSnapshot before = server.snapshot();
  EXPECT_EQ(before.connections_opened, static_cast<uint64_t>(kClients));
  EXPECT_EQ(before.tuples_dropped, 0u);
  EXPECT_EQ(before.frame_errors, 0u);
  EXPECT_GE(before.frames, static_cast<uint64_t>(kClients));  // >=1 each
  EXPECT_GT(before.ingest_latency_ns.total(), 0u);
  server.Stop();

  // Each client's tuples ride one connection, which lives on one loop, and
  // the loop sinks frames in order: within that loop's capture, the
  // client's subsequence must be exactly 0,1,2,...
  std::vector<uint64_t> next(kClients, 0);
  uint64_t total = 0;
  for (const auto& v : sunk) {
    for (const WireTuple& t : v) {
      const auto tagged = static_cast<int64_t>(t.v);
      const int64_t c = tagged / kTag;
      ASSERT_GE(c, 0);
      ASSERT_LT(c, kClients);
      ASSERT_EQ(static_cast<uint64_t>(tagged % kTag),
                next[static_cast<std::size_t>(c)]);
      ASSERT_EQ(t.ts, next[static_cast<std::size_t>(c)]);
      ++next[static_cast<std::size_t>(c)];
      ++total;
    }
  }
  EXPECT_EQ(total, kClients * kPerClient);
}

// ---------------------------------------------------------------------
// Full-stack differential: TCP clients → event loops → engine Producer
// handles → MPMC shard rings → shard answers vs a serial oracle.
// ---------------------------------------------------------------------
TEST(IngestServerTest, EngineDifferentialOverTcp) {
  using Engine = runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>,
                                                runtime::MpmcRing>;
  constexpr int kClients = 3;
  constexpr std::size_t kPerClient = 3000;
  constexpr std::size_t kShards = 2;
  // How many tuples each shard gets depends on which event loop serves
  // which client, so every shard window holds the whole stream. The shard
  // aggregators are identity-prefilled, so the sum of their answers is
  // the exact total of everything sent.
  constexpr std::size_t kWindow = kShards * kClients * kPerClient;

  // batch = 1: every push flushes straight to its shard ring, so no tuple
  // is ever parked in Producer staging when the test stops the engine.
  Engine eng(kWindow, kShards, {.ring_capacity = 1 << 12, .batch = 1});
  IngestServer server(
      {.port = 0, .threads = 2},
      [&eng](std::size_t) -> IngestServer::TrySink {
        // One Producer handle per event loop, owned by the sink closure —
        // the wiring the class comment prescribes for MPMC engines.
        auto prod = std::make_shared<Engine::Producer>(eng.MakeProducer());
        return [prod](const WireTuple* t, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            prod->push(static_cast<int64_t>(t[i].v));
          }
          return n;
        };
      });
  ASSERT_TRUE(server.Start());

  std::vector<std::vector<WireTuple>> sent(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &sent, port = server.port()] {
      util::SplitMix64 rng(static_cast<uint64_t>(c) * 31 + 3);
      std::vector<WireTuple>& mine = sent[static_cast<std::size_t>(c)];
      mine.reserve(kPerClient);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        mine.push_back({i + 1, static_cast<double>(rng.NextBounded(1000))});
      }
      IngestClient client;
      ASSERT_TRUE(client.Connect(kHost, port));
      std::size_t off = 0;
      while (off < mine.size()) {
        const std::size_t n = std::min<std::size_t>(rng.NextBounded(64) + 1,
                                                    mine.size() - off);
        ASSERT_TRUE(client.SendBatch(mine.data() + off, n));
        off += n;
      }
      client.CloseSend();
    });
  }
  for (auto& t : clients) t.join();

  // The caller-side quiesce protocol from IngestServer::Stop's contract:
  // wait until everything sent has been admitted, then stop.
  ASSERT_TRUE(WaitFor([&server] {
    return server.snapshot().tuples_accepted == kClients * kPerClient;
  }));
  server.Stop();

  eng.stop();
  int64_t got = 0;
  for (std::size_t i = 0; i < kShards; ++i) got += eng.shard(i).query();
  int64_t expected = 0;
  for (const auto& mine : sent) {
    for (const WireTuple& t : mine) expected += static_cast<int64_t>(t.v);
  }
  EXPECT_EQ(got, expected);
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(stats.dropped, 0u);
}

// ---------------------------------------------------------------------
// Adversarial frames: every malformed shape closes ONLY the offending
// connection, with a typed count, while other connections keep serving.
// ---------------------------------------------------------------------

/// Spins up a single-loop capture server for the adversarial cases.
class AdversarialIngest {
 public:
  explicit AdversarialIngest(IngestServer::Options opt = {.port = 0,
                                                          .threads = 1})
      : server_(std::move(opt), [this](std::size_t) -> IngestServer::TrySink {
          return [this](const WireTuple* t, std::size_t n) {
            sunk_.insert(sunk_.end(), t, t + n);
            return n;
          };
        }) {
    started_ = server_.Start();
  }

  bool started() const { return started_; }
  IngestServer& server() { return server_; }
  /// Read only after Stop() (single loop thread writes it).
  const std::vector<WireTuple>& sunk() const { return sunk_; }

 private:
  std::vector<WireTuple> sunk_;
  IngestServer server_;
  bool started_ = false;
};

TEST(IngestServerTest, BadMagicClosesOnlyTheOffendingConnection) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());

  IngestClient bad;
  ASSERT_TRUE(bad.Connect(kHost, rig.server().port()));
  // Wrong protocol entirely; longer than a frame header so the decoder
  // actually inspects the magic rather than waiting for more bytes.
  const char garbage[] = "GET /stream HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(bad.SendRaw(garbage, sizeof(garbage) - 1));

  ASSERT_TRUE(WaitFor([&rig] {
    return rig.server().snapshot().connections_closed_on_error == 1;
  }));

  // A well-behaved connection opened after the close still serves.
  IngestClient good;
  ASSERT_TRUE(good.Connect(kHost, rig.server().port()));
  const WireTuple t{42, 1.5};
  ASSERT_TRUE(good.SendBatch(&t, 1));
  ASSERT_TRUE(WaitFor(
      [&rig] { return rig.server().snapshot().tuples_accepted == 1; }));

  const telemetry::IngestSnapshot snap = rig.server().snapshot();
  EXPECT_EQ(snap.frame_errors, 1u);
  EXPECT_EQ(snap.connections_opened, 2u);
  EXPECT_EQ(snap.connections_open, 1u);
  // The closed connection is retained for post-mortem inspection.
  bool found_closed = false;
  for (const auto& c : snap.connections) {
    if (!c.open) {
      found_closed = true;
      EXPECT_EQ(c.frame_errors, 1u);
      EXPECT_EQ(c.tuples_accepted, 0u);
    }
  }
  EXPECT_TRUE(found_closed);
  rig.server().Stop();
}

TEST(IngestServerTest, CrcCorruptionDeliversNothingAndCloses) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());

  // A valid frame with one payload byte flipped: the header still parses,
  // the CRC check must reject the batch before any tuple surfaces.
  std::vector<WireTuple> batch(8);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = {i, static_cast<double>(i)};
  }
  std::string frame;
  net::EncodeBatch(batch.data(), batch.size(), &frame);
  frame[net::kFrameHeaderBytes + net::kBatchHeaderBytes + 3] ^= 0x40;

  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()));

  ASSERT_TRUE(WaitFor([&rig] {
    return rig.server().snapshot().connections_closed_on_error == 1;
  }));
  const telemetry::IngestSnapshot snap = rig.server().snapshot();
  EXPECT_EQ(snap.tuples_accepted, 0u);
  EXPECT_EQ(snap.frames, 0u);
  EXPECT_EQ(snap.frame_errors, 1u);
  rig.server().Stop();
  EXPECT_TRUE(rig.sunk().empty());  // no partial tuple ever reached the sink
}

TEST(IngestServerTest, TruncatedFrameAtEofCountsAsError) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());

  const WireTuple t{7, 3.25};
  std::string frame;
  net::EncodeBatch(&t, 1, &frame);

  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  // Half a frame, then EOF: bytes that can never complete a frame must be
  // classified as a truncated stream, not silently discarded.
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size() / 2));
  client.CloseSend();

  ASSERT_TRUE(WaitFor([&rig] {
    return rig.server().snapshot().connections_closed_on_error == 1;
  }));
  const telemetry::IngestSnapshot snap = rig.server().snapshot();
  EXPECT_EQ(snap.frame_errors, 1u);
  EXPECT_EQ(snap.tuples_accepted, 0u);
  rig.server().Stop();
}

TEST(IngestServerTest, OversizeDeclaredPayloadIsRejectedUpFront) {
  // Tight frame-size bound: a hostile length field must close the
  // connection at header-parse time, never allocate the declared size.
  AdversarialIngest rig({.port = 0, .threads = 1, .max_frame_bytes = 1024});
  ASSERT_TRUE(rig.started());

  std::string header;
  const uint32_t magic = util::kFrameMagic;
  const uint32_t version = util::kFrameVersion;
  const uint64_t absurd = uint64_t{1} << 40;  // a terabyte, declared
  const uint32_t crc = 0;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.append(reinterpret_cast<const char*>(&version), 4);
  header.append(reinterpret_cast<const char*>(&absurd), 8);
  header.append(reinterpret_cast<const char*>(&crc), 4);

  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  ASSERT_TRUE(client.SendRaw(header.data(), header.size()));

  ASSERT_TRUE(WaitFor([&rig] {
    return rig.server().snapshot().connections_closed_on_error == 1;
  }));
  EXPECT_EQ(rig.server().snapshot().tuples_accepted, 0u);
  rig.server().Stop();
}

TEST(IngestServerTest, FramesSplitAcrossManyWritesReassemble) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());

  std::vector<WireTuple> batch(5);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = {i + 1, static_cast<double>(10 * i)};
  }
  std::string frames;
  net::EncodeBatch(batch.data(), 3, &frames);       // frame 1: 3 tuples
  net::EncodeBatch(batch.data() + 3, 2, &frames);   // frame 2: 2 tuples

  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  // Byte-at-a-time: every possible split point across both frames.
  for (char byte : frames) {
    ASSERT_TRUE(client.SendRaw(&byte, 1));
  }
  ASSERT_TRUE(WaitFor(
      [&rig] { return rig.server().snapshot().tuples_accepted == 5; }));
  const telemetry::IngestSnapshot snap = rig.server().snapshot();
  EXPECT_EQ(snap.frames, 2u);
  EXPECT_EQ(snap.frame_errors, 0u);
  rig.server().Stop();
  ASSERT_EQ(rig.sunk().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.sunk()[i].ts, i + 1);
    EXPECT_EQ(rig.sunk()[i].v, static_cast<double>(10 * i));
  }
}

TEST(IngestServerTest, BurstLargerThanOneReadFullyDecodes) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());

  // 48 frames of 128 tuples (~100 KiB) in one write: more than one 64 KiB
  // read, so the loop must keep reading after a full buffer and decode the
  // tail from the same readiness report.
  constexpr std::size_t kFrames = 48;
  constexpr std::size_t kPerFrame = 128;
  std::vector<WireTuple> batch(kPerFrame);
  std::string burst;
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < kPerFrame; ++i) {
      const std::size_t seq = f * kPerFrame + i;
      batch[i] = {seq, static_cast<double>(seq)};
    }
    net::EncodeBatch(batch.data(), kPerFrame, &burst);
  }
  ASSERT_GT(burst.size(), std::size_t{64} << 10);

  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  ASSERT_TRUE(client.SendRaw(burst.data(), burst.size()));
  ASSERT_TRUE(WaitFor([&rig] {
    return rig.server().snapshot().tuples_accepted == kFrames * kPerFrame;
  }));
  const telemetry::IngestSnapshot snap = rig.server().snapshot();
  EXPECT_EQ(snap.frames, kFrames);
  EXPECT_EQ(snap.frame_errors, 0u);
  rig.server().Stop();
  ASSERT_EQ(rig.sunk().size(), kFrames * kPerFrame);
  for (std::size_t i = 0; i < rig.sunk().size(); ++i) {
    ASSERT_EQ(rig.sunk()[i].ts, i);
  }
}

TEST(IngestServerTest, EofAfterShortReadClosesCleanly) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());

  // One small frame, then EOF: the frame arrives in a short read, after
  // which the loop returns to epoll_wait; the EOF must still be reported
  // and close the connection without an error.
  const WireTuple t[2] = {{1, 2.5}, {2, 4.5}};
  std::string frame;
  net::EncodeBatch(t, 2, &frame);
  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()));
  client.CloseSend();

  ASSERT_TRUE(WaitFor([&rig] {
    const telemetry::IngestSnapshot s = rig.server().snapshot();
    return s.connections_opened == 1 && s.connections_open == 0;
  }));
  const telemetry::IngestSnapshot snap = rig.server().snapshot();
  EXPECT_EQ(snap.tuples_accepted, 2u);
  EXPECT_EQ(snap.frames, 1u);
  EXPECT_EQ(snap.frame_errors, 0u);
  EXPECT_EQ(snap.connections_closed_on_error, 0u);
  rig.server().Stop();
  ASSERT_EQ(rig.sunk().size(), 2u);
  EXPECT_EQ(rig.sunk()[1].v, 4.5);
}

// ---------------------------------------------------------------------
// Backpressure policies at the connection edge.
// ---------------------------------------------------------------------

TEST(IngestServerTest, BlockPolicyIsLosslessAgainstASlowSink) {
  constexpr uint64_t kTuples = 2000;
  // The sink accepts at most 3 tuples per call and refuses entirely on
  // three of four calls — the pending-buffer/pause/retry machinery must
  // deliver everything anyway, in order, dropping nothing.
  std::vector<WireTuple> sunk;
  uint64_t tick = 0;
  IngestServer server(
      {.port = 0, .threads = 1,
       .backpressure = runtime::Backpressure::kBlock},
      [&sunk, &tick](std::size_t) -> IngestServer::TrySink {
        return [&sunk, &tick](const WireTuple* t, std::size_t n) {
          if (++tick % 4 != 0) return std::size_t{0};
          const std::size_t take = std::min<std::size_t>(n, 3);
          sunk.insert(sunk.end(), t, t + take);
          return take;
        };
      });
  ASSERT_TRUE(server.Start());

  std::thread client_thread([port = server.port()] {
    IngestClient client;
    ASSERT_TRUE(client.Connect(kHost, port));
    std::vector<WireTuple> batch;
    for (uint64_t seq = 0; seq < kTuples;) {
      batch.clear();
      for (uint64_t i = 0; i < 64 && seq < kTuples; ++i, ++seq) {
        batch.push_back({seq, static_cast<double>(seq)});
      }
      ASSERT_TRUE(client.SendBatch(batch.data(), batch.size()));
    }
    client.CloseSend();
  });
  client_thread.join();

  ASSERT_TRUE(WaitFor([&server] {
    return server.snapshot().tuples_accepted == kTuples;
  }));
  EXPECT_EQ(server.snapshot().tuples_dropped, 0u);
  server.Stop();
  ASSERT_EQ(sunk.size(), kTuples);
  for (uint64_t i = 0; i < kTuples; ++i) EXPECT_EQ(sunk[i].ts, i);
}

TEST(IngestServerTest, DropNewestShedsTheRefusedRemainder) {
  // The sink takes the first 10 tuples ever, then refuses: under
  // kDropNewest every refused tuple is shed and counted immediately.
  uint64_t taken = 0;
  IngestServer server(
      {.port = 0, .threads = 1,
       .backpressure = runtime::Backpressure::kDropNewest},
      [&taken](std::size_t) -> IngestServer::TrySink {
        return [&taken](const WireTuple*, std::size_t n) {
          const std::size_t take = taken < 10 ? std::min<std::size_t>(
                                                    n, 10 - taken)
                                              : 0;
          taken += take;
          return take;
        };
      });
  ASSERT_TRUE(server.Start());

  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, server.port()));
  std::vector<WireTuple> batch(25);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = {i, static_cast<double>(i)};
  }
  ASSERT_TRUE(client.SendBatch(batch.data(), batch.size()));

  ASSERT_TRUE(WaitFor([&server] {
    const telemetry::IngestSnapshot s = server.snapshot();
    return s.tuples_accepted + s.tuples_dropped == 25;
  }));
  const telemetry::IngestSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.tuples_accepted, 10u);
  EXPECT_EQ(snap.tuples_dropped, 15u);
  EXPECT_EQ(snap.connections_closed_on_error, 0u);  // shedding is not an error
  server.Stop();
}

// ---------------------------------------------------------------------
// Idle-connection timeout (Options::idle_ns).
// ---------------------------------------------------------------------

// A client that sends one batch then goes silent (socket open, no bytes)
// must be closed by the idle sweep and counted in idle_closes; a second,
// chatty client on the same server must ride through untouched.
TEST(IngestServerTest, IdleTimeoutClosesSilentConnectionOnly) {
  std::vector<WireTuple> sunk;
  IngestServer server(
      {.port = 0, .threads = 1, .idle_ns = 40'000'000},  // 40ms
      [&sunk](std::size_t) -> IngestServer::TrySink {
        return [&sunk](const WireTuple* t, std::size_t n) {
          sunk.insert(sunk.end(), t, t + n);
          return n;
        };
      });
  ASSERT_TRUE(server.Start());

  IngestClient silent;
  ASSERT_TRUE(silent.Connect(kHost, server.port()));
  const WireTuple first{1, 10.0};
  ASSERT_TRUE(silent.SendBatch(&first, 1));

  IngestClient chatty;
  ASSERT_TRUE(chatty.Connect(kHost, server.port()));
  // Keep the chatty side under the timeout while the silent side ages out.
  uint64_t seq = 2;
  ASSERT_TRUE(WaitFor([&] {
    const WireTuple beat{seq++, 1.0};
    EXPECT_TRUE(chatty.SendBatch(&beat, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return server.snapshot().idle_closes == 1;
  }));

  const telemetry::IngestSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.idle_closes, 1u);
  EXPECT_EQ(snap.connections_open, 1u);  // only the chatty one survives
  EXPECT_EQ(snap.connections_closed_on_error, 0u);
  EXPECT_EQ(snap.tuples_dropped, 0u);  // the idle close lost nothing

  // The silent client's data made it before the close, and the export
  // carries the new counter.
  telemetry::RuntimeSnapshot rs;
  rs.ingest = snap;
  rs.has_ingest = true;
  EXPECT_NE(ToJson(rs).find("\"idle_closes\":1"), std::string::npos);
  server.Stop();
  EXPECT_TRUE(std::any_of(sunk.begin(), sunk.end(),
                          [](const WireTuple& t) { return t.v == 10.0; }));

  // Default-off: nothing in this suite's other servers ever idle-closes,
  // but assert the documented default explicitly.
  EXPECT_EQ(IngestServer::Options{}.idle_ns, 0u);
}

// ---------------------------------------------------------------------
// Client connect/send retry (RetryOptions).
// ---------------------------------------------------------------------

// The late-binding race: a producer starts dialing before its server has
// bound. ConnectWithRetry must eat the ECONNREFUSED attempts and land on
// the listener once it appears; the send path then works normally.
TEST(IngestClientRetryTest, ConnectRetriesUntilListenerBinds) {
  // Reserve an ephemeral port, then free it for the late-bound server.
  uint16_t port = 0;
  {
    IngestServer probe({.port = 0}, [](std::size_t) {
      return [](const WireTuple*, std::size_t n) { return n; };
    });
    ASSERT_TRUE(probe.Start());
    port = probe.port();
    probe.Stop();
  }

  std::vector<WireTuple> sunk;
  IngestServer server({.port = port},
                      [&sunk](std::size_t) -> IngestServer::TrySink {
                        return [&sunk](const WireTuple* t, std::size_t n) {
                          sunk.insert(sunk.end(), t, t + n);
                          return n;
                        };
                      });

  IngestClient client;
  int attempts = 0;
  IngestClient::RetryResult result = IngestClient::RetryResult::kOk;
  std::thread dialer([&] {
    result = client.ConnectWithRetry(
        kHost, port,
        {.max_attempts = 200, .initial_backoff_ns = 1'000'000,
         .max_backoff_ns = 4'000'000},
        &attempts);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(server.Start());  // bind AFTER the dialer began failing
  dialer.join();

  ASSERT_EQ(result, IngestClient::RetryResult::kOk);
  EXPECT_GT(attempts, 1);  // at least one refused attempt before the bind
  const WireTuple t{7, 7.0};
  ASSERT_TRUE(client.SendBatch(&t, 1));
  client.CloseSend();
  ASSERT_TRUE(WaitFor(
      [&server] { return server.snapshot().tuples_accepted == 1; }));
  server.Stop();
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0].ts, 7u);
}

// No listener ever appears: the budget is spent, the typed error comes
// back, and the attempt count matches the budget exactly.
TEST(IngestClientRetryTest, ExhaustedBudgetReturnsTypedError) {
  uint16_t dead_port = 0;
  {
    IngestServer probe({.port = 0}, [](std::size_t) {
      return [](const WireTuple*, std::size_t n) { return n; };
    });
    ASSERT_TRUE(probe.Start());
    dead_port = probe.port();
    probe.Stop();  // nothing listens here anymore
  }
  IngestClient client;
  int attempts = 0;
  const auto r = client.ConnectWithRetry(
      kHost, dead_port,
      {.max_attempts = 3, .initial_backoff_ns = 100'000,
       .max_backoff_ns = 1'000'000},
      &attempts);
  EXPECT_EQ(r, IngestClient::RetryResult::kRetriesExhausted);
  EXPECT_EQ(attempts, 3);
  EXPECT_FALSE(client.connected());

  // SendBatchWithRetry composes the same budget around reconnects: against
  // the dead port it must also exhaust, never silently drop the batch.
  const WireTuple t{1, 1.0};
  int send_attempts = 0;
  const auto sr = client.SendBatchWithRetry(
      &t, 1, kHost, dead_port,
      {.max_attempts = 2, .initial_backoff_ns = 100'000,
       .max_backoff_ns = 1'000'000},
      &send_attempts);
  EXPECT_EQ(sr, IngestClient::RetryResult::kRetriesExhausted);
  EXPECT_EQ(send_attempts, 2);
}

// The routine silent-loss shape of the one-way protocol: a bursty client
// outlives the server's idle_ns reaper, and its next send lands on a
// socket the server already abandoned — send() succeeds into the kernel
// buffer, the batch vanishes. idle_reconnect_ns must close that window:
// once the inter-send gap exceeds it, SendBatchWithRetry reconnects
// BEFORE sending, so the batch arrives on a connection the server holds.
TEST(IngestClientRetryTest, IdleReconnectBeatsServerIdleClose) {
  std::vector<WireTuple> sunk;
  IngestServer server(
      {.port = 0, .threads = 1, .idle_ns = 40'000'000},  // 40ms
      [&sunk](std::size_t) -> IngestServer::TrySink {
        return [&sunk](const WireTuple* t, std::size_t n) {
          sunk.insert(sunk.end(), t, t + n);
          return n;
        };
      });
  ASSERT_TRUE(server.Start());

  IngestClient client;
  const WireTuple first{1, 1.0};
  int attempts = 0;
  ASSERT_EQ(client.SendBatchWithRetry(
                &first, 1, kHost, server.port(),
                {.max_attempts = 3, .idle_reconnect_ns = 20'000'000},
                &attempts),
            IngestClient::RetryResult::kOk);
  EXPECT_EQ(attempts, 1);

  // Go silent until the server's reaper closes our connection. The client
  // cannot observe the close (one-way protocol, no reads) — connected()
  // still claims the stale fd is fine.
  ASSERT_TRUE(
      WaitFor([&server] { return server.snapshot().idle_closes == 1; }));
  EXPECT_TRUE(client.connected());

  // The burst after the gap: more than idle_reconnect_ns has elapsed since
  // the last send, so the client presumes the socket dead and reconnects
  // first. Without the option this send would be the silent-loss race.
  const WireTuple second{2, 2.0};
  ASSERT_EQ(client.SendBatchWithRetry(
                &second, 1, kHost, server.port(),
                {.max_attempts = 3, .idle_reconnect_ns = 20'000'000},
                &attempts),
            IngestClient::RetryResult::kOk);
  EXPECT_EQ(attempts, 1);  // proactive reconnect is not a retry

  ASSERT_TRUE(WaitFor(
      [&server] { return server.snapshot().tuples_accepted == 2; }));
  const telemetry::IngestSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.connections_opened, 2u);  // fresh socket for the burst
  EXPECT_EQ(snap.connections_closed_on_error, 0u);
  server.Stop();
  ASSERT_EQ(sunk.size(), 2u);
  EXPECT_EQ(sunk[0].ts, 1u);
  EXPECT_EQ(sunk[1].ts, 2u);

  // Default-off: the aging guard never fires unless asked for.
  EXPECT_EQ(IngestClient::RetryOptions{}.idle_reconnect_ns, 0u);
}

// ---------------------------------------------------------------------
// Telemetry export.
// ---------------------------------------------------------------------
TEST(IngestServerTest, SnapshotAttachesToRuntimeJson) {
  AdversarialIngest rig;
  ASSERT_TRUE(rig.started());
  IngestClient client;
  ASSERT_TRUE(client.Connect(kHost, rig.server().port()));
  const WireTuple t{1, 2.0};
  ASSERT_TRUE(client.SendBatch(&t, 1));
  ASSERT_TRUE(WaitFor(
      [&rig] { return rig.server().snapshot().tuples_accepted == 1; }));

  telemetry::RuntimeSnapshot rs;
  rs.ingest = rig.server().snapshot();
  rs.has_ingest = true;
  const std::string json = ToJson(rs);
  EXPECT_NE(json.find("\"ingest\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tuples_accepted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"connections\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"ingest_latency_ns\":"), std::string::npos) << json;

  // Without the front door attached, the runtime JSON omits the section.
  telemetry::RuntimeSnapshot bare;
  EXPECT_EQ(ToJson(bare).find("\"ingest\":"), std::string::npos);
  rig.server().Stop();
}

}  // namespace
}  // namespace slick
