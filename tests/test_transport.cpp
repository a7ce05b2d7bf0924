// Tests for the transport seam (dist/transport.hpp): frame codec
// round-trips and fuzzed corruption over every kind, payload-reader
// truncation, SimTransport == ReliableChannel identity, the reply rule
// (FrameConn::await_reply), and a conformance suite run against both
// SimTransport and a loopback SocketTransport.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/fault.hpp"
#include "dist/link.hpp"
#include "dist/message.hpp"
#include "dist/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ddnn::dist {
namespace {

Message sample_message(MessageKind kind, std::size_t n) {
  Message msg;
  msg.kind = kind;
  msg.payload.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg.payload[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xFF);
  }
  return msg;
}

// ------------------------------------------------------------ frame codec

TEST(FrameCodec, RoundTripEveryKind) {
  for (const FrameKind kind :
       {FrameKind::kHello, FrameKind::kAck, FrameKind::kClassify,
        FrameKind::kDecision, FrameKind::kBye, FrameKind::kStats,
        FrameKind::kClassScores, FrameKind::kBinaryFeatureMap,
        FrameKind::kRawImage}) {
    Frame frame;
    frame.kind = kind;
    frame.seq = 0x0123456789ABCDEFull;
    frame.payload = {0x00, 0xFF, 0x7F, 0x80, 0x01};
    const auto wire = encode_frame(frame);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + frame.payload.size());
    EXPECT_EQ(frame_size_from_header(wire.data()), wire.size());
    const Frame back = decode_frame(wire.data(), wire.size());
    EXPECT_EQ(back.kind, frame.kind) << to_string(kind);
    EXPECT_EQ(back.seq, frame.seq);
    EXPECT_EQ(back.payload, frame.payload);
  }
}

TEST(FrameCodec, RoundTripEmptyPayload) {
  Frame frame;
  frame.kind = FrameKind::kBye;
  const auto wire = encode_frame(frame);
  const Frame back = decode_frame(wire.data(), wire.size());
  EXPECT_EQ(back.kind, FrameKind::kBye);
  EXPECT_TRUE(back.payload.empty());
}

TEST(FrameCodec, EveryTruncationThrowsNamedError) {
  Frame frame;
  frame.kind = FrameKind::kDecision;
  frame.seq = 42;
  frame.payload = sample_message(MessageKind::kRawImage, 33).payload;
  const auto wire = encode_frame(frame);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    try {
      (void)decode_frame(wire.data(), n);
      FAIL() << "decode of " << n << "/" << wire.size() << " bytes passed";
    } catch (const Error& e) {
      EXPECT_NE(std::strlen(e.what()), 0u);  // named, not a raw out_of_range
    }
  }
}

TEST(FrameCodec, EveryBitFlipIsDetected) {
  // Flip every bit of the wire image; every flip must throw a named Error.
  // Magic and the CRC field have equality checks; the CRC itself spans
  // version/kind/reserved/seq/length plus the payload, so no single-bit
  // corruption can smuggle a frame through.
  Frame frame;
  frame.kind = FrameKind::kClassScores;
  frame.seq = 7;
  frame.payload = sample_message(MessageKind::kClassScores, 24).payload;
  const auto wire = encode_frame(frame);
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    auto corrupt = wire;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW((void)decode_frame(corrupt.data(), corrupt.size()), Error)
        << "undetected flip of bit " << bit;
  }
}

TEST(FrameCodec, OversizedDeclaredLengthRejected) {
  Frame frame;
  frame.kind = FrameKind::kAck;
  auto wire = encode_frame(frame);
  // Corrupt the length field (bytes 16..19) to claim a giant payload; the
  // header-size probe must fail loudly instead of asking for gigabytes.
  wire[16] = 0xFF;
  wire[17] = 0xFF;
  wire[18] = 0xFF;
  wire[19] = 0x7F;
  EXPECT_THROW((void)frame_size_from_header(wire.data()), Error);
  EXPECT_THROW((void)decode_frame(wire.data(), wire.size()), Error);
}

TEST(FrameCodec, MessageFrameRoundTripEveryMessageKind) {
  for (const MessageKind kind :
       {MessageKind::kClassScores, MessageKind::kBinaryFeatureMap,
        MessageKind::kRawImage}) {
    const Message msg = sample_message(kind, 64);
    const Frame frame = make_message_frame(msg, /*sample=*/123, /*branch=*/4);
    EXPECT_EQ(frame.kind, frame_kind_of(kind));
    EXPECT_TRUE(is_data_kind(frame.kind));
    MessageMeta meta;
    const Message back = frame_message(frame, &meta);
    EXPECT_EQ(back.kind, kind) << to_string(kind);
    EXPECT_EQ(back.payload, msg.payload);
    EXPECT_EQ(meta.sample, 123);
    EXPECT_EQ(meta.branch, 4);
  }
}

TEST(FrameCodec, MessageFrameCarriesTraceContext) {
  const Message msg = sample_message(MessageKind::kBinaryFeatureMap, 48);
  TraceContext ctx;
  ctx.trace_id = 0x0000ABCDEF123456ull;  // 48-bit (JSON double safe)
  ctx.parent_span = (std::uint64_t{17} << 8) | 1u;
  const Frame frame = make_message_frame(msg, /*sample=*/17, /*branch=*/2,
                                         ctx);
  MessageMeta meta;
  const Message back = frame_message(frame, &meta);
  EXPECT_EQ(back.payload, msg.payload);
  EXPECT_EQ(meta.sample, 17);
  EXPECT_EQ(meta.branch, 2);
  EXPECT_EQ(meta.trace.trace_id, ctx.trace_id);
  EXPECT_EQ(meta.trace.parent_span, ctx.parent_span);
}

TEST(FrameCodec, DefaultTraceContextIsZero) {
  // Callers that predate distributed tracing (tests, examples) still build
  // valid frames; the meta decodes to the zero context.
  const Message msg = sample_message(MessageKind::kClassScores, 8);
  const Frame frame = make_message_frame(msg, 3, 1);
  MessageMeta meta;
  (void)frame_message(frame, &meta);
  EXPECT_EQ(meta.trace.trace_id, 0u);
  EXPECT_EQ(meta.trace.parent_span, 0u);
}

TEST(FrameCodec, MetaTruncationThrowsAtEveryLength) {
  // The extended v2 meta header (sample, branch, trace id, parent span) must
  // fail loudly when a frame's payload is cut anywhere inside it.
  const Message msg = sample_message(MessageKind::kRawImage, 0);
  TraceContext ctx;
  ctx.trace_id = 1;
  ctx.parent_span = 2;
  const Frame full = make_message_frame(msg, 9, 0, ctx);
  for (std::size_t n = 0; n < full.payload.size(); ++n) {
    Frame cut = full;
    cut.payload.resize(n);
    MessageMeta meta;
    EXPECT_THROW((void)frame_message(cut, &meta), Error) << n;
  }
}

TEST(FrameCodec, ControlFrameIsNotAMessage) {
  Frame frame;
  frame.kind = FrameKind::kHello;
  EXPECT_FALSE(is_data_kind(frame.kind));
  MessageMeta meta;
  EXPECT_THROW((void)frame_message(frame, &meta), Error);
}

TEST(PayloadReader, TruncationThrowsNamedError) {
  PayloadWriter w;
  w.i64(-5);
  w.u8(7);
  const auto buf = w.take();
  for (std::size_t n = 0; n < buf.size(); ++n) {
    PayloadReader r(buf.data(), n, "unit-test");
    try {
      (void)r.i64();
      (void)r.u8();
      FAIL() << "read of " << n << "/" << buf.size() << " bytes passed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unit-test"), std::string::npos);
    }
  }
}

TEST(PayloadReader, RoundTripAllTypes) {
  PayloadWriter w;
  w.u8(0xAB);
  w.i32(-123456);
  w.i64(1LL << 40);
  w.f64(0.1);
  w.str("hello");
  const auto buf = w.take();
  PayloadReader r(buf.data(), buf.size(), "rt");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), 1LL << 40);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

// ----------------------------------------- SimTransport == ReliableChannel

TEST(SimTransport, IdenticalToDirectReliableChannel) {
  // The seam must be invisible: the same (injector, link, message, sample)
  // produces bit-identical SendResults through SimTransport and through a
  // directly-constructed ReliableChannel.
  FaultPlan plan;
  plan.seed = 9;
  plan.link_drop_prob = 0.45;
  const FaultInjector injector(std::move(plan));
  const ReliabilityConfig rel{};
  SimTransport transport(rel);
  transport.set_fault_injector(&injector);
  for (std::int64_t sample = 0; sample < 64; ++sample) {
    const Message msg = sample_message(MessageKind::kBinaryFeatureMap, 40);
    Link via_transport("deviceA->edge");
    Link direct("deviceA->edge");
    const SendResult a = transport.send(via_transport, msg, sample);
    const SendResult b = ReliableChannel(direct, &injector, rel).send(msg, sample);
    EXPECT_EQ(a.delivered, b.delivered) << sample;
    EXPECT_EQ(a.attempts, b.attempts) << sample;
    EXPECT_EQ(a.dropped_attempts, b.dropped_attempts) << sample;
    EXPECT_EQ(a.latency_s, b.latency_s) << sample;
    EXPECT_EQ(via_transport.stats().bytes, direct.stats().bytes) << sample;
    EXPECT_EQ(via_transport.stats().dropped, direct.stats().dropped) << sample;
  }
}

// ------------------------------------------------------------ reply rule

/// A connected loopback pair: `client` awaits, `server` answers.
struct LoopbackPair {
  LoopbackPair()
      : listener(0),
        client(connect_to("127.0.0.1:" + std::to_string(listener.port()),
                          5.0)),
        server(listener.accept(5.0)) {}
  Listener listener;
  std::shared_ptr<FrameConn> client;
  std::shared_ptr<FrameConn> server;
};

TEST(ReplyRule, AwaitReplySkipsStaleReplies) {
  // Late replies to abandoned or retried requests (an Ack and a Decision
  // with older seqs) arrive first; await_reply returns the one reply that
  // carries the request's seq.
  LoopbackPair pair;
  ASSERT_NE(pair.client, nullptr);
  ASSERT_NE(pair.server, nullptr);
  pair.server->queue({FrameKind::kAck, 3, {}});
  pair.server->queue({FrameKind::kDecision, 4, {1, 2, 3}});
  pair.server->queue({FrameKind::kDecision, 5, {9}});
  ASSERT_TRUE(pair.server->flush(5.0));
  const auto reply = pair.client->await_reply(5, 5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, FrameKind::kDecision);
  EXPECT_EQ(reply->seq, 5u);
  EXPECT_EQ(reply->payload, std::vector<std::uint8_t>{9});
}

TEST(ReplyRule, OnlyStaleRepliesTimeOut) {
  LoopbackPair pair;
  ASSERT_NE(pair.client, nullptr);
  ASSERT_NE(pair.server, nullptr);
  pair.server->queue({FrameKind::kAck, 3, {}});
  pair.server->queue({FrameKind::kDecision, 4, {1, 2, 3}});
  ASSERT_TRUE(pair.server->flush(5.0));
  const double start = wall_s();
  EXPECT_FALSE(pair.client->await_reply(5, 0.2).has_value());
  const double waited = wall_s() - start;
  EXPECT_GE(waited, 0.2);  // returns at its deadline, not before
  EXPECT_LT(waited, 2.0);
  EXPECT_FALSE(pair.client->closed());
}

// -------------------------------------------------- transport conformance

/// Loopback peer: ACKs every data frame as it arrives (in arrival order)
/// and records the payloads it saw. `acks` false simulates a peer that
/// reads but never acknowledges — the timeout route.
class AckPeer {
 public:
  explicit AckPeer(bool acks = true) : listener_(0), acks_(acks) {
    thread_ = std::thread([this] {
      auto conn = listener_.accept(10.0);
      if (conn == nullptr) return;
      const double deadline_s = 10.0;
      while (!stop_.load()) {
        std::optional<Frame> frame;
        try {
          frame = conn->read_frame(0.05);
        } catch (const Error&) {
          return;  // peer hung up mid-frame
        }
        if (conn->closed()) return;
        if (!frame.has_value()) continue;
        if (frame->kind == FrameKind::kBye) return;
        if (is_data_kind(frame->kind)) {
          MessageMeta meta;
          payloads_.push_back(frame_message(*frame, &meta).payload);
          if (acks_) {
            Frame ack;
            ack.kind = FrameKind::kAck;
            ack.seq = frame->seq;
            conn->write_frame(ack, deadline_s);
          }
        }
      }
    });
  }
  ~AckPeer() {
    stop_.store(true);
    thread_.join();
  }

  int port() const { return listener_.port(); }
  const std::vector<std::vector<std::uint8_t>>& payloads() const {
    return payloads_;
  }

 private:
  Listener listener_;
  bool acks_;
  std::atomic<bool> stop_{false};
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::thread thread_;
};

ReliabilityConfig fast_reliability() {
  ReliabilityConfig rel;
  rel.max_retries = 1;
  rel.timeout_s = 0.2;
  return rel;
}

// Conformance: a delivered send reports delivered=true, one attempt, and
// charges the payload to the link's byte stats.
TEST(TransportConformance, SimDelivers) {
  SimTransport transport;  // no injector: nothing ever drops
  Link link("device0->edge");
  const Message msg = sample_message(MessageKind::kBinaryFeatureMap, 100);
  const SendResult res = transport.send(link, msg, 0);
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(link.stats().bytes, 100);
}

TEST(TransportConformance, SocketDelivers) {
  AckPeer peer;
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  const Message msg = sample_message(MessageKind::kBinaryFeatureMap, 100);
  const SendResult res = transport.send(link, msg, 0);
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.dropped_attempts, 0);
  EXPECT_EQ(link.stats().bytes, 100);
  EXPECT_GE(res.latency_s, 0.0);
}

// Conformance: messages sent down one connection arrive in send order.
TEST(TransportConformance, SocketPerConnectionOrdering) {
  AckPeer peer;
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  std::vector<Message> sent;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(sample_message(MessageKind::kClassScores,
                                  static_cast<std::size_t>(8 + i)));
    const SendResult res = transport.send(link, sent.back(), i);
    ASSERT_TRUE(res.delivered) << i;
  }
  // Every ACK implies the peer stored the payload before answering, so by
  // the time the last send returns all 20 are recorded, in order.
  ASSERT_EQ(peer.payloads().size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(peer.payloads()[i], sent[i].payload) << i;
  }
}

TEST(TransportConformance, SocketBatchKeepsPerItemOrder) {
  AckPeer peer;
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  std::vector<Message> msgs;
  for (int i = 0; i < 6; ++i) {
    msgs.push_back(sample_message(MessageKind::kBinaryFeatureMap,
                                  static_cast<std::size_t>(16 + 4 * i)));
  }
  std::vector<SocketTransport::BatchItem> batch;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    batch.push_back({&link, &msgs[i], /*sample=*/7,
                     /*branch=*/static_cast<std::int32_t>(i),
                     TraceContext{}});
  }
  std::vector<SendResult> results;
  transport.send_batch(batch, results);
  ASSERT_EQ(results.size(), msgs.size());
  for (const auto& res : results) EXPECT_TRUE(res.delivered);
  ASSERT_EQ(peer.payloads().size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(peer.payloads()[i], msgs[i].payload) << i;
  }
}

// Conformance: an undeliverable message surfaces as a timeout after the
// configured attempts, never as a hang or an exception.
TEST(TransportConformance, SimTimeoutSurfaces) {
  FaultPlan plan;
  plan.link_drop_prob = 1.0;
  const FaultInjector injector(std::move(plan));
  SimTransport transport(fast_reliability());
  transport.set_fault_injector(&injector);
  Link link("device0->edge");
  const SendResult res =
      transport.send(link, sample_message(MessageKind::kClassScores, 12), 0);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.attempts, 2);  // 1 + max_retries
  EXPECT_EQ(res.dropped_attempts, 2);
  EXPECT_EQ(link.stats().bytes, 0);  // nothing delivered
  EXPECT_EQ(link.stats().dropped, 2);
}

TEST(TransportConformance, SocketTimeoutSurfaces) {
  AckPeer peer(/*acks=*/false);  // reads frames, never acknowledges
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  const SendResult res =
      transport.send(link, sample_message(MessageKind::kClassScores, 12), 0);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.attempts, 2);  // 1 + max_retries
  EXPECT_EQ(res.dropped_attempts, 2);
  EXPECT_EQ(link.stats().bytes, 0);
  EXPECT_EQ(link.stats().dropped, 2);
  EXPECT_GE(res.latency_s, 2 * 0.2);  // waited out both attempt timeouts
}

// A malformed address is an error that names it, raised before any socket
// is opened: never an uncaught std::invalid_argument, and never a port
// silently truncated to 16 bits (70000 would dial 4464).
TEST(TransportConformance, ConnectToRejectsBadAddress) {
  for (const std::string addr :
       {"127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:0", "127.0.0.1:-1",
        "127.0.0.1:", "127.0.0.1:80x", "127.0.0.1:99999999999999999999",
        "127.0.0.1"}) {
    try {
      (void)connect_to(addr, 0.01);
      ADD_FAILURE() << addr << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(addr), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)connect_to("not-an-ip:80", 0.01), Error);
}

TEST(TransportConformance, ListenerRejectsPortsPast16Bits) {
  EXPECT_THROW(Listener(70000), Error);
  EXPECT_THROW(Listener(-1), Error);
}

TEST(TransportConformance, ConnectToAcceptsPortRangeEnds) {
  AckPeer peer;
  EXPECT_NE(connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0),
            nullptr);
  // 65535 parses; whether anything listens there is the host's business,
  // so only the absence of an error is checked.
  EXPECT_NO_THROW((void)connect_to("127.0.0.1:65535", 0.01));
}

TEST(TransportConformance, SocketUnattachedChannelFailsFast) {
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  const SendResult res =
      transport.send(link, sample_message(MessageKind::kClassScores, 12), 0);
  EXPECT_FALSE(res.delivered);
  EXPECT_GE(res.attempts, 1);  // metrics divide by attempts-1 >= 0
}

TEST(TransportConformance, SocketFailFastCircuitBreaker) {
  AckPeer peer(/*acks=*/false);
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  (void)transport.send(link, sample_message(MessageKind::kClassScores, 12), 0);
  EXPECT_TRUE(transport.channel_down(link.name()));
  const double t0 = static_cast<double>(clock()) / CLOCKS_PER_SEC;
  const SendResult res =
      transport.send(link, sample_message(MessageKind::kClassScores, 12), 1);
  const double elapsed = static_cast<double>(clock()) / CLOCKS_PER_SEC - t0;
  EXPECT_FALSE(res.delivered);
  EXPECT_LT(elapsed, 0.2);  // no timeout ladder after the breaker trips
}

// --------------------------------------------------- transport telemetry

TEST(TransportTelemetry, EagerLinkColumnsOnAttach) {
  // Every data channel registers its link.* counters at attach time, before
  // any traffic — so a degraded run exports the same metric columns as a
  // healthy one. Control channels ("-ctl") carry no byte accounting.
  AckPeer peer;
  obs::MetricsRegistry reg;
  SocketTransport transport(fast_reliability());
  transport.bind_metrics(&reg);
  const auto conn =
      connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0);
  transport.attach("cloud-ctl", conn);
  transport.attach("device0->cloud", conn);
  transport.attach("device1->cloud", conn);
  const auto names = reg.names();
  const std::vector<std::string> expected = {
      "transport.breaker_trips",      "transport.channels_down",
      "link.device0->cloud.attempts", "link.device0->cloud.retries",
      "link.device0->cloud.timeouts", "link.device0->cloud.bytes",
      "link.device1->cloud.attempts", "link.device1->cloud.retries",
      "link.device1->cloud.timeouts", "link.device1->cloud.bytes"};
  EXPECT_EQ(names, expected);  // attach order; no cloud-ctl columns
  EXPECT_EQ(reg.counter("link.device0->cloud.attempts").value(), 0);
}

TEST(TransportTelemetry, SendBooksLinkCounters) {
  AckPeer peer;
  obs::MetricsRegistry reg;
  SocketTransport transport(fast_reliability());
  transport.bind_metrics(&reg);
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  const Message msg = sample_message(MessageKind::kBinaryFeatureMap, 100);
  ASSERT_TRUE(transport.send(link, msg, 0).delivered);
  EXPECT_EQ(reg.counter("link.device0->edge.attempts").value(), 1);
  EXPECT_EQ(reg.counter("link.device0->edge.retries").value(), 0);
  EXPECT_EQ(reg.counter("link.device0->edge.timeouts").value(), 0);
  EXPECT_EQ(reg.counter("link.device0->edge.bytes").value(), 100);
}

TEST(TransportTelemetry, BreakerTripBooksGauges) {
  AckPeer peer(/*acks=*/false);
  obs::MetricsRegistry reg;
  SocketTransport transport(fast_reliability());
  transport.bind_metrics(&reg);
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  const Message msg = sample_message(MessageKind::kClassScores, 12);
  EXPECT_FALSE(transport.send(link, msg, 0).delivered);
  EXPECT_TRUE(transport.channel_down(link.name()));
  EXPECT_EQ(reg.counter("transport.breaker_trips").value(), 1);
  EXPECT_EQ(reg.gauge("transport.channels_down").value(), 1.0);
  EXPECT_EQ(reg.counter("link.device0->edge.timeouts").value(), 1);
  EXPECT_EQ(reg.counter("link.device0->edge.bytes").value(), 0);
  // A second failed send on the tripped channel is not a second trip.
  EXPECT_FALSE(transport.send(link, msg, 1).delivered);
  EXPECT_EQ(reg.counter("transport.breaker_trips").value(), 1);
}

TEST(TransportTelemetry, HotPathProfileHooks) {
  // The frame codec and socket pump are instrumented; with profiling armed
  // a delivered send records encode/decode/CRC/flush/poll scopes.
  AckPeer peer;
  SocketTransport transport(fast_reliability());
  Link link("device0->edge");
  transport.attach(link.name(),
                   connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  // Each scope books into the global registry's prof.<op>.us histogram.
  const std::vector<std::string> ops{"frame_encode", "frame_decode", "crc32",
                                     "flush", "poll"};
  const auto calls = [](const std::string& op) {
    return obs::global_metrics()
        .hdr_histogram("prof.transport." + op + ".us", obs::kProfileUnitUs,
                       obs::kProfileMaxUs)
        .count();
  };
  std::vector<std::int64_t> before;
  for (const auto& op : ops) before.push_back(calls(op));
  obs::set_profiling_enabled(true);
  const Message msg = sample_message(MessageKind::kBinaryFeatureMap, 64);
  const SendResult res = transport.send(link, msg, 0);
  obs::set_profiling_enabled(false);
  ASSERT_TRUE(res.delivered);
  // frame_decode fires on the ACK.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_GT(calls(ops[i]), before[i]) << ops[i];
  }
}

// Conformance: a multi-megabyte message survives arbitrary read/write
// fragmentation (the frame layer reassembles across partial IO).
TEST(TransportConformance, SocketLargeMessageFraming) {
  AckPeer peer;
  SocketTransport transport(fast_reliability());
  ReliabilityConfig rel = fast_reliability();
  rel.timeout_s = 10.0;  // a 3 MiB frame takes longer than 200 ms
  SocketTransport big(rel);
  Link link("device0->cloud");
  big.attach(link.name(),
             connect_to("127.0.0.1:" + std::to_string(peer.port()), 5.0));
  const Message msg = sample_message(MessageKind::kRawImage, 3u << 20);
  const SendResult res = big.send(link, msg, 0);
  ASSERT_TRUE(res.delivered);
  ASSERT_EQ(peer.payloads().size(), 1u);
  EXPECT_EQ(peer.payloads()[0], msg.payload);
}

}  // namespace
}  // namespace ddnn::dist
