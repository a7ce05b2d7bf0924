// Transport abstraction: how a Message moves between hierarchy nodes.
//
// Every place the runtime moves a Message — device→gateway scores,
// device→edge/cloud features, edge→cloud escalation, raw-image fallback —
// goes through one seam:
//
//   void Transport::send_batch(items, results)
//
// with two implementations:
//
//   * SimTransport    — the deterministic simulator path. Wraps the existing
//                       Link latency model, FaultInjector and ReliableChannel
//                       (timeout + bounded retry + jittered backoff) and is
//                       byte- and latency-identical to the pre-seam runtime:
//                       the simulator stays the oracle every determinism
//                       CTest pins.
//   * SocketTransport — real TCP. Each logical channel (Link::name()) is
//                       attached to a FrameConn; a send wraps the Message
//                       codec in a versioned length-prefixed frame
//                       (magic/version/kind/seq/length/CRC32). send_batch()
//                       queues the frames across channels, flushes each
//                       connection once (batched uplink flushes), then
//                       collects the pipelined Acks, reusing the
//                       ReliabilityConfig budget and the retry_backoff_s()
//                       waits.
//
// One rule matches every reply to its request: a reply carries its
// request's seq (FrameConn::await_reply). Acks, Hello, Decision, Stats and
// Health replies all follow it, and any other frame a requester reads is a
// late reply to a request it has abandoned or retried.
//
// The frame layer is the served hierarchy's whole wire contract
// (docs/ARCHITECTURE.md "Transport layer"); `ddnn serve` (dist/serve.hpp)
// speaks nothing but these frames.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "dist/link.hpp"
#include "dist/message.hpp"
#include "obs/metrics.hpp"

namespace ddnn::dist {

/// Per-link reliability counters, link.<name>.{attempts,retries,timeouts,
/// bytes}: the breakdown `ddnn report` shows by link on any transport. One
/// helper registers them for both writers — dist::RunBook books the hops
/// into in-process tiers, SocketTransport the socket channels into remote
/// ones. Default-constructed (all null) means unbound, and book() is then
/// a no-op.
struct LinkCounters {
  obs::Counter* attempts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* bytes = nullptr;

  /// Register (get-or-create) link `name`'s quartet in `reg`.
  static LinkCounters bind(obs::MetricsRegistry& reg, const std::string& name);
  /// Book one send: its attempts and retries, then `payload_bytes` when it
  /// was delivered or one timeout when it was not.
  void book(const SendResult& res, std::int64_t payload_bytes) const;
};

// ------------------------------------------------------------- interface

/// Cross-process trace identity carried by every data and Classify frame:
/// which distributed trace a hop belongs to (`trace_id`, one per sample run)
/// and which driver span caused it (`parent_span`). Zero means "untraced".
/// Ids are kept within 48 bits so JSON consumers that parse numbers as
/// doubles (Perfetto, python json) round-trip them exactly.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// One message of a batched send, with the routing metadata its frame
  /// carries.
  struct BatchItem {
    Link* link = nullptr;
    const Message* msg = nullptr;
    std::int64_t sample = 0;
    std::int32_t branch = 0;
    TraceContext trace;
  };
  /// Reliable delivery of every item on the logical channel its `link`
  /// names, applying the implementation's timeout/retry/backoff policy;
  /// results[i] answers items[i], and `results` keeps its capacity.
  /// Delivered traffic (and dropped attempts) is accounted into each link's
  /// stats; `latency_s` is simulated seconds (sim) or measured wall seconds
  /// (socket).
  virtual void send_batch(const std::vector<BatchItem>& items,
                          std::vector<SendResult>& results) = 0;

  /// send_batch() of one item.
  SendResult send(Link& link, const Message& msg, std::int64_t sample_index);

  /// Whether SendResult latencies are measured wall time (real networks) or
  /// modelled (the simulator). The runtime charges compute the same way:
  /// measured durations here, RuntimeConfig's fixed costs otherwise.
  virtual bool measures_time() const { return false; }

  /// Runtime notification that the fault oracle changed (null = cleared).
  /// Real-network transports ignore this: their faults are injected by the
  /// network itself, not drawn from a plan.
  virtual void set_fault_injector(const FaultInjector* injector) {
    (void)injector;
  }

  /// Implementation name ("sim", "socket") for logs and ledger records.
  virtual const char* name() const = 0;
};

/// The simulator path: ReliableChannel over the Link's latency model, faults
/// drawn from the installed injector. With no injector every send delivers
/// on the first attempt at plain link latency — exactly the seed behavior.
class SimTransport : public Transport {
 public:
  explicit SimTransport(ReliabilityConfig config = {});

  /// One ReliableChannel send per item, in order.
  void send_batch(const std::vector<BatchItem>& items,
                  std::vector<SendResult>& results) override;
  void set_fault_injector(const FaultInjector* injector) override {
    injector_ = injector;
  }
  const char* name() const override { return "sim"; }

 private:
  ReliabilityConfig config_;
  const FaultInjector* injector_ = nullptr;
};

// ------------------------------------------------------------ frame codec

/// "DDNN" little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x4E4E4444u;
/// v3: every reply echoes its request's seq — the Decision now carries its
/// Classify's (v2 sent 0), so a v2 peer would look like a dead tier instead
/// of a mismatched build. v2 added the trace context to data frames and the
/// Hello/Classify timestamp and trace fields. The header layout is
/// unchanged; the version equality check keeps mismatched builds from
/// talking past each other.
inline constexpr std::uint8_t kFrameVersion = 3;
/// magic(4) version(1) kind(1) reserved(2) seq(8) length(4) crc32(4); the
/// CRC covers header bytes [4, 20) plus the payload, so corruption anywhere
/// but the magic/CRC fields themselves fails the checksum (and those two
/// have their own equality checks).
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Sanity bound on a frame payload (largest legitimate payload — a raw
/// image batch — is orders of magnitude smaller).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameKind : std::uint8_t {
  // Control plane.
  // Every reply carries its request's seq.
  kHello = 1,     ///< handshake: role + model signature; peer echoes
  kAck = 2,       ///< delivery ack; the reply to a data frame
  kClassify = 3,  ///< "decide this sample": [i64 sample][u8 mode]
  kDecision = 4,  ///< the reply to a Classify (dist::TierDecision)
  kBye = 5,       ///< orderly shutdown
  kStats = 6,     ///< live telemetry poll; reply payload = metrics JSON
  kHealth = 7,    ///< SLO health poll; reply payload = health JSON

  // Data plane: a Message plus routing metadata, payload =
  // [i64 sample][i32 branch][u64 trace_id][u64 parent_span]
  // ++ Message::payload.
  kClassScores = 16,
  kBinaryFeatureMap = 17,
  kRawImage = 18,
};

const char* to_string(FrameKind kind);
bool is_data_kind(FrameKind kind);
FrameKind frame_kind_of(MessageKind kind);
MessageKind message_kind_of(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::kAck;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `n` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Header + payload wire bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decode one complete frame. Throws ddnn::Error naming the defect on bad
/// magic/version/kind, on a declared payload length that disagrees with the
/// buffer, and on a checksum mismatch (the CRC spans version through
/// payload, so a single flipped bit anywhere in the frame is rejected).
Frame decode_frame(const std::uint8_t* data, std::size_t n);

/// Total wire size (header + declared payload) from a complete header.
/// Validates magic/version and bounds the declared length, so a corrupt
/// length field fails loudly instead of asking for gigabytes.
std::size_t frame_size_from_header(const std::uint8_t* header);

// Bounds-checked little-endian payload IO. Readers throw ddnn::Error naming
// the truncation instead of walking off the buffer.
class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void bytes(const std::uint8_t* data, std::size_t n);
  void str(const std::string& s);  ///< u32 length prefix + bytes
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t n, const char* what);
  std::uint8_t u8();
  std::int32_t i32();
  std::int64_t i64();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Everything not yet consumed.
  std::vector<std::uint8_t> rest();
  std::size_t remaining() const { return n_ - pos_; }

 private:
  void need(std::size_t n) const;
  const std::uint8_t* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
  const char* what_;
};

/// Wrap a Message (+ routing metadata) into a data frame / unwrap it back.
Frame make_message_frame(const Message& msg, std::int64_t sample,
                         std::int32_t branch,
                         const TraceContext& trace = TraceContext{});
struct MessageMeta {
  std::int64_t sample = 0;
  std::int32_t branch = 0;
  TraceContext trace;
};
Message frame_message(const Frame& frame, MessageMeta* meta);

// --------------------------------------------------------------- sockets

/// A connected stream socket speaking frames. The fd is nonblocking; writes
/// queue into an out-buffer flushed with poll()-driven partial writes, reads
/// accumulate into an in-buffer parsed into complete frames — large
/// messages survive arbitrary read/write fragmentation.
class FrameConn {
 public:
  explicit FrameConn(int fd);  ///< takes ownership; sets O_NONBLOCK
  ~FrameConn();
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  int fd() const { return fd_; }
  bool closed() const { return fd_ < 0; }
  void close();

  /// Queue a frame; no syscall until flush().
  void queue(const Frame& frame);
  /// Drive queued bytes out. Returns false when `timeout_s` elapses first;
  /// throws ddnn::Error on a connection error.
  bool flush(double timeout_s);
  bool write_frame(const Frame& frame, double timeout_s);

  /// Next frame within `timeout_s` (nullopt on timeout or orderly EOF —
  /// check closed() to tell them apart). Throws on protocol violations.
  std::optional<Frame> read_frame(double timeout_s);

  /// The reply to request `seq` within `timeout_s`. Every reply echoes its
  /// request's seq, so any other frame is a late reply to an abandoned or
  /// retried request and is dropped. nullopt on timeout or orderly EOF
  /// (check closed()); throws on protocol violations.
  std::optional<Frame> await_reply(std::uint64_t seq, double timeout_s);

  /// Consume whatever is readable right now without blocking; parsed
  /// complete frames land in arrival order.
  std::vector<Frame> ready_frames();

  std::size_t queued_bytes() const { return out_.size() - out_pos_; }

 private:
  bool fill_from_socket(double timeout_s);  ///< one poll+read round
  std::optional<Frame> parse_one();

  int fd_ = -1;
  std::vector<std::uint8_t> in_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
};

/// Listening TCP socket on 127.0.0.1 (port 0 = OS-assigned ephemeral port —
/// the port-allocation story that lets parallel ctest jobs never collide;
/// the bound port is read back via port()).
class Listener {
 public:
  explicit Listener(int port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int port() const { return port_; }
  int fd() const { return fd_; }

  /// Accept one connection within `timeout_s` (nullptr on timeout).
  std::shared_ptr<FrameConn> accept(double timeout_s);

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Connect to "host:port" within `timeout_s`; nullptr when nothing answers.
/// Throws ddnn::Error, naming the address, when it does not parse: no
/// colon, a port that is not a whole number in 1-65535, or a host that is
/// not an IPv4 address.
std::shared_ptr<FrameConn> connect_to(const std::string& host_port,
                                      double timeout_s);

/// Real-TCP transport: logical channels (Link names) attached to
/// connections; several channels may share one connection (all six device
/// uplinks ride the single device→edge socket).
class SocketTransport : public Transport {
 public:
  explicit SocketTransport(ReliabilityConfig config = {});

  void attach(const std::string& channel, std::shared_ptr<FrameConn> conn);

  /// Circuit breaker: a channel whose send went undelivered is down, and
  /// every later send or post on it fails at once instead of waiting out
  /// the timeout ladder again.
  bool channel_down(const std::string& channel) const;
  /// channel_down() for `channel` or any channel sharing its connection:
  /// whether the peer behind it has stopped answering.
  bool peer_down(const std::string& channel) const;

  /// Register per-channel `link.<name>.*` counters (attempts/retries/
  /// timeouts/bytes) plus breaker health (`transport.breaker_trips`,
  /// `transport.channels_down`) in `reg`. Registration is eager: existing
  /// channels get their columns immediately and every later attach()
  /// registers before the first send, so metrics/series exports have
  /// identical columns whether or not a link ever carried traffic. Control
  /// channels (names ending in "-ctl") carry no Link traffic and get no
  /// link columns. Pass nullptr to stop booking.
  void bind_metrics(obs::MetricsRegistry* reg);

  const char* name() const override { return "socket"; }
  bool measures_time() const override { return true; }

  /// Batched uplink flush: queue every frame first (one buffered write
  /// burst per connection), then await the pipelined Acks in order; an item
  /// whose Ack times out re-sends the same frame (same seq) after
  /// jitter-free backoff sleep, per ReliabilityConfig.
  void send_batch(const std::vector<BatchItem>& items,
                  std::vector<SendResult>& results) override;

  /// Fire a control frame down a channel, giving it the next seq unless it
  /// carries one. Returns false when the channel is unattached/down or the
  /// flush times out.
  bool post(const std::string& channel, const Frame& frame);

  /// Post `frame` with the next seq and await its reply (await_reply).
  /// nullopt when the post fails or no reply comes within `timeout_s`; a
  /// connection error also opens the channel's breaker.
  std::optional<Frame> request(const std::string& channel, const Frame& frame,
                               double timeout_s);

 private:
  struct Channel {
    std::shared_ptr<FrameConn> conn;
    bool down = false;
    LinkCounters metrics;
  };
  Channel* find(const std::string& channel);
  const Channel* find(const std::string& channel) const;
  void register_channel_metrics(const std::string& name, Channel& ch);
  /// One-way breaker transition; books transport.breaker_trips and the
  /// transport.channels_down gauge exactly once per channel.
  void mark_down(Channel& ch);

  ReliabilityConfig config_;
  std::uint64_t next_seq_ = 1;
  std::map<std::string, Channel> channels_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* breaker_trips_ = nullptr;
  obs::Gauge* channels_down_ = nullptr;
};

}  // namespace ddnn::dist
