#include "dist/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "obs/profile.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ddnn::dist {
namespace {

void sleep_s(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

int poll_ms_for(double timeout_s) {
  if (timeout_s <= 0.0) return 0;
  const double ms = timeout_s * 1e3;
  if (ms >= 60'000.0) return 60'000;
  const int rounded = static_cast<int>(ms);
  return rounded > 0 ? rounded : 1;
}

void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v & 0xFF));
  buf.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

bool known_frame_kind(std::uint8_t raw) {
  switch (static_cast<FrameKind>(raw)) {
    case FrameKind::kHello:
    case FrameKind::kAck:
    case FrameKind::kClassify:
    case FrameKind::kDecision:
    case FrameKind::kBye:
    case FrameKind::kStats:
    case FrameKind::kHealth:
    case FrameKind::kClassScores:
    case FrameKind::kBinaryFeatureMap:
    case FrameKind::kRawImage:
      return true;
  }
  return false;
}

}  // namespace

LinkCounters LinkCounters::bind(obs::MetricsRegistry& reg,
                                const std::string& name) {
  const std::string base = "link." + name + ".";
  return {&reg.counter(base + "attempts"), &reg.counter(base + "retries"),
          &reg.counter(base + "timeouts"), &reg.counter(base + "bytes")};
}

void LinkCounters::book(const SendResult& res,
                        std::int64_t payload_bytes) const {
  if (attempts == nullptr) return;
  attempts->add(res.attempts);
  retries->add(res.attempts - 1);
  if (res.delivered) {
    bytes->add(payload_bytes);
  } else {
    timeouts->add(1);
  }
}

// ------------------------------------------------------------ transports

SimTransport::SimTransport(ReliabilityConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

SendResult Transport::send(Link& link, const Message& msg,
                           std::int64_t sample_index) {
  std::vector<SendResult> results;
  send_batch({BatchItem{&link, &msg, sample_index, 0, TraceContext{}}},
             results);
  return results[0];
}

void SimTransport::send_batch(const std::vector<BatchItem>& items,
                              std::vector<SendResult>& results) {
  results.clear();
  for (const BatchItem& item : items) {
    results.push_back(ReliableChannel(*item.link, injector_, config_)
                          .send(*item.msg, item.sample));
  }
}

// ----------------------------------------------------------- frame codec

const char* to_string(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kAck: return "ack";
    case FrameKind::kClassify: return "classify";
    case FrameKind::kDecision: return "decision";
    case FrameKind::kBye: return "bye";
    case FrameKind::kStats: return "stats";
    case FrameKind::kHealth: return "health";
    case FrameKind::kClassScores: return "class-scores";
    case FrameKind::kBinaryFeatureMap: return "binary-features";
    case FrameKind::kRawImage: return "raw-image";
  }
  return "?";
}

bool is_data_kind(FrameKind kind) {
  return kind == FrameKind::kClassScores ||
         kind == FrameKind::kBinaryFeatureMap || kind == FrameKind::kRawImage;
}

FrameKind frame_kind_of(MessageKind kind) {
  switch (kind) {
    case MessageKind::kClassScores: return FrameKind::kClassScores;
    case MessageKind::kBinaryFeatureMap: return FrameKind::kBinaryFeatureMap;
    case MessageKind::kRawImage: return FrameKind::kRawImage;
  }
  DDNN_CHECK(false, "unknown MessageKind " << static_cast<int>(kind));
  return FrameKind::kClassScores;
}

MessageKind message_kind_of(FrameKind kind) {
  switch (kind) {
    case FrameKind::kClassScores: return MessageKind::kClassScores;
    case FrameKind::kBinaryFeatureMap: return MessageKind::kBinaryFeatureMap;
    case FrameKind::kRawImage: return MessageKind::kRawImage;
    default: break;
  }
  DDNN_CHECK(false,
             "frame kind " << to_string(kind) << " carries no Message");
  return MessageKind::kClassScores;
}

namespace {

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t n) {
  const auto& table = crc_table();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

/// The frame checksum: header bytes [4, 20) (version, kind, reserved, seq,
/// length) chained with the payload, so a bit flip anywhere outside the
/// magic/CRC fields themselves fails the check.
std::uint32_t frame_crc(const std::uint8_t* header_4_20,
                        const std::uint8_t* payload, std::size_t n) {
  DDNN_PROF_SCOPE("transport.crc32");
  std::uint32_t crc = crc32_update(0xFFFFFFFFu, header_4_20, 16);
  return crc32_update(crc, payload, n) ^ 0xFFFFFFFFu;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  DDNN_PROF_SCOPE("transport.crc32");
  return crc32_update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  DDNN_PROF_SCOPE("transport.frame_encode");
  DDNN_CHECK(frame.payload.size() <= kMaxFramePayload,
             "frame payload " << frame.payload.size() << " B exceeds cap "
                              << kMaxFramePayload);
  std::vector<std::uint8_t> wire;
  wire.reserve(kFrameHeaderBytes + frame.payload.size());
  put_u32(wire, kFrameMagic);
  wire.push_back(kFrameVersion);
  wire.push_back(static_cast<std::uint8_t>(frame.kind));
  put_u16(wire, 0);  // reserved
  put_u64(wire, frame.seq);
  put_u32(wire, static_cast<std::uint32_t>(frame.payload.size()));
  put_u32(wire,
          frame_crc(wire.data() + 4, frame.payload.data(),
                    frame.payload.size()));
  wire.insert(wire.end(), frame.payload.begin(), frame.payload.end());
  return wire;
}

std::size_t frame_size_from_header(const std::uint8_t* header) {
  const std::uint32_t magic = get_u32(header);
  DDNN_CHECK(magic == kFrameMagic,
             "bad frame magic 0x" << std::hex << magic << " (want 0x"
                                  << kFrameMagic << ")");
  DDNN_CHECK(header[4] == kFrameVersion,
             "unsupported frame version " << static_cast<int>(header[4])
                                          << " (speak version "
                                          << static_cast<int>(kFrameVersion)
                                          << ")");
  const std::uint32_t length = get_u32(header + 16);
  DDNN_CHECK(length <= kMaxFramePayload,
             "frame declares " << length << " B payload, over the "
                               << kMaxFramePayload << " B cap");
  return kFrameHeaderBytes + length;
}

Frame decode_frame(const std::uint8_t* data, std::size_t n) {
  DDNN_PROF_SCOPE("transport.frame_decode");
  DDNN_CHECK(n >= kFrameHeaderBytes,
             "truncated frame: " << n << " B is smaller than the "
                                 << kFrameHeaderBytes << " B header");
  const std::size_t want = frame_size_from_header(data);
  DDNN_CHECK(n == want, "frame declares " << (want - kFrameHeaderBytes)
                                          << " B payload but buffer holds "
                                          << (n - kFrameHeaderBytes) << " B");
  DDNN_CHECK(known_frame_kind(data[5]),
             "unknown frame kind " << static_cast<int>(data[5]));
  Frame frame;
  frame.kind = static_cast<FrameKind>(data[5]);
  frame.seq = get_u64(data + 8);
  frame.payload.assign(data + kFrameHeaderBytes, data + want);
  const std::uint32_t declared_crc = get_u32(data + 20);
  const std::uint32_t actual_crc =
      frame_crc(data + 4, frame.payload.data(), frame.payload.size());
  DDNN_CHECK(declared_crc == actual_crc,
             "frame CRC mismatch on " << to_string(frame.kind)
                                      << ": header says 0x" << std::hex
                                      << declared_crc << ", frame hashes 0x"
                                      << actual_crc);
  return frame;
}

// ------------------------------------------------------------ payload IO

void PayloadWriter::u8(std::uint8_t v) { buf_.push_back(v); }
void PayloadWriter::i32(std::int32_t v) {
  put_u32(buf_, static_cast<std::uint32_t>(v));
}
void PayloadWriter::i64(std::int64_t v) {
  put_u64(buf_, static_cast<std::uint64_t>(v));
}
void PayloadWriter::u64(std::uint64_t v) { put_u64(buf_, v); }
void PayloadWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(buf_, bits);
}
void PayloadWriter::bytes(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}
void PayloadWriter::str(const std::string& s) {
  put_u32(buf_, static_cast<std::uint32_t>(s.size()));
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

PayloadReader::PayloadReader(const std::uint8_t* data, std::size_t n,
                             const char* what)
    : data_(data), n_(n), what_(what) {}

void PayloadReader::need(std::size_t n) const {
  DDNN_CHECK(pos_ + n <= n_, "truncated " << what_ << " payload: need " << n
                                          << " B at offset " << pos_
                                          << ", only " << (n_ - pos_)
                                          << " B remain");
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return data_[pos_++];
}
std::int32_t PayloadReader::i32() {
  need(4);
  const std::uint32_t v = get_u32(data_ + pos_);
  pos_ += 4;
  return static_cast<std::int32_t>(v);
}
std::int64_t PayloadReader::i64() {
  need(8);
  const std::uint64_t v = get_u64(data_ + pos_);
  pos_ += 8;
  return static_cast<std::int64_t>(v);
}
std::uint64_t PayloadReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_ + pos_);
  pos_ += 8;
  return v;
}
double PayloadReader::f64() {
  need(8);
  const std::uint64_t bits = get_u64(data_ + pos_);
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
std::string PayloadReader::str() {
  need(4);
  const std::uint32_t len = get_u32(data_ + pos_);
  pos_ += 4;
  need(len);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}
std::vector<std::uint8_t> PayloadReader::rest() {
  std::vector<std::uint8_t> out(data_ + pos_, data_ + n_);
  pos_ = n_;
  return out;
}

Frame make_message_frame(const Message& msg, std::int64_t sample,
                         std::int32_t branch, const TraceContext& trace) {
  Frame frame;
  frame.kind = frame_kind_of(msg.kind);
  PayloadWriter w;
  w.i64(sample);
  w.i32(branch);
  w.u64(trace.trace_id);
  w.u64(trace.parent_span);
  w.bytes(msg.payload.data(), msg.payload.size());
  frame.payload = w.take();
  return frame;
}

Message frame_message(const Frame& frame, MessageMeta* meta) {
  DDNN_CHECK(is_data_kind(frame.kind),
             "frame kind " << to_string(frame.kind) << " carries no Message");
  PayloadReader r(frame.payload.data(), frame.payload.size(),
                  to_string(frame.kind));
  MessageMeta m;
  m.sample = r.i64();
  m.branch = r.i32();
  m.trace.trace_id = r.u64();
  m.trace.parent_span = r.u64();
  if (meta != nullptr) *meta = m;
  Message msg;
  msg.kind = message_kind_of(frame.kind);
  msg.payload = r.rest();
  return msg;
}

// -------------------------------------------------------------- FrameConn

FrameConn::FrameConn(int fd) : fd_(fd) {
  DDNN_CHECK(fd_ >= 0, "FrameConn needs a valid fd");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

FrameConn::~FrameConn() { close(); }

void FrameConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FrameConn::queue(const Frame& frame) {
  const std::vector<std::uint8_t> wire = encode_frame(frame);
  out_.insert(out_.end(), wire.begin(), wire.end());
}

bool FrameConn::flush(double timeout_s) {
  DDNN_PROF_SCOPE("transport.flush");
  const double deadline = wall_s() + timeout_s;
  while (out_pos_ < out_.size()) {
    DDNN_CHECK(fd_ >= 0, "flush on closed connection");
    const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const double remaining = deadline - wall_s();
      if (remaining <= 0.0) return false;
      struct pollfd pfd {
        fd_, POLLOUT, 0
      };
      ::poll(&pfd, 1, poll_ms_for(remaining));
      continue;
    }
    const int err = errno;
    close();
    DDNN_CHECK(false, "connection write failed: " << std::strerror(err));
  }
  out_.clear();
  out_pos_ = 0;
  return true;
}

bool FrameConn::write_frame(const Frame& frame, double timeout_s) {
  queue(frame);
  return flush(timeout_s);
}

bool FrameConn::fill_from_socket(double timeout_s) {
  DDNN_PROF_SCOPE("transport.poll");
  if (fd_ < 0) return false;
  std::uint8_t chunk[64 * 1024];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    if (timeout_s <= 0.0) return false;
    struct pollfd pfd {
      fd_, POLLIN, 0
    };
    if (::poll(&pfd, 1, poll_ms_for(timeout_s)) <= 0) return false;
    n = ::recv(fd_, chunk, sizeof(chunk), 0);
  }
  if (n > 0) {
    in_.insert(in_.end(), chunk, chunk + n);
    return true;
  }
  if (n == 0) {
    close();  // orderly EOF
    return false;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
  const int err = errno;
  close();
  DDNN_CHECK(false, "connection read failed: " << std::strerror(err));
  return false;
}

std::optional<Frame> FrameConn::parse_one() {
  if (in_.size() < kFrameHeaderBytes) return std::nullopt;
  const std::size_t total = frame_size_from_header(in_.data());
  if (in_.size() < total) return std::nullopt;
  Frame frame = decode_frame(in_.data(), total);
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(total));
  return frame;
}

std::optional<Frame> FrameConn::read_frame(double timeout_s) {
  const double deadline = wall_s() + timeout_s;
  while (true) {
    if (auto frame = parse_one()) return frame;
    if (closed()) return std::nullopt;
    const double remaining = deadline - wall_s();
    const bool got_bytes = fill_from_socket(remaining > 0.0 ? remaining : 0.0);
    if (!got_bytes && wall_s() >= deadline) {
      // Last chance: bytes may have landed on the final fill.
      return parse_one();
    }
  }
}

std::optional<Frame> FrameConn::await_reply(std::uint64_t seq,
                                            double timeout_s) {
  const double deadline = wall_s() + timeout_s;
  while (true) {
    const double remaining = deadline - wall_s();
    auto frame = read_frame(remaining > 0.0 ? remaining : 0.0);
    if (frame.has_value()) {
      if (frame->seq == seq) return frame;
      continue;  // late reply to an abandoned or retried request
    }
    if (closed() || wall_s() >= deadline) return std::nullopt;
  }
}

std::vector<Frame> FrameConn::ready_frames() {
  while (fill_from_socket(0.0)) {
  }
  std::vector<Frame> frames;
  while (auto frame = parse_one()) frames.push_back(std::move(*frame));
  return frames;
}

// --------------------------------------------------------------- Listener

Listener::Listener(int port) {
  DDNN_CHECK(port >= 0 && port <= 65535,
             "listen port " << port << " is outside 0-65535");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DDNN_CHECK(fd_ >= 0, "socket(): " << std::strerror(errno));
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  DDNN_CHECK(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
                 0,
             "bind(127.0.0.1:" << port << "): " << std::strerror(errno));
  DDNN_CHECK(::listen(fd_, 16) == 0, "listen(): " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  DDNN_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
                 0,
             "getsockname(): " << std::strerror(errno));
  port_ = static_cast<int>(ntohs(bound.sin_port));
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

std::shared_ptr<FrameConn> Listener::accept(double timeout_s) {
  const double deadline = wall_s() + timeout_s;
  while (true) {
    struct pollfd pfd {
      fd_, POLLIN, 0
    };
    const double remaining = deadline - wall_s();
    if (::poll(&pfd, 1, poll_ms_for(remaining)) > 0) {
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client >= 0) return std::make_shared<FrameConn>(client);
    }
    if (wall_s() >= deadline) return nullptr;
  }
}

std::shared_ptr<FrameConn> connect_to(const std::string& host_port,
                                      double timeout_s) {
  const auto colon = host_port.rfind(':');
  DDNN_CHECK(colon != std::string::npos,
             "address must be host:port, got '" << host_port << "'");
  const std::string host = host_port.substr(0, colon);
  const auto port = parse_int(host_port.substr(colon + 1));
  DDNN_CHECK(port.has_value() && *port >= 1 && *port <= 65535,
             "address '" << host_port << "' needs a port in 1-65535");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(*port));
  DDNN_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "bad IPv4 address '" << host << "'");

  const double deadline = wall_s() + timeout_s;
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DDNN_CHECK(fd >= 0, "socket(): " << std::strerror(errno));
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) return std::make_shared<FrameConn>(fd);
    if (errno == EINPROGRESS) {
      struct pollfd pfd {
        fd, POLLOUT, 0
      };
      const double remaining = deadline - wall_s();
      if (::poll(&pfd, 1, poll_ms_for(remaining)) > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) return std::make_shared<FrameConn>(fd);
      }
    }
    ::close(fd);
    if (wall_s() >= deadline) return nullptr;
    sleep_s(20e-3);  // server may still be coming up; retry until deadline
  }
}

// -------------------------------------------------------- SocketTransport

SocketTransport::SocketTransport(ReliabilityConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

namespace {

/// Control channels ("cloud-ctl", "edge-ctl") carry handshake/decision
/// frames, not Link traffic — they get no link.* columns.
bool is_control_channel(const std::string& name) {
  return name.size() >= 4 && name.compare(name.size() - 4, 4, "-ctl") == 0;
}

}  // namespace

void SocketTransport::attach(const std::string& channel,
                             std::shared_ptr<FrameConn> conn) {
  Channel& ch = channels_[channel];
  ch.conn = std::move(conn);
  ch.down = false;
  register_channel_metrics(channel, ch);
}

bool SocketTransport::channel_down(const std::string& channel) const {
  const Channel* ch = find(channel);
  return ch == nullptr || ch->down || ch->conn == nullptr ||
         ch->conn->closed();
}

bool SocketTransport::peer_down(const std::string& channel) const {
  if (channel_down(channel)) return true;
  const FrameConn* conn = find(channel)->conn.get();
  return std::any_of(channels_.begin(), channels_.end(), [&](const auto& c) {
    return c.second.conn.get() == conn && c.second.down;
  });
}

SocketTransport::Channel* SocketTransport::find(const std::string& channel) {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : &it->second;
}

const SocketTransport::Channel* SocketTransport::find(
    const std::string& channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : &it->second;
}

void SocketTransport::bind_metrics(obs::MetricsRegistry* reg) {
  metrics_ = reg;
  if (reg == nullptr) {
    breaker_trips_ = nullptr;
    channels_down_ = nullptr;
    for (auto& [name, ch] : channels_) ch.metrics = LinkCounters{};
    return;
  }
  breaker_trips_ = &reg->counter("transport.breaker_trips");
  channels_down_ = &reg->gauge("transport.channels_down");
  for (auto& [name, ch] : channels_) register_channel_metrics(name, ch);
}

void SocketTransport::register_channel_metrics(const std::string& name,
                                               Channel& ch) {
  if (metrics_ == nullptr || is_control_channel(name)) return;
  ch.metrics = LinkCounters::bind(*metrics_, name);
}

void SocketTransport::mark_down(Channel& ch) {
  if (ch.down) return;
  ch.down = true;
  if (metrics_ == nullptr) return;
  std::int64_t down = 0;
  for (const auto& [name, c] : channels_) down += c.down ? 1 : 0;
  breaker_trips_->add(1);
  channels_down_->set(static_cast<double>(down));
}

void SocketTransport::send_batch(const std::vector<BatchItem>& items,
                                 std::vector<SendResult>& results) {
  results.assign(items.size(), SendResult{});
  std::vector<Frame> frames(items.size());
  std::vector<Channel*> routed(items.size(), nullptr);
  std::set<FrameConn*> touched;

  // Phase 1: queue every frame, then flush each connection exactly once —
  // the whole uplink burst leaves in one buffered write per socket.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    Channel* ch = find(item.link->name());
    const bool usable = ch != nullptr && ch->conn != nullptr &&
                        !ch->conn->closed() && !ch->down;
    if (!usable) {
      item.link->record_drop(*item.msg);
      results[i] = SendResult{false, 1, 1, 0.0};
      if (ch != nullptr) ch->metrics.book(results[i], 0);
      continue;
    }
    frames[i] =
        make_message_frame(*item.msg, item.sample, item.branch, item.trace);
    frames[i].seq = next_seq_++;
    ch->conn->queue(frames[i]);
    routed[i] = ch;
    touched.insert(ch->conn.get());
  }
  for (FrameConn* conn : touched) {
    try {
      conn->flush(config_.timeout_s);
    } catch (const ddnn::Error&) {
      // Connection died mid-flush; the per-item ack wait below will see the
      // closed fd and report the failure with proper accounting.
    }
  }

  // Phase 2: collect the pipelined acks in send order; a timed-out item
  // falls back to the per-frame retry ladder.
  for (std::size_t i = 0; i < items.size(); ++i) {
    Channel* ch = routed[i];
    if (ch == nullptr) continue;
    const BatchItem& item = items[i];
    const double start = wall_s();
    SendResult res;
    res.attempts = 1;
    bool delivered = false;
    try {
      const auto acked = [&] {
        return ch->conn->await_reply(frames[i].seq, config_.timeout_s)
            .has_value();
      };
      delivered = acked();
      while (!delivered && res.attempts <= config_.max_retries) {
        item.link->record_drop(*item.msg);
        res.dropped_attempts += 1;
        sleep_s(retry_backoff_s(res.attempts - 1));
        res.attempts += 1;
        if (ch->conn->closed()) break;
        if (!ch->conn->write_frame(frames[i], config_.timeout_s)) continue;
        delivered = acked();
      }
    } catch (const ddnn::Error&) {
      delivered = false;  // reset or protocol error mid-wait
    }
    if (delivered) {
      item.link->transmit(*item.msg);  // delivered-byte accounting only
    } else {
      item.link->record_drop(*item.msg);
      res.dropped_attempts += 1;
      mark_down(*ch);
    }
    res.delivered = delivered;
    res.latency_s = wall_s() - start;
    ch->metrics.book(res, item.msg->payload_bytes());
    results[i] = res;
  }
}

bool SocketTransport::post(const std::string& channel, const Frame& frame) {
  Channel* ch = find(channel);
  if (ch == nullptr || ch->conn == nullptr || ch->conn->closed() ||
      ch->down) {
    return false;
  }
  Frame out = frame;
  if (out.seq == 0) out.seq = next_seq_++;
  try {
    return ch->conn->write_frame(out, config_.timeout_s);
  } catch (const ddnn::Error&) {
    mark_down(*ch);
    return false;
  }
}

std::optional<Frame> SocketTransport::request(const std::string& channel,
                                              const Frame& frame,
                                              double timeout_s) {
  Frame out = frame;
  out.seq = next_seq_++;
  if (!post(channel, out)) return std::nullopt;
  Channel* ch = find(channel);
  try {
    return ch->conn->await_reply(out.seq, timeout_s);
  } catch (const ddnn::Error&) {
    mark_down(*ch);
    return std::nullopt;
  }
}

}  // namespace ddnn::dist
