#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <type_traits>

namespace retina::serve {

namespace {

// --- little-endian append/read helpers -------------------------------------

void AppendU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Bounds-checked forward cursor over a payload; every read fails softly
/// so decoders can surface truncation as a Status.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  /// Reads one little-endian unsigned integer; its width is the width of
  /// the variable it lands in.
  template <typename T>
  bool Read(T* v) {
    static_assert(std::is_unsigned_v<T>);
    if (pos_ + sizeof(T) > data_.size()) return false;
    uint64_t value = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      value |= uint64_t{static_cast<uint8_t>(data_[pos_++])} << (8 * i);
    }
    *v = static_cast<T>(value);
    return true;
  }
  bool ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size() || pos_ + n < pos_) return false;
    out->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

void AppendHeader(std::string* out, MessageType type) {
  AppendU32(out, kProtocolMagic);
  AppendU16(out, kProtocolVersion);
  out->push_back(static_cast<char>(type));
  out->push_back(0);  // reserved
}

Status Corrupt(const std::string& what) {
  return Status::IOError("corrupt serve frame: " + what);
}

/// Validates the fixed header (magic, exact version, reserved byte, a
/// known type) and returns the message type.
Result<MessageType> ParseHeader(Cursor* cur) {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t type = 0, reserved = 0;
  if (!cur->Read(&magic) || !cur->Read(&version) || !cur->Read(&type) ||
      !cur->Read(&reserved)) {
    return Corrupt("truncated header");
  }
  if (magic != kProtocolMagic) return Corrupt("bad magic");
  if (version != kProtocolVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  if (reserved != 0) return Corrupt("nonzero reserved byte");
  switch (static_cast<MessageType>(type)) {
    case MessageType::kScoreRequest:
    case MessageType::kScoreResponse:
    case MessageType::kMetricsRequest:
    case MessageType::kMetricsResponse:
      return static_cast<MessageType>(type);
  }
  return Corrupt("unknown message type " + std::to_string(type));
}

/// ParseHeader plus a check that the type is the one the caller decodes.
Status ConsumeHeader(Cursor* cur, MessageType want) {
  const Result<MessageType> type = ParseHeader(cur);
  RETINA_RETURN_NOT_OK(type.status());
  if (type.ValueOrDie() != want) {
    return Corrupt("unexpected message type " +
                   std::to_string(static_cast<int>(type.ValueOrDie())));
  }
  return Status::OK();
}

Status ExpectEnd(const Cursor& cur) {
  if (!cur.AtEnd()) {
    return Corrupt(std::to_string(cur.remaining()) + " trailing bytes");
  }
  return Status::OK();
}

// --- kMetricsResponse sections ---------------------------------------------
//
// Each section is u32 n | n x (u32 key_len | key | value), keys unique and
// sorted (the std::map order).

template <typename Map, typename AppendValue>
void AppendSection(std::string* out, const Map& section,
                   AppendValue append_value) {
  AppendU32(out, static_cast<uint32_t>(section.size()));
  for (const auto& [key, value] : section) {
    AppendU32(out, static_cast<uint32_t>(key.size()));
    out->append(key);
    append_value(out, value);
  }
}

void AppendHistogram(std::string* out, const obs::HistogramSnapshot& h) {
  AppendU64(out, h.count);
  AppendU64(out, h.sum);
  AppendU64(out, h.p50);
  AppendU64(out, h.p95);
  AppendU64(out, h.p99);
}

template <typename Map, typename ReadValue>
Status ReadSection(Cursor* cur, const std::string& what, Map* section,
                   ReadValue read_value) {
  uint32_t n = 0;
  if (!cur->Read(&n)) return Corrupt("truncated metrics " + what + "s");
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key_len = 0;
    std::string key;
    typename Map::mapped_type value{};
    if (!cur->Read(&key_len) || !cur->ReadBytes(key_len, &key) ||
        !read_value(cur, &value)) {
      return Corrupt("truncated metrics " + what + " entry");
    }
    if (!section->emplace(std::move(key), value).second) {
      return Corrupt("duplicate metrics " + what + " key");
    }
  }
  return Status::OK();
}

bool ReadHistogram(Cursor* cur, obs::HistogramSnapshot* h) {
  return cur->Read(&h->count) && cur->Read(&h->sum) && cur->Read(&h->p50) &&
         cur->Read(&h->p95) && cur->Read(&h->p99);
}

}  // namespace

Result<MessageType> PeekMessageType(std::string_view payload) {
  Cursor cur(payload);
  return ParseHeader(&cur);
}

std::string EncodeScoreRequest(const ScoreRequest& req) {
  std::string out;
  out.reserve(kPayloadHeaderBytes + 36 + 4 * req.users.size());
  AppendHeader(&out, MessageType::kScoreRequest);
  AppendU64(&out, req.request_id);
  AppendU64(&out, req.tweet_id);
  AppendU32(&out, static_cast<uint32_t>(req.users.size()));
  for (uint32_t u : req.users) AppendU32(&out, u);
  AppendU64(&out, req.trace_id);
  AppendU64(&out, req.span_id);
  return out;
}

std::string EncodeScoreResponse(const ScoreResponse& resp) {
  std::string out;
  AppendHeader(&out, MessageType::kScoreResponse);
  AppendU64(&out, resp.request_id);
  out.push_back(static_cast<char>(resp.code));
  if (resp.code == ResponseCode::kOk) {
    AppendU32(&out, static_cast<uint32_t>(resp.scores.size()));
    for (double s : resp.scores) AppendU64(&out, std::bit_cast<uint64_t>(s));
  } else {
    AppendU32(&out, static_cast<uint32_t>(resp.message.size()));
    out.append(resp.message);
  }
  return out;
}

Status DecodeScoreRequest(std::string_view payload, ScoreRequest* out) {
  Cursor cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kScoreRequest));
  uint32_t n = 0;
  if (!cur.Read(&out->request_id) || !cur.Read(&out->tweet_id) ||
      !cur.Read(&n)) {
    return Corrupt("truncated score request");
  }
  // The size check runs in 64 bits: 4 * n wraps a u32 for n >= 2^30, and a
  // wrapped check would let a tiny frame request a multi-GiB resize.
  if (cur.remaining() != uint64_t{4} * n + 16) {  // users + trace tail
    return Corrupt("score request user count disagrees with body size");
  }
  out->users.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!cur.Read(&out->users[i])) return Corrupt("truncated user list");
  }
  if (!cur.Read(&out->trace_id) || !cur.Read(&out->span_id)) {
    return Corrupt("truncated score request trace context");
  }
  return ExpectEnd(cur);
}

Status DecodeScoreResponse(std::string_view payload, ScoreResponse* out) {
  Cursor cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kScoreResponse));
  uint8_t code = 0;
  if (!cur.Read(&out->request_id) || !cur.Read(&code)) {
    return Corrupt("truncated score response");
  }
  if (code > static_cast<uint8_t>(ResponseCode::kError)) {
    return Corrupt("unknown response code " + std::to_string(code));
  }
  out->code = static_cast<ResponseCode>(code);
  out->scores.clear();
  out->message.clear();
  uint32_t n = 0;
  if (!cur.Read(&n)) return Corrupt("truncated score response");
  if (out->code == ResponseCode::kOk) {
    if (cur.remaining() != uint64_t{8} * n) {  // 64-bit: 8 * n wraps a u32
      return Corrupt("score count disagrees with body size");
    }
    out->scores.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t bits = 0;
      if (!cur.Read(&bits)) return Corrupt("truncated score list");
      out->scores[i] = std::bit_cast<double>(bits);
    }
  } else {
    if (!cur.ReadBytes(n, &out->message)) {
      return Corrupt("truncated response message");
    }
  }
  return ExpectEnd(cur);
}

std::string EncodeMetricsRequest(const MetricsRequest& req) {
  std::string out;
  AppendHeader(&out, MessageType::kMetricsRequest);
  AppendU64(&out, req.request_id);
  return out;
}

std::string EncodeMetricsResponse(const MetricsResponse& resp) {
  std::string out;
  AppendHeader(&out, MessageType::kMetricsResponse);
  AppendU64(&out, resp.request_id);
  const obs::RegistrySnapshot& snap = resp.snapshot;
  AppendSection(&out, snap.counters,
                [](std::string* o, uint64_t v) { AppendU64(o, v); });
  AppendSection(&out, snap.gauges, [](std::string* o, int64_t v) {
    AppendU64(o, static_cast<uint64_t>(v));  // two's complement
  });
  AppendSection(&out, snap.histograms, AppendHistogram);
  AppendSection(&out, snap.windows,
                [](std::string* o, const obs::WindowSnapshot& w) {
                  AppendU64(o, w.ticks);
                  AppendU64(o, w.slots);
                  AppendHistogram(o, w.window);
                });
  return out;
}

Status DecodeMetricsRequest(std::string_view payload, MetricsRequest* out) {
  Cursor cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kMetricsRequest));
  if (!cur.Read(&out->request_id)) {
    return Corrupt("truncated metrics request");
  }
  return ExpectEnd(cur);
}

Status DecodeMetricsResponse(std::string_view payload, MetricsResponse* out) {
  Cursor cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kMetricsResponse));
  if (!cur.Read(&out->request_id)) {
    return Corrupt("truncated metrics response");
  }
  obs::RegistrySnapshot& snap = out->snapshot;
  snap = obs::RegistrySnapshot();
  RETINA_RETURN_NOT_OK(ReadSection(
      &cur, "counter", &snap.counters,
      [](Cursor* c, uint64_t* v) { return c->Read(v); }));
  RETINA_RETURN_NOT_OK(
      ReadSection(&cur, "gauge", &snap.gauges, [](Cursor* c, int64_t* v) {
        uint64_t bits = 0;
        if (!c->Read(&bits)) return false;
        *v = static_cast<int64_t>(bits);
        return true;
      }));
  RETINA_RETURN_NOT_OK(
      ReadSection(&cur, "histogram", &snap.histograms, ReadHistogram));
  RETINA_RETURN_NOT_OK(ReadSection(
      &cur, "window", &snap.windows, [](Cursor* c, obs::WindowSnapshot* w) {
        return c->Read(&w->ticks) && c->Read(&w->slots) &&
               ReadHistogram(c, &w->window);
      }));
  return ExpectEnd(cur);
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("frame payload size out of range: " +
                                   std::to_string(payload.size()));
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

/// Reads exactly `n` bytes. `*got` reports the byte count actually read
/// when the peer closed early (so callers can tell a clean EOF from a
/// mid-frame one).
Status ReadExact(int fd, char* buf, size_t n, size_t* got) {
  *got = 0;
  while (*got < n) {
    const ssize_t r = ::recv(fd, buf + *got, n - *got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) return Status::OK();  // EOF; caller inspects *got
    *got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, bool* eof) {
  payload->clear();
  *eof = false;
  char len_buf[4];
  size_t got = 0;
  RETINA_RETURN_NOT_OK(ReadExact(fd, len_buf, sizeof(len_buf), &got));
  if (got == 0) {
    *eof = true;  // clean close at a frame boundary
    return Status::OK();
  }
  if (got < sizeof(len_buf)) return Corrupt("EOF inside frame length");
  uint32_t len = 0;
  Cursor(std::string_view(len_buf, sizeof(len_buf))).Read(&len);
  if (len == 0 || len > kMaxFramePayloadBytes) {
    return Corrupt("frame length " + std::to_string(len) + " out of range");
  }
  payload->resize(len);
  RETINA_RETURN_NOT_OK(ReadExact(fd, payload->data(), len, &got));
  if (got < len) return Corrupt("EOF inside frame payload");
  return Status::OK();
}

}  // namespace retina::serve
