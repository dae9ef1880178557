#include "src/fleet/wire.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/support/crc32.h"
#include "src/support/eintr.h"
#include "src/support/strings.h"

namespace ddt {
namespace fleet {
namespace {

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendStr(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

// Bounds-checked little-endian reader (the wire twin of the shared cache's
// file reader). Any overrun poisons it; callers check ok at the end, so a
// truncated body decodes to false rather than garbage.
struct BodyReader {
  const char* p;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  bool Take(void* out, size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    std::memcpy(out, p + pos, n);
    pos += n;
    return true;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  uint32_t U32() {
    unsigned char b[4] = {0, 0, 0, 0};
    Take(b, 4);
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) | (static_cast<uint32_t>(b[3]) << 24);
  }
  uint64_t U64() {
    unsigned char b[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    Take(b, 8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | b[i];
    }
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!ok || size - pos < n) {
      ok = false;
      return std::string();
    }
    std::string s(p + pos, n);
    pos += n;
    return s;
  }
  bool Done() const { return ok && pos == size; }
};

uint32_t ReadU32At(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) | (static_cast<uint32_t>(b[3]) << 24);
}

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kBye);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size());
  payload.push_back(static_cast<char>(type));
  payload.append(body.data(), body.size());
  std::string frame;
  frame.reserve(8 + payload.size());
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  AppendU32(&frame, Crc32(payload));
  frame += payload;
  return frame;
}

void FrameDecoder::Feed(const char* data, size_t size) { buf_.append(data, size); }

FrameDecoder::Next FrameDecoder::Pop(Frame* out) {
  if (corrupt_) {
    return Next::kCorrupt;
  }
  if (buf_.size() - pos_ < 8) {
    return Next::kNeedMore;
  }
  uint32_t len = ReadU32At(buf_.data() + pos_);
  uint32_t crc = ReadU32At(buf_.data() + pos_ + 4);
  if (len == 0 || len > kMaxFrameBytes) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  if (buf_.size() - pos_ - 8 < len) {
    return Next::kNeedMore;
  }
  const char* payload = buf_.data() + pos_ + 8;
  if (Crc32(payload, len) != crc || !ValidFrameType(static_cast<uint8_t>(payload[0]))) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  out->type = static_cast<FrameType>(payload[0]);
  out->body.assign(payload + 1, len - 1);
  pos_ += 8 + len;
  if (pos_ > (1u << 20) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Next::kFrame;
}

Status WriteFrame(int fd, FrameType type, std::string_view body) {
  std::string frame = EncodeFrame(type, body);
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = RetryOnEintr(
        [&] { return ::write(fd, frame.data() + written, frame.size() - written); });
    if (n < 0) {
      return Status::Error(StrFormat("fleet pipe write failed: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<Frame> ReadFrame(int fd) {
  FrameDecoder decoder;
  Frame frame;
  char chunk[4096];
  for (;;) {
    FrameDecoder::Next next = decoder.Pop(&frame);
    if (next == FrameDecoder::Next::kFrame) {
      return frame;
    }
    if (next == FrameDecoder::Next::kCorrupt) {
      return Status::Error("fleet pipe frame corrupt");
    }
    ssize_t n = RetryOnEintr([&] { return ::read(fd, chunk, sizeof(chunk)); });
    if (n < 0) {
      return Status::Error(StrFormat("fleet pipe read failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Error("fleet pipe closed");
    }
    decoder.Feed(chunk, static_cast<size_t>(n));
  }
}

std::string EncodeHello(const HelloBody& hello) {
  std::string body;
  AppendU64(&body, hello.fingerprint);
  AppendU64(&body, hello.pid);
  return body;
}

bool DecodeHello(std::string_view body, HelloBody* hello) {
  BodyReader r{body.data(), body.size()};
  hello->fingerprint = r.U64();
  hello->pid = r.U64();
  return r.Done();
}

std::string EncodeLease(const LeaseBody& lease) {
  std::string body;
  AppendU64(&body, lease.index);
  AppendStr(&body, lease.plan.label);
  AppendU32(&body, static_cast<uint32_t>(lease.plan.points.size()));
  for (const FaultPoint& point : lease.plan.points) {
    AppendU32(&body, static_cast<uint32_t>(point.cls));
    AppendU32(&body, point.occurrence);
  }
  AppendU32(&body, static_cast<uint32_t>(lease.plan.hw_points.size()));
  for (const HwFaultPoint& point : lease.plan.hw_points) {
    AppendU32(&body, static_cast<uint32_t>(point.kind));
    AppendU32(&body, point.index);
  }
  return body;
}

bool DecodeLease(std::string_view body, LeaseBody* lease) {
  BodyReader r{body.data(), body.size()};
  lease->index = r.U64();
  lease->plan.label = r.Str();
  uint32_t count = r.U32();
  if (!r.ok || count > kMaxFrameBytes / 8) {
    return false;
  }
  lease->plan.points.clear();
  lease->plan.points.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t cls = r.U32();
    uint32_t occurrence = r.U32();
    if (!r.ok || cls >= kNumFaultClasses) {
      return false;
    }
    lease->plan.points.push_back(FaultPoint{static_cast<FaultClass>(cls), occurrence});
  }
  uint32_t hw_count = r.U32();
  if (!r.ok || hw_count > kMaxFrameBytes / 8) {
    return false;
  }
  lease->plan.hw_points.clear();
  lease->plan.hw_points.reserve(hw_count);
  for (uint32_t i = 0; i < hw_count; ++i) {
    uint32_t kind = r.U32();
    uint32_t index = r.U32();
    if (!r.ok || kind >= kNumHwFaultKinds) {
      return false;
    }
    lease->plan.hw_points.push_back(HwFaultPoint{static_cast<HwFaultKind>(kind), index});
  }
  return r.Done();
}

std::string EncodeHeartbeat(uint64_t seq) {
  std::string body;
  AppendU64(&body, seq);
  return body;
}

bool DecodeHeartbeat(std::string_view body, uint64_t* seq) {
  BodyReader r{body.data(), body.size()};
  *seq = r.U64();
  return r.Done();
}

std::string EncodeBye(const ByeBody& bye) {
  std::string body;
  body.push_back(static_cast<char>(bye.code));
  AppendStr(&body, bye.detail);
  return body;
}

bool DecodeBye(std::string_view body, ByeBody* bye) {
  BodyReader r{body.data(), body.size()};
  bye->code = r.U8();
  bye->detail = r.Str();
  return r.Done();
}

}  // namespace fleet
}  // namespace ddt
