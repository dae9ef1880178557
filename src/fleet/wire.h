// Fleet wire protocol: length-prefixed, CRC-protected frames over local pipes.
//
// The coordinator and its worker processes speak a deliberately tiny binary
// protocol — five frame types, fixed little-endian integers, length-prefixed
// strings — over the pipe pair each worker was spawned with:
//
//   frame := [u32 len][u32 crc][u8 type][body]      (len = 1 + body size,
//                                                    crc = CRC-32 over type+body)
//
//   worker -> coordinator:  HELLO(fingerprint, pid)  once, first
//                           HEARTBEAT(seq)           periodic liveness
//                           RESULT(record payload)   one per completed lease
//                           BYE(code, detail)        drained; detail names the
//                                                    worker's cache-delta file
//   coordinator -> worker:  LEASE(index, plan)       execute this pass
//                           BYE(code, detail)        drain and exit (code 0) or
//                                                    rejected at HELLO (code 1)
//
// Campaign passes are the only work the protocol carries (the fuzz loop's
// concrete executions run on the campaign's thread pool).
//
// The CRC (src/support/crc32.h — the same function that seals journal lines
// and cache files) is not paranoia about pipe corruption; it is what lets the
// coordinator treat *any* malformed byte stream from a dying or misbehaving
// worker as a worker loss rather than undefined behavior. A frame that fails
// its CRC, exceeds the size cap, or truncates at EOF marks the connection
// corrupt, and the coordinator's only response to a corrupt connection is the
// same as to a dead one: kill, salvage the shard journal, reassign.
//
// RESULT bodies are EncodeCampaignPassRecord payloads verbatim — the exact
// bytes the worker also appended to its shard journal — so a pass result
// received over the pipe, salvaged from a dead worker's journal, or restored
// from the coordinator's main journal is the same record byte-for-byte.
#ifndef SRC_FLEET_WIRE_H_
#define SRC_FLEET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/engine/fault_injection.h"
#include "src/support/status.h"

namespace ddt {
namespace fleet {

enum class FrameType : uint8_t {
  kHello = 1,
  kLease = 2,
  kHeartbeat = 3,
  kResult = 4,
  kBye = 5,
};

// Caps a frame at far more than any record needs; a length prefix beyond it
// means the stream is garbage, not that a bigger buffer is needed.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

struct Frame {
  FrameType type = FrameType::kHello;
  std::string body;
};

std::string EncodeFrame(FrameType type, std::string_view body);

// Incremental decoder for the coordinator's poll loop: feed whatever bytes
// read() delivered, pop complete frames. Once a frame fails validation the
// decoder stays corrupt — there is no way to resynchronize a byte stream.
class FrameDecoder {
 public:
  enum class Next {
    kFrame,     // *out filled
    kNeedMore,  // no complete frame buffered yet
    kCorrupt,   // bad length or CRC; connection is unusable
  };

  void Feed(const char* data, size_t size);
  Next Pop(Frame* out);

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool corrupt_ = false;
};

// Blocking single-frame I/O for the worker side (and tests). WriteFrame
// retries short writes and EINTR; callers serialize concurrent writers (the
// worker's heartbeat thread and lease loop share one mutex). ReadFrame
// returns an error on EOF, I/O failure, or a corrupt frame.
Status WriteFrame(int fd, FrameType type, std::string_view body);
Result<Frame> ReadFrame(int fd);

// --- Body codecs -----------------------------------------------------------

struct HelloBody {
  uint64_t fingerprint = 0;  // CampaignFingerprint(config, image)
  uint64_t pid = 0;
};
std::string EncodeHello(const HelloBody& hello);
bool DecodeHello(std::string_view body, HelloBody* hello);

struct LeaseBody {
  uint64_t index = 0;  // pass index; 0 = baseline (plan empty)
  FaultPlan plan;
};
std::string EncodeLease(const LeaseBody& lease);
bool DecodeLease(std::string_view body, LeaseBody* lease);

std::string EncodeHeartbeat(uint64_t seq);
bool DecodeHeartbeat(std::string_view body, uint64_t* seq);

// RESULT: the body is an EncodeCampaignPassRecord payload, no extra framing.

struct ByeBody {
  // coordinator -> worker: 0 = drained (work done), 1 = rejected at HELLO.
  // worker -> coordinator: always 0; detail names the cache-delta file ("" if
  // the shared cache is off).
  uint8_t code = 0;
  std::string detail;
};
constexpr uint8_t kByeDrain = 0;
constexpr uint8_t kByeRejected = 1;
std::string EncodeBye(const ByeBody& bye);
bool DecodeBye(std::string_view body, ByeBody* bye);

}  // namespace fleet
}  // namespace ddt

#endif  // SRC_FLEET_WIRE_H_
