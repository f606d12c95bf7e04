// Wire format of the "shm" transport's ring frames, and the check every
// frame passes before any of its payload bytes are written anywhere.
// Internal to src/net: shm.cpp is the only user outside the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace soi::net::shm_frame {

/// Largest payload one frame carries; larger messages are fragmented.
constexpr std::size_t kMaxFragPayload = std::size_t{60} << 10;

/// One on-wire fragment. A message larger than kMaxFragPayload travels as
/// several frames sharing (src, seq); the CRC covers the REASSEMBLED
/// payload and is carried redundantly in every fragment.
struct FrameHeader {
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint64_t seq = 0;         ///< per (src -> dst) message sequence
  std::uint64_t msg_bytes = 0;   ///< total payload of the whole message
  std::uint64_t frag_offset = 0; ///< where this fragment lands
  std::uint32_t frag_bytes = 0;  ///< payload bytes in this frame
  std::uint32_t crc = 0;
  std::uint32_t has_crc = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(FrameHeader) == 48, "frame header layout is part of the wire format");

/// Reassembly progress of the message one source is delivering. A rank
/// sends one message at a time and a ring keeps each sender's order, so
/// the fragments of a message arrive back to back from their source and
/// one cursor per source is enough.
struct FragCursor {
  bool open = false;             ///< a message from this source is partial
  std::uint64_t seq = 0;
  std::uint64_t msg_bytes = 0;
  std::uint64_t received = 0;    ///< bytes of it landed so far
};

/// Why `h` is not a well-formed next frame for a receiver whose per-source
/// cursors are `cursors` (one per rank), or nullptr when it is: `src` in
/// range, `frag_bytes` within kMaxFragPayload and nonzero unless the
/// message is empty, the fragment inside [0, msg_bytes), and — while a
/// message from `src` is open — the same seq and msg_bytes with
/// `frag_offset` continuing where the last fragment ended. A pure function
/// of its arguments.
[[nodiscard]] const char* validate_frame(const FrameHeader& h,
                                         std::span<const FragCursor> cursors);

}  // namespace soi::net::shm_frame
