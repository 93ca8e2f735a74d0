// Receiver-side parser for one GridFTP data stream.
//
// A data stream interleaves real bytes (block headers) with synthetic
// payload runs; this state machine reassembles that framing for both the
// server (STOR) and the client (RETR). It also tracks exactly which byte
// ranges have arrived, which is what makes *restartable* transfers
// possible: after a failure the unreceived ranges are re-requested.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "gridftp/protocol.h"

namespace gdmp::gridftp {

class BlockStreamParser {
 public:
  /// A block header was fully received (payload follows).
  std::function<void(const BlockHeader&)> on_block_begin;
  /// Payload progress within the current block (fresh bytes).
  std::function<void(const BlockHeader&, Bytes fresh)> on_payload;
  /// The current block's payload completed.
  std::function<void(const BlockHeader&)> on_block_end;
  /// End-of-data marker received; the stream is done.
  std::function<void()> on_eod;
  /// Framing violation (real bytes inside payload, truncated header, ...).
  std::function<void(const Status&)> on_error;

  /// Feeds real bytes from the TCP stream.
  void feed_data(std::span<const std::uint8_t> data);
  /// Feeds synthetic byte counts from the TCP stream.
  void feed_synthetic(Bytes n);

  Bytes payload_remaining() const noexcept { return remaining_; }

 private:
  void fail(const std::string& message);

  enum class State { kHeader, kPayload, kDone, kFailed };
  State state_ = State::kHeader;
  std::vector<std::uint8_t> header_buffer_;
  BlockHeader current_;
  Bytes remaining_ = 0;
};

/// Sorted, coalesced set of received byte ranges; computes the complement
/// against a requested range for restart.
class RangeSet {
 public:
  void add(Bytes offset, Bytes length);

  Bytes total_bytes() const noexcept;
  bool covers(Bytes offset, Bytes length) const noexcept;

  /// Subranges of [offset, offset+length) not yet present.
  std::vector<ByteRange> missing_within(Bytes offset, Bytes length) const;

  const std::vector<ByteRange>& ranges() const noexcept { return ranges_; }
  bool empty() const noexcept { return ranges_.empty(); }

 private:
  std::vector<ByteRange> ranges_;  // sorted, disjoint, coalesced
};

}  // namespace gdmp::gridftp
