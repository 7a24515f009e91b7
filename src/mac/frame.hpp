// Link-layer frame format (802.15.4-flavoured).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace fourbit::mac {

enum class FrameType : std::uint8_t {
  kData = 0,  // unicast or broadcast MPDU carrying an upper-layer payload
  kAck = 1,   // synchronous acknowledgment (no payload)
};

/// Decoded MAC frame. On the air this is
///   type(1) dsn(1) src(2) dst(2) payload(n) fcs(2)   for kData
///   type(1) dsn(1) dst(2) fcs(2)                     for kAck
/// The FCS is CRC-16/CCITT over everything before it, as in 802.15.4;
/// decode() rejects frames whose check fails.
struct MacFrame {
  FrameType type = FrameType::kData;
  std::uint8_t dsn = 0;  // data sequence number, matched by acks
  NodeId src;
  NodeId dst;
  std::vector<std::uint8_t> payload;

  static constexpr std::size_t kDataHeaderBytes = 6;
  static constexpr std::size_t kFcsBytes = 2;
  static constexpr std::size_t kAckFrameBytes = 4 + kFcsBytes;

  [[nodiscard]] bool is_broadcast() const { return dst == kBroadcastId; }

  /// Appends the encoded frame, FCS included, to `out`. The FCS covers
  /// only this frame's bytes, not what `out` held before. The MAC keeps
  /// one encode buffer per stack, clears it and re-encodes into it for
  /// every transmission; with Radio::transmit copying into the channel's
  /// arena-pooled frame buffer, the steady-state tx path does not touch
  /// the heap.
  void append_to(std::vector<std::uint8_t>& out) const;

  /// The encoded frame as a vector of its own (tests, benches).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Returns nullopt for truncated or unknown frames.
  [[nodiscard]] static std::optional<MacFrame> decode(
      std::span<const std::uint8_t> bytes);
};

/// Zero-copy decode of a received frame: header fields by value, payload
/// as a span into the caller's buffer. This is the receive-path type —
/// the channel delivers a span of the in-flight frame with its FCS
/// verdict, the MAC parses headers in place, and upper layers see the
/// payload span without a single copy. The span is only valid for the
/// duration of the delivery call, and so is every view an upper layer
/// cuts from it: the estimator's unwrapped routing payload and the data
/// packet's app payload. A consumer that keeps the bytes (the
/// forwarding queue) must copy them (DESIGN.md §8.25).
struct MacFrameView {
  FrameType type = FrameType::kData;
  std::uint8_t dsn = 0;
  NodeId src;
  NodeId dst;
  std::span<const std::uint8_t> payload;

  [[nodiscard]] bool is_broadcast() const { return dst == kBroadcastId; }

  /// Validates the FCS and parses in place. Returns nullopt for
  /// truncated, corrupt or unknown frames.
  [[nodiscard]] static std::optional<MacFrameView> decode(
      std::span<const std::uint8_t> bytes);

  /// decode() without the FCS check, for bytes whose FCS is already
  /// known good (the channel's RxInfo::crc_ok). Returns nullopt for
  /// truncated or unknown frames.
  [[nodiscard]] static std::optional<MacFrameView> parse(
      std::span<const std::uint8_t> bytes);

  /// Deep copy, for consumers that outlive the delivery call.
  [[nodiscard]] MacFrame to_owned() const;
};

}  // namespace fourbit::mac
