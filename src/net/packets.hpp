// Network-layer wire formats for the collection protocols.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace fourbit::net {

/// Path costs travel as fixed-point ETX (1/16 resolution), matching the
/// precision real CTP uses.
[[nodiscard]] constexpr std::uint16_t quantize_etx(double etx) {
  const double clamped = etx < 0.0 ? 0.0 : (etx > 4095.0 ? 4095.0 : etx);
  return static_cast<std::uint16_t>(clamped * 16.0 + 0.5);
}
[[nodiscard]] constexpr double dequantize_etx(std::uint16_t q) {
  return static_cast<double>(q) / 16.0;
}

/// Routing beacon payload (inside the estimator's layer-2.5 wrapping):
///   flags(1) parent(2) path_etx(2)
/// `pull` is CTP's P bit: the sender has no (or a stale) route and asks
/// neighbors to reset their beacon timers so routing state spreads fast.
/// Without it, a post-collapse network would have to wait out full
/// Trickle intervals (minutes) to re-form a tree.
struct RoutingBeacon {
  NodeId parent;
  double path_etx = 0.0;
  bool pull = false;

  static constexpr std::size_t kBytes = 5;

  /// Appends the kBytes-byte encoding to `out`.
  void append_to(std::vector<std::uint8_t>& out) const;

  /// The encoding as a vector of its own (tests, benches).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<RoutingBeacon> decode(
      std::span<const std::uint8_t> bytes);
};

/// Data-packet network header:
///   origin(2) seq(2) thl(1) sender_path_etx(2)
/// `sender_path_etx` is the transmitter's current route cost, used by the
/// next hop for datapath loop detection (a receiver with an equal-or-
/// higher advertised cost signals routing inconsistency).
struct DataHeader {
  NodeId origin;
  std::uint16_t seq = 0;
  std::uint8_t thl = 0;  // time-has-lived (hops so far)
  double sender_path_etx = 0.0;

  static constexpr std::size_t kBytes = 7;

  /// Appends the header and then `app_payload` to `out`.
  /// `app_payload` must not alias `out`.
  void append_to(std::vector<std::uint8_t>& out,
                 std::span<const std::uint8_t> app_payload) const;

  /// The packet as a vector of its own (tests, benches).
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> app_payload) const;
};

/// Parse of a data packet: the payload stays a span into the caller's
/// buffer (valid only for the current delivery call). The receive path
/// uses this so snoops, duplicates and drops never copy the payload;
/// only a packet that actually enters the forwarding queue gets its
/// bytes owned.
struct DataView {
  DataHeader header;
  std::span<const std::uint8_t> app_payload;
};

[[nodiscard]] std::optional<DataView> decode_data_view(
    std::span<const std::uint8_t> bytes);

}  // namespace fourbit::net
