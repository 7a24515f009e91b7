// CRC-16/CCITT (the 802.15.4 frame check sequence).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace fourbit {

namespace detail {

using Crc16Table = std::array<std::uint16_t, 256>;

/// Lookup tables for polynomial 0x1021, built at compile time (1 KB).
/// tables[0][i] is the register after shifting byte i through eight
/// zero-fill steps; tables[1][i] is that value advanced by one more zero
/// byte, so two input bytes fold into the register with two independent
/// lookups instead of two dependent ones.
[[nodiscard]] constexpr std::array<Crc16Table, 2> make_crc16_tables() {
  std::array<Crc16Table, 2> tables{};
  for (unsigned i = 0; i < 256; ++i) {
    auto crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc & 0x8000) ? (crc << 1) ^ 0x1021
                                                      : crc << 1);
    }
    tables[0][i] = crc;
  }
  for (unsigned i = 0; i < 256; ++i) {
    const std::uint16_t once = tables[0][i];
    tables[1][i] =
        static_cast<std::uint16_t>((once << 8) ^ tables[0][once >> 8]);
  }
  return tables;
}

inline constexpr std::array<Crc16Table, 2> kCrc16Tables = make_crc16_tables();

}  // namespace detail

/// CRC-16 with polynomial 0x1021, init 0x0000 (CRC-16/XMODEM — the
/// 802.15.4 FCS definition). Table-driven, two bytes per step; the
/// result is bit-identical to the textbook bit-serial loop, which
/// tests/common_test.cpp keeps as the oracle.
[[nodiscard]] constexpr std::uint16_t crc16(
    std::span<const std::uint8_t> data) {
  const auto& one = detail::kCrc16Tables[0];
  const auto& two = detail::kCrc16Tables[1];
  std::uint16_t crc = 0x0000;
  std::size_t i = 0;
  for (; i + 2 <= data.size(); i += 2) {
    crc = static_cast<std::uint16_t>(two[(crc >> 8) ^ data[i]] ^
                                     one[(crc & 0xFF) ^ data[i + 1]]);
  }
  if (i < data.size()) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ one[(crc >> 8) ^ data[i]]);
  }
  return crc;
}

/// True iff `frame` ends in a big-endian CRC-16 of everything before it
/// (the 802.15.4 FCS layout). Frames too short to hold the two FCS bytes
/// fail. The channel checks each transmitted frame once with this, the
/// way the CC2420's AUTOCRC does in hardware; MacFrameView::decode checks
/// bytes it is handed directly.
[[nodiscard]] constexpr bool crc16_trailer_ok(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < 2) return false;
  const auto body = frame.first(frame.size() - 2);
  const auto fcs = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(frame[frame.size() - 2]) << 8 |
      frame[frame.size() - 1]);
  return crc16(body) == fcs;
}

}  // namespace fourbit
