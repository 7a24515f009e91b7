#include "net/packets.hpp"

#include "common/byte_io.hpp"

namespace fourbit::net {

void RoutingBeacon::append_to(std::vector<std::uint8_t>& out) const {
  ByteWriter w{out};
  w.u8(pull ? 0x01 : 0x00);
  w.u16(parent.value());
  w.u16(quantize_etx(path_etx));
}

std::vector<std::uint8_t> RoutingBeacon::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(kBytes);
  append_to(out);
  return out;
}

std::optional<RoutingBeacon> RoutingBeacon::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  RoutingBeacon b;
  b.pull = (r.u8() & 0x01) != 0;
  b.parent = NodeId{r.u16()};
  b.path_etx = dequantize_etx(r.u16());
  if (!r.ok()) return std::nullopt;
  return b;
}

void DataHeader::append_to(std::vector<std::uint8_t>& out,
                           std::span<const std::uint8_t> app_payload) const {
  ByteWriter w{out};
  w.u16(origin.value());
  w.u16(seq);
  w.u8(thl);
  w.u16(quantize_etx(sender_path_etx));
  w.bytes(app_payload);
}

std::vector<std::uint8_t> DataHeader::encode(
    std::span<const std::uint8_t> app_payload) const {
  std::vector<std::uint8_t> out;
  out.reserve(kBytes + app_payload.size());
  append_to(out, app_payload);
  return out;
}

std::optional<DataView> decode_data_view(
    std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  DataView d;
  d.header.origin = NodeId{r.u16()};
  d.header.seq = r.u16();
  d.header.thl = r.u8();
  d.header.sender_path_etx = dequantize_etx(r.u16());
  if (!r.ok()) return std::nullopt;
  d.app_payload = r.rest();
  return d;
}

}  // namespace fourbit::net
