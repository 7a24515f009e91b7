#include "mac/frame.hpp"

#include "common/byte_io.hpp"
#include "common/crc16.hpp"

namespace fourbit::mac {

void MacFrame::append_to(std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  ByteWriter w{out};
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(dsn);
  if (type == FrameType::kAck) {
    w.u16(dst.value());
  } else {
    w.u16(src.value());
    w.u16(dst.value());
    w.bytes(payload);
  }
  w.u16(crc16(std::span<const std::uint8_t>{out}.subspan(start)));
}

std::vector<std::uint8_t> MacFrame::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(kDataHeaderBytes + payload.size() + kFcsBytes);
  append_to(out);
  return out;
}

std::optional<MacFrameView> MacFrameView::decode(
    std::span<const std::uint8_t> bytes) {
  if (!crc16_trailer_ok(bytes)) return std::nullopt;
  return parse(bytes);
}

std::optional<MacFrameView> MacFrameView::parse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < MacFrame::kFcsBytes + 2) return std::nullopt;
  const auto body = bytes.first(bytes.size() - MacFrame::kFcsBytes);
  ByteReader r{body};
  MacFrameView f;
  const std::uint8_t type = r.u8();
  f.dsn = r.u8();
  switch (type) {
    case static_cast<std::uint8_t>(FrameType::kAck):
      f.type = FrameType::kAck;
      f.dst = NodeId{r.u16()};
      break;
    case static_cast<std::uint8_t>(FrameType::kData): {
      f.type = FrameType::kData;
      f.src = NodeId{r.u16()};
      f.dst = NodeId{r.u16()};
      f.payload = r.rest();
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return f;
}

MacFrame MacFrameView::to_owned() const {
  MacFrame f;
  f.type = type;
  f.dsn = dsn;
  f.src = src;
  f.dst = dst;
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

std::optional<MacFrame> MacFrame::decode(
    std::span<const std::uint8_t> bytes) {
  const auto view = MacFrameView::decode(bytes);
  if (!view.has_value()) return std::nullopt;
  return view->to_owned();
}

}  // namespace fourbit::mac
