#include "phy/radio.hpp"

#include <utility>

#include "common/assert.hpp"
#include "phy/channel.hpp"

namespace fourbit::phy {

Radio::Radio(Channel& channel, NodeId id, Position position,
             HardwareProfile hw, PowerDbm tx_power)
    : channel_(channel),
      id_(id),
      position_(position),
      hardware_(hw),
      noise_floor_(channel.phy().noise_floor + hw.noise_figure_offset),
      tx_power_(tx_power) {
  channel_.attach(*this);
}

Radio::~Radio() { channel_.detach(*this); }

void Radio::set_tx_power(PowerDbm p) {
  tx_power_ = p;
  channel_.on_tx_power_changed(*this);
}

bool Radio::channel_clear() const {
  if (transmitting()) return false;
  return !channel_.busy_at(*this);
}

bool Radio::transmitting() const {
  return transmitting_until_ > channel_.simulator().now();
}

void Radio::transmit(std::span<const std::uint8_t> frame, TxDoneHandler done) {
  FOURBIT_ASSERT(!frame.empty(), "cannot transmit an empty frame");
  channel_.start_transmission(*this, frame, std::move(done));
}

void Radio::transmit(const std::vector<std::uint8_t>& frame,
                     TxDoneHandler done) {
  transmit(std::span<const std::uint8_t>{frame}, std::move(done));
}

}  // namespace fourbit::phy
