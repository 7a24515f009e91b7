#include "phy/radio.hpp"

#include <utility>

#include "common/assert.hpp"
#include "phy/channel.hpp"
#include "phy/lqi.hpp"

namespace fourbit::phy {

RxInfo RxInfo::corrupt(PowerDbm rx_power, double thermal_snr_db) {
  RxInfo info;
  info.rssi = rx_power;
  info.snr_db = thermal_snr_db;
  info.fcs_ok = false;
  info.lqi_ = LqiModel::kMinLqi;
  return info;
}

int RxInfo::evaluate_lqi() const {
  return LqiModel::reading(snr_db, lqi_noise_.value());
}

bool RxInfo::white() const {
  switch (white_rule_.source) {
    case PhyConfig::WhiteBitSource::kLqi:
      return lqi() >= white_rule_.lqi_threshold;
    case PhyConfig::WhiteBitSource::kSnr:
      return snr_db >= white_rule_.snr_threshold_db;
    case PhyConfig::WhiteBitSource::kNever:
      return false;
  }
  return false;
}

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
