// The estimator interface's PHY reading of a delivery, backed by the
// delivery itself.
#pragma once

#include "link/packet_info.hpp"
#include "phy/radio.hpp"

namespace fourbit::net {

/// link::PacketPhyInfo over one delivery's phy::RxInfo: each read asks
/// the RxInfo, which evaluates the LQI model on its first read and
/// caches it. So a frame whose bits no estimator reads costs no LQI
/// math. Lives on the receive call's stack; never outlives the RxInfo.
class RxPhyInfo final : public link::PacketPhyInfo {
 public:
  explicit RxPhyInfo(const phy::RxInfo& rx) : rx_(rx) {}

  [[nodiscard]] bool white() const override { return rx_.white(); }
  [[nodiscard]] int lqi() const override { return rx_.lqi(); }

 private:
  const phy::RxInfo& rx_;
};

}  // namespace fourbit::net
