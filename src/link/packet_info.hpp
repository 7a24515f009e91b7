// Physical-layer information as seen across the estimator interface.
#pragma once

namespace fourbit::link {

/// What the PHY tells the layers above about a received packet, read on
/// demand.
///
/// The paper's interface is exactly one bit: `white`. The raw LQI value is
/// offered alongside ONLY so the cross-layer baselines (MultiHopLQI) can
/// be expressed in the same framework — the four-bit estimator never reads
/// it, and the build keeps `core/` independent of `phy/` to prove it.
///
/// Both are calls, not fields, because producing them costs: in the
/// network stack each is backed by the delivery's own phy::RxInfo, which
/// evaluates the LQI model on the first read. An estimator reads a bit
/// only where a decision needs it, and where a condition also has a
/// cheaper pure test, that test goes first.
class PacketPhyInfo {
 public:
  /// The white bit: every symbol of this packet had a very low probability
  /// of decoding error. If clear, channel quality is unknown (not
  /// necessarily bad).
  [[nodiscard]] virtual bool white() const = 0;

  /// Raw link-quality indicator (CC2420-style, ~40..110). Baselines only.
  [[nodiscard]] virtual int lqi() const = 0;

 protected:
  PacketPhyInfo() = default;
  PacketPhyInfo(const PacketPhyInfo&) = default;
  PacketPhyInfo& operator=(const PacketPhyInfo&) = default;
  ~PacketPhyInfo() = default;
};

/// A reading whose values are known up front, for code that scripts the
/// bits rather than receiving them (benches, examples, tests). The
/// default reading is no reception: not white, LQI 0.
class FixedPhyInfo final : public PacketPhyInfo {
 public:
  FixedPhyInfo() = default;
  FixedPhyInfo(bool white, int lqi) : white_(white), lqi_(lqi) {}

  [[nodiscard]] bool white() const override { return white_; }
  [[nodiscard]] int lqi() const override { return lqi_; }

 private:
  bool white_ = false;
  int lqi_ = 0;
};

}  // namespace fourbit::link
