// A node's radio: the attachment point between a protocol stack and the
// shared channel.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "phy/config.hpp"
#include "phy/hardware.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace fourbit::phy {

class Channel;

/// Physical-layer metadata delivered alongside every received frame.
///
/// lqi() and white() are evaluated when a layer first reads them, at most
/// once per delivery. A clean delivery carries what they are made of: the
/// thermal-only SNR, the LQI measurement noise the channel drew from its
/// `lqi` stream in delivery order (drawn, not evaluated), and the white-bit
/// rule. Most receptions — acks, overheard unicasts, LPL duplicates — are
/// dropped without a look, and skip the LQI math; the draw itself is
/// taken either way, so whether a layer reads a value moves no stream.
struct RxInfo {
  PowerDbm rssi;
  double snr_db = 0.0;  // thermal-only SNR

  /// False for frames the radio heard but could not decode cleanly (the
  /// channel's corrupt deliveries); the MAC drops them.
  bool fcs_ok = true;

  /// Whether the delivered bytes end in a valid CRC-16 of the rest
  /// (crc16_trailer_ok). The channel computes it once per transmission,
  /// at the first clean delivery, and hands the same verdict to every
  /// clean receiver; corrupt deliveries leave it false. The MAC drops
  /// frames without it, so it only means something for MAC-framed bytes.
  bool crc_ok = false;

  /// No reception: lqi() reads 0 and white() false.
  RxInfo() = default;

  /// A clean reception: its LQI is LqiModel::reading(snr_db, the value
  /// of `lqi_noise`), and its white bit is `white_rule` applied to that
  /// reading or to snr_db.
  RxInfo(PowerDbm rx_power, double thermal_snr_db,
         sim::Rng::NormalDraw lqi_noise, WhiteBitRule white_rule)
      : rssi(rx_power),
        snr_db(thermal_snr_db),
        lqi_noise_(lqi_noise),
        white_rule_(white_rule),
        lqi_(kUnread) {}

  /// A frame heard but not decoded (fcs_ok false): LQI at the floor of
  /// its range, never white.
  [[nodiscard]] static RxInfo corrupt(PowerDbm rx_power,
                                      double thermal_snr_db);

  /// The CC2420-style LQI reading (LqiModel::kMinLqi..kMaxLqi).
  [[nodiscard]] int lqi() const {
    if (lqi_ == kUnread) lqi_ = evaluate_lqi();
    return lqi_;
  }

  /// The paper's physical-layer bit: set iff every symbol of the packet
  /// had a very low probability of decoding error (by default: the LQI
  /// reading cleared the configured threshold).
  [[nodiscard]] bool white() const;

  /// For tests: whether the LQI reading is known yet — fixed at
  /// construction (no reception, corrupt) or evaluated by a read.
  [[nodiscard]] bool lqi_known() const { return lqi_ != kUnread; }

 private:
  static constexpr int kUnread = -1;
  [[nodiscard]] int evaluate_lqi() const;

  sim::Rng::NormalDraw lqi_noise_;
  WhiteBitRule white_rule_;
  // The reading; kUnread on a clean reception until its first lqi().
  mutable int lqi_ = 0;
};

/// Half-duplex radio. Owns no protocol state; the MAC drives it.
class Radio {
 public:
  using RxHandler =
      std::function<void(std::span<const std::uint8_t>, const RxInfo&)>;
  using TxDoneHandler = std::function<void()>;

  /// Registers with `channel`; the channel must outlive the radio.
  Radio(Channel& channel, NodeId id, Position position, HardwareProfile hw,
        PowerDbm tx_power);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const Position& position() const { return position_; }
  [[nodiscard]] const HardwareProfile& hardware() const { return hardware_; }

  [[nodiscard]] PowerDbm tx_power() const { return tx_power_; }

  /// Changing the power invalidates this node's row of the channel's
  /// link cache (the cached rx powers embed the sender's tx power).
  void set_tx_power(PowerDbm p);

  /// Configured power plus this unit's manufacturing offset.
  [[nodiscard]] PowerDbm effective_tx_power() const {
    return tx_power_ + hardware_.tx_power_offset;
  }

  /// This receiver's effective noise floor (channel floor + noise figure),
  /// fixed at construction.
  [[nodiscard]] PowerDbm noise_floor() const { return noise_floor_; }

  void set_rx_handler(RxHandler h) { rx_handler_ = std::move(h); }

  /// Energy-detect CCA as used by CSMA.
  [[nodiscard]] bool channel_clear() const;

  [[nodiscard]] bool transmitting() const;

  /// Receiver duty cycling: a radio that is not listening hears nothing
  /// (low-power listening turns the receiver off between channel
  /// samples). Transmission is always possible; real radios wake to send.
  void set_listening(bool on) { listening_ = on; }
  [[nodiscard]] bool listening() const { return listening_; }

  /// Puts `frame` (the MPDU) on the air. Must not be called while already
  /// transmitting. `done` fires when the last bit leaves the antenna.
  /// The bytes are copied into the channel's pooled (arena-backed)
  /// buffer before this returns, so the caller may reuse `frame`
  /// immediately — MACs keep one encode buffer and send from it every
  /// time, which is what makes the steady-state tx path allocation-free.
  void transmit(std::span<const std::uint8_t> frame, TxDoneHandler done);
  void transmit(const std::vector<std::uint8_t>& frame, TxDoneHandler done);

  // --- Channel-side interface ---------------------------------------

  void deliver(std::span<const std::uint8_t> frame, const RxInfo& info) {
    if (rx_handler_) rx_handler_(frame, info);
  }

  void set_transmitting_until(sim::Time t) { transmitting_until_ = t; }
  [[nodiscard]] sim::Time transmitting_until() const {
    return transmitting_until_;
  }

  /// Stable slot of this radio in the channel's radio table, assigned at
  /// attach (tombstoned slots are reused) and fixed for the radio's
  /// lifetime. Owned by the channel; meaningless after detach.
  void set_channel_index(std::size_t i) { channel_index_ = i; }
  [[nodiscard]] std::size_t channel_index() const { return channel_index_; }

 private:
  Channel& channel_;
  NodeId id_;
  Position position_;
  HardwareProfile hardware_;
  PowerDbm noise_floor_;
  PowerDbm tx_power_;
  RxHandler rx_handler_;
  sim::Time transmitting_until_;
  std::size_t channel_index_ = 0;
  bool listening_ = true;
};

}  // namespace fourbit::phy
