// Unslotted CSMA/CA with synchronous layer-2 acknowledgments.
//
// The paper's model (Section 1.1) requires exactly this: a CSMA MAC whose
// link layer has synchronous L2 acks. One send is serviced at a time;
// upper layers queue behind it. Retransmission policy deliberately lives
// ABOVE the MAC (in the forwarding engines), because the ack bit is a
// per-transmission signal the estimators consume individually.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/slot_queue.hpp"
#include "mac/frame.hpp"
#include "mac/mac.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace fourbit::mac {

struct CsmaConfig {
  /// Initial random backoff window before the first CCA.
  sim::Duration initial_backoff_min = sim::Duration::from_us(320);
  sim::Duration initial_backoff_max = sim::Duration::from_us(9920);

  /// Backoff window applied after a busy CCA.
  sim::Duration congestion_backoff_min = sim::Duration::from_us(320);
  sim::Duration congestion_backoff_max = sim::Duration::from_us(2560);

  /// After this many busy CCAs the frame is sent anyway (a saturated
  /// channel must not wedge the node forever).
  int max_cca_attempts = 16;

  /// RX->TX turnaround before a synchronous ack goes out.
  sim::Duration ack_turnaround = sim::Duration::from_us(192);

  /// Total wait for an acknowledgment after our frame leaves the air —
  /// wide enough for a receiver to defer the ack past its own in-flight
  /// transmission (turnaround retries; see try_send_ack).
  sim::Duration ack_wait = sim::Duration::from_us(1600);
};

class CsmaMac final : public Mac {
 public:
  /// Fired for every frame this MAC actually puts on the air (after CSMA),
  /// for cost accounting. Acks are reported too; listeners filter by type.
  using TxListener = std::function<void(const MacFrame&)>;

  CsmaMac(sim::Simulator& sim, phy::Radio& radio, CsmaConfig config,
          sim::Rng rng);

  CsmaMac(const CsmaMac&) = delete;
  CsmaMac& operator=(const CsmaMac&) = delete;

  [[nodiscard]] NodeId id() const override { return radio_.id(); }

  void set_rx_handler(RxHandler h) override { rx_handler_ = std::move(h); }

  /// Promiscuous tap: unicast data frames addressed to OTHER nodes (CTP
  /// snoops these for routing state). Broadcasts and own-address frames
  /// go through the normal rx handler only.
  void set_snoop_handler(RxHandler h) override {
    snoop_handler_ = std::move(h);
  }

  void set_tx_listener(TxListener l) { tx_listener_ = std::move(l); }

  /// Queues one transmission. Unicast frames request an ack; broadcast
  /// frames complete when they leave the air with acked=false. The bytes
  /// are copied before send returns, so `payload` may be a buffer the
  /// caller reuses.
  void send(NodeId dst, std::span<const std::uint8_t> payload,
            SendCallback done) override;

  /// Like send(), but with a caller-chosen data sequence number. Used by
  /// low-power listening to put REPEATED COPIES of one logical frame on
  /// the air: every copy shares the dsn, so receivers can deduplicate
  /// and acks match any copy.
  void send_with_dsn(NodeId dst, std::span<const std::uint8_t> payload,
                     std::uint8_t dsn, SendCallback done);

  /// Allocates a fresh data sequence number (for send_with_dsn users).
  [[nodiscard]] std::uint8_t allocate_dsn() { return next_dsn_++; }

  [[nodiscard]] std::size_t queue_depth() const override {
    return queue_.size();
  }

  void reset() override;

  [[nodiscard]] phy::Radio& radio() { return radio_; }

  /// Frames heard but dropped for a bad frame check sequence.
  [[nodiscard]] std::uint64_t fcs_failures() const { return fcs_failures_; }

 private:
  struct Outgoing {
    MacFrame frame;
    SendCallback done;
    int cca_attempts = 0;
  };

  void service_queue();
  void backoff_then_cca(sim::Duration lo, sim::Duration hi);
  void on_backoff_expired();
  void transmit_current();
  void on_tx_done();
  void on_ack_timeout();
  void complete_current(TxResult result);

  void on_radio_rx(std::span<const std::uint8_t> bytes,
                   const phy::RxInfo& info);
  void send_ack(NodeId to, std::uint8_t dsn);

  sim::Simulator& sim_;
  phy::Radio& radio_;
  CsmaConfig config_;
  sim::Rng rng_;

  RxHandler rx_handler_;
  RxHandler snoop_handler_;
  TxListener tx_listener_;

  // Slots keep their payload buffers across sends (common/slot_queue.hpp).
  SlotQueue<Outgoing> queue_;
  // Reused wire-encode buffer: the radio copies the bytes into its
  // arena-pooled frame before transmit() returns, so one buffer per MAC
  // keeps the steady-state tx path free of heap allocation.
  std::vector<std::uint8_t> encode_buf_;
  bool busy_ = false;  // an Outgoing is in progress
  std::uint8_t next_dsn_ = 0;
  std::uint64_t fcs_failures_ = 0;
  // Bumped by reset(): the radio's tx-done callback cannot be cancelled,
  // so a completion scheduled before a crash must not fire the state
  // machine of the rebooted MAC. Callbacks capture the epoch they were
  // issued in and no-op if it has moved on.
  std::uint64_t epoch_ = 0;

  sim::Timer backoff_timer_;
  sim::Timer ack_timer_;
  bool awaiting_ack_ = false;
  std::uint8_t awaited_dsn_ = 0;

  // A pending synchronous ack we owe a sender (sent after turnaround,
  // bypassing CSMA as real 802.15.4 acks do).
  void try_send_ack();
  bool ack_pending_ = false;
  NodeId ack_to_;
  std::uint8_t ack_dsn_ = 0;
  int ack_attempts_ = 0;
};

}  // namespace fourbit::mac
