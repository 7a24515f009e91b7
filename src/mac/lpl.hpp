// Low-power listening (BoX-MAC-2 style) on top of the CSMA MAC.
//
// Receivers sleep between brief periodic channel samples; a transmitter
// does not know when its neighbor wakes, so it puts REPEATED COPIES of
// the frame on the air for a full wake interval — stopping early on a
// unicast acknowledgment. This trades transmit cost and latency for a
// ~two-orders-of-magnitude cut in idle-listening energy, and is how
// CTP-class deployments actually run.
//
// Every copy shares one MAC sequence number, so receivers deduplicate
// and the sender's ack matches any copy. The ack bit semantics the
// estimators rely on are preserved: one logical send -> one ack outcome.
#pragma once

#include <cstdint>
#include <vector>

#include "common/slot_queue.hpp"
#include "mac/csma.hpp"
#include "mac/mac.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace fourbit::mac {

struct LplConfig {
  /// Period between receiver channel samples. Duty cycle is roughly
  /// sample_duration / wake_interval (~2% at the defaults).
  sim::Duration wake_interval = sim::Duration::from_ms(512);

  /// How long the receiver listens per wake. Must cover one maximum
  /// frame plus the inter-copy gap so a passing train is never missed.
  sim::Duration sample_duration = sim::Duration::from_ms(12);

  /// How long to stay awake after receiving anything (catches the rest
  /// of a packet train and any immediate follow-ups).
  sim::Duration after_rx_hold = sim::Duration::from_ms(100);

  /// Pause between repeated copies (lets the ack come back).
  sim::Duration tx_gap = sim::Duration::from_ms(2);

  /// The transmit train lasts wake_interval * this margin, covering
  /// clock skew between sender and receiver schedules.
  double tx_margin = 1.2;
};

/// LPL's duplicate filter: the (sender, DSN) pairs admitted within their
/// hold time. Copies of one logical frame arrive back to back, so few
/// entries are live at once; they sit in a flat vector, and an admission
/// first drops the entries whose hold has ended.
class RecentFrames {
 public:
  /// True if (src, dsn) was admitted and its hold has not ended at `now`.
  /// Otherwise admits it, held until `now + hold`, and returns false.
  /// `now` never decreases from one call to the next.
  [[nodiscard]] bool check_and_insert(NodeId src, std::uint8_t dsn,
                                      sim::Time now, sim::Duration hold);

  void clear() { entries_.clear(); }

  /// Entries held, live or not yet dropped.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t key;  // src << 8 | dsn
    sim::Time until;
  };
  std::vector<Entry> entries_;
};

class LplMac final : public Mac {
 public:
  LplMac(sim::Simulator& sim, CsmaMac& inner, LplConfig config,
         sim::Rng rng);

  [[nodiscard]] NodeId id() const override { return inner_.id(); }
  void set_rx_handler(RxHandler h) override { rx_handler_ = std::move(h); }
  void set_snoop_handler(RxHandler h) override {
    snoop_handler_ = std::move(h);
  }
  void send(NodeId dst, std::span<const std::uint8_t> payload,
            SendCallback done) override;
  [[nodiscard]] std::size_t queue_depth() const override {
    return queue_.size() + (tx_active_ ? 1 : 0);
  }

  void reset() override;
  void restart() override;

  // ---- introspection ----
  [[nodiscard]] std::uint64_t copies_transmitted() const { return copies_; }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return dup_suppressed_;
  }
  [[nodiscard]] bool radio_listening() const {
    return inner_.radio().listening();
  }
  [[nodiscard]] const LplConfig& config() const { return config_; }

 private:
  struct Pending {
    NodeId dst;
    std::vector<std::uint8_t> payload;
    SendCallback done;
  };

  void arm_phase();
  void on_wake();
  void on_sample_end();
  void update_listening();
  void service_queue();
  void transmit_copy();
  void finish_tx(TxResult result);
  void on_inner_rx(NodeId src, std::uint8_t dsn,
                   std::span<const std::uint8_t> payload,
                   const phy::RxInfo& info, bool snooped);

  sim::Simulator& sim_;
  CsmaMac& inner_;
  LplConfig config_;
  sim::Rng rng_;

  RxHandler rx_handler_;
  RxHandler snoop_handler_;

  // Receiver schedule.
  sim::Timer phase_timer_;  // random initial offset, then wake_timer_
  sim::Timer wake_timer_;
  sim::Timer sample_timer_;
  bool sampling_ = false;
  sim::Time hold_until_;

  // Transmit train.
  SlotQueue<Pending> queue_;
  bool tx_active_ = false;
  Pending current_;
  std::uint8_t current_dsn_ = 0;
  sim::Time tx_deadline_;
  int current_cca_attempts_ = 1;
  sim::Timer gap_timer_;

  // Duplicate suppression across copies of one logical frame.
  RecentFrames recent_;

  std::uint64_t copies_ = 0;
  std::uint64_t dup_suppressed_ = 0;
};

}  // namespace fourbit::mac
