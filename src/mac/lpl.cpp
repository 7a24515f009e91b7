#include "mac/lpl.hpp"

#include <utility>

#include "common/assert.hpp"

namespace fourbit::mac {

LplMac::LplMac(sim::Simulator& sim, CsmaMac& inner, LplConfig config,
               sim::Rng rng)
    : sim_(sim),
      inner_(inner),
      config_(config),
      rng_(rng),
      phase_timer_(sim,
                   [this] {
                     wake_timer_.start_periodic(config_.wake_interval);
                     on_wake();
                   }),
      wake_timer_(sim, [this] { on_wake(); }),
      sample_timer_(sim, [this] { on_sample_end(); }),
      gap_timer_(sim, [this] { transmit_copy(); }) {
  inner_.set_rx_handler([this](NodeId src, std::uint8_t dsn,
                               std::span<const std::uint8_t> payload,
                               const phy::RxInfo& info) {
    on_inner_rx(src, dsn, payload, info, /*snooped=*/false);
  });
  inner_.set_snoop_handler([this](NodeId src, std::uint8_t dsn,
                                  std::span<const std::uint8_t> payload,
                                  const phy::RxInfo& info) {
    on_inner_rx(src, dsn, payload, info, /*snooped=*/true);
  });
  arm_phase();
  update_listening();
}

void LplMac::arm_phase() {
  // Desynchronize wake schedules across nodes.
  const double phase = rng_.uniform(0.0, config_.wake_interval.seconds());
  phase_timer_.start_one_shot(sim::Duration::from_seconds(phase));
}

void LplMac::reset() {
  phase_timer_.stop();
  wake_timer_.stop();
  sample_timer_.stop();
  gap_timer_.stop();
  queue_.clear();  // callbacks dropped deliberately: their owners crashed
  tx_active_ = false;
  current_.done = nullptr;
  sampling_ = false;
  hold_until_ = sim::Time{};
  recent_.clear();
  inner_.reset();
  update_listening();  // radio off until restart()
}

void LplMac::restart() {
  // A fresh random phase: a rebooted node does not remember its old wake
  // schedule, which is exactly why senders must cover a full interval.
  arm_phase();
  update_listening();
}

void LplMac::on_wake() {
  sampling_ = true;
  update_listening();
  sample_timer_.start_one_shot(config_.sample_duration);
}

void LplMac::on_sample_end() {
  // Extend the sample while the channel is busy (a train is passing) or
  // we received something very recently.
  const bool channel_busy = !inner_.radio().channel_clear() &&
                            !inner_.radio().transmitting();
  if (channel_busy || sim_.now() < hold_until_) {
    sample_timer_.start_one_shot(config_.sample_duration);
    return;
  }
  sampling_ = false;
  update_listening();
}

void LplMac::update_listening() {
  const bool awake =
      sampling_ || tx_active_ || sim_.now() < hold_until_;
  inner_.radio().set_listening(awake);
}

void LplMac::send(NodeId dst, std::span<const std::uint8_t> payload,
                  SendCallback done) {
  Pending& p = queue_.push_back();
  p.dst = dst;
  p.payload.assign(payload.begin(), payload.end());
  p.done = std::move(done);
  service_queue();
}

void LplMac::service_queue() {
  if (tx_active_ || queue_.empty()) return;
  tx_active_ = true;
  // Swap rather than move: the slot takes over the finished train's
  // payload buffer, whose callback finish_tx has already moved out.
  std::swap(current_, queue_.front());
  queue_.pop_front();
  current_dsn_ = inner_.allocate_dsn();
  tx_deadline_ =
      sim_.now() + config_.wake_interval * config_.tx_margin;
  current_cca_attempts_ = 1;
  update_listening();  // stay awake for the acks
  transmit_copy();
}

void LplMac::transmit_copy() {
  FOURBIT_ASSERT(tx_active_, "transmit_copy without an active train");
  ++copies_;
  inner_.send_with_dsn(
      current_.dst, current_.payload, current_dsn_,
      [this](const TxResult& r) {
        current_cca_attempts_ = r.cca_attempts;
        if (r.acked) {
          finish_tx(TxResult{.acked = true,
                             .cca_attempts = current_cca_attempts_});
          return;
        }
        if (sim_.now() >= tx_deadline_) {
          // Unicast: the whole train went unacknowledged. Broadcast:
          // normal completion (trains are never acked).
          finish_tx(TxResult{.acked = false,
                             .cca_attempts = current_cca_attempts_});
          return;
        }
        gap_timer_.start_one_shot(config_.tx_gap);
      });
}

void LplMac::finish_tx(TxResult result) {
  tx_active_ = false;
  update_listening();
  SendCallback done = std::move(current_.done);
  if (done) done(result);
  service_queue();
}

bool RecentFrames::check_and_insert(NodeId src, std::uint8_t dsn,
                                    sim::Time now, sim::Duration hold) {
  const std::uint32_t key =
      static_cast<std::uint32_t>(src.value()) << 8 | dsn;
  // Newest last, and a duplicate is usually a copy of the newest train.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->key == key && it->until > now) return true;
  }
  // An expired entry for the same key goes too, so each key has at most
  // one entry.
  std::erase_if(entries_, [now](const Entry& e) { return e.until <= now; });
  entries_.push_back(Entry{key, now + hold});
  return false;
}

void LplMac::on_inner_rx(NodeId src, std::uint8_t dsn,
                         std::span<const std::uint8_t> payload,
                         const phy::RxInfo& info, bool snooped) {
  // Hearing anything keeps us awake briefly (more of the train, or a
  // follow-up packet, may be coming).
  hold_until_ = sim_.now() + config_.after_rx_hold;
  update_listening();

  if (recent_.check_and_insert(
          src, dsn, sim_.now(),
          config_.wake_interval * (config_.tx_margin + 1.0))) {
    ++dup_suppressed_;
    return;
  }
  if (snooped) {
    if (snoop_handler_) snoop_handler_(src, dsn, payload, info);
  } else {
    if (rx_handler_) rx_handler_(src, dsn, payload, info);
  }
}

}  // namespace fourbit::mac
