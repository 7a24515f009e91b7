#include "mac/csma.hpp"

#include <utility>

#include "common/assert.hpp"

namespace fourbit::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, phy::Radio& radio, CsmaConfig config,
                 sim::Rng rng)
    : sim_(sim),
      radio_(radio),
      config_(config),
      rng_(rng),
      backoff_timer_(sim, [this] { on_backoff_expired(); }),
      ack_timer_(sim, [this] { on_ack_timeout(); }) {
  radio_.set_rx_handler(
      [this](std::span<const std::uint8_t> bytes, const phy::RxInfo& info) {
        on_radio_rx(bytes, info);
      });
}

void CsmaMac::send(NodeId dst, std::span<const std::uint8_t> payload,
                   SendCallback done) {
  send_with_dsn(dst, payload, next_dsn_++, std::move(done));
}

void CsmaMac::send_with_dsn(NodeId dst,
                            std::span<const std::uint8_t> payload,
                            std::uint8_t dsn, SendCallback done) {
  // The bytes are copied here, before anything else runs: a caller may
  // reuse its buffer as soon as send returns, or from inside `done`.
  Outgoing& out = queue_.push_back();
  out.frame.type = FrameType::kData;
  out.frame.dsn = dsn;
  out.frame.src = id();
  out.frame.dst = dst;
  out.frame.payload.assign(payload.begin(), payload.end());
  out.done = std::move(done);
  out.cca_attempts = 0;
  service_queue();
}

void CsmaMac::service_queue() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  queue_.front().cca_attempts = 0;
  backoff_then_cca(config_.initial_backoff_min, config_.initial_backoff_max);
}

void CsmaMac::backoff_then_cca(sim::Duration lo, sim::Duration hi) {
  const double span = static_cast<double>((hi - lo).us());
  const auto jitter =
      sim::Duration::from_us(static_cast<std::int64_t>(rng_.uniform() * span));
  backoff_timer_.start_one_shot(lo + jitter);
}

void CsmaMac::on_backoff_expired() {
  FOURBIT_ASSERT(busy_ && !queue_.empty(), "backoff fired with no frame");
  Outgoing& out = queue_.front();

  // Our own synchronous ack may be on the air; wait it out.
  if (radio_.transmitting()) {
    backoff_then_cca(config_.congestion_backoff_min,
                     config_.congestion_backoff_max);
    return;
  }

  ++out.cca_attempts;
  if (!radio_.channel_clear() &&
      out.cca_attempts < config_.max_cca_attempts) {
    backoff_then_cca(config_.congestion_backoff_min,
                     config_.congestion_backoff_max);
    return;
  }
  transmit_current();
}

void CsmaMac::transmit_current() {
  const Outgoing& out = queue_.front();
  if (tx_listener_) tx_listener_(out.frame);
  encode_buf_.clear();
  out.frame.append_to(encode_buf_);
  radio_.transmit(encode_buf_, [this, epoch = epoch_] {
    if (epoch == epoch_) on_tx_done();
  });
}

void CsmaMac::reset() {
  ++epoch_;
  backoff_timer_.stop();
  ack_timer_.stop();
  queue_.clear();  // callbacks dropped deliberately: their owners crashed
  busy_ = false;
  awaiting_ack_ = false;
  ack_pending_ = false;
  // next_dsn_ survives: peers' duplicate filters key on (src, dsn), and a
  // restarted counter would alias recent pre-crash frames.
}

void CsmaMac::on_tx_done() {
  FOURBIT_ASSERT(busy_ && !queue_.empty(), "tx-done with no frame");
  Outgoing& out = queue_.front();
  if (out.frame.is_broadcast()) {
    complete_current(TxResult{.acked = false,
                              .cca_attempts = out.cca_attempts});
    return;
  }
  awaiting_ack_ = true;
  awaited_dsn_ = out.frame.dsn;
  ack_timer_.start_one_shot(config_.ack_wait);
}

void CsmaMac::on_ack_timeout() {
  FOURBIT_ASSERT(busy_ && !queue_.empty(), "ack timeout with no frame");
  awaiting_ack_ = false;
  complete_current(
      TxResult{.acked = false, .cca_attempts = queue_.front().cca_attempts});
}

void CsmaMac::complete_current(TxResult result) {
  // Only the callback leaves the slot; the popped slot keeps its payload
  // buffer for the next send, which `done` itself may issue.
  SendCallback done = std::move(queue_.front().done);
  queue_.pop_front();
  busy_ = false;
  if (done) done(result);
  service_queue();
}

void CsmaMac::on_radio_rx(std::span<const std::uint8_t> bytes,
                          const phy::RxInfo& info) {
  // Frames the radio flagged as damaged, or whose FCS fails, die here.
  // The channel checked the FCS once for every clean receiver of this
  // transmission (crc_ok), as the radio's AUTOCRC would.
  if (!info.fcs_ok || !info.crc_ok) {
    ++fcs_failures_;
    return;
  }
  // Zero-copy parse: header fields by value, payload left in place in
  // the channel's buffer. Handlers receive a span valid only for this
  // call; anything they keep, they copy.
  const auto frame = MacFrameView::parse(bytes);
  if (!frame) {
    ++fcs_failures_;
    return;
  }

  if (frame->type == FrameType::kAck) {
    if (awaiting_ack_ && frame->dst == id() && frame->dsn == awaited_dsn_) {
      awaiting_ack_ = false;
      ack_timer_.stop();
      FOURBIT_ASSERT(busy_ && !queue_.empty(), "ack for unknown frame");
      complete_current(TxResult{
          .acked = true, .cca_attempts = queue_.front().cca_attempts});
    }
    return;
  }

  // Data frame addressed elsewhere: offer it to the snoop tap and stop.
  if (!frame->is_broadcast() && frame->dst != id()) {
    if (snoop_handler_) {
      snoop_handler_(frame->src, frame->dsn, frame->payload, info);
    }
    return;
  }

  if (!frame->is_broadcast()) {
    send_ack(frame->src, frame->dsn);
  }
  if (rx_handler_) {
    rx_handler_(frame->src, frame->dsn, frame->payload, info);
  }
}

void CsmaMac::send_ack(NodeId to, std::uint8_t dsn) {
  ack_to_ = to;
  ack_dsn_ = dsn;
  ack_pending_ = true;
  ack_attempts_ = 0;
  sim_.schedule_in(config_.ack_turnaround, [this] { try_send_ack(); });
}

void CsmaMac::try_send_ack() {
  if (!ack_pending_) return;
  // A radio mid-transmission cannot also send the ack. Rather than
  // dropping it (which turns a successful delivery into a duplicate
  // retransmission), retry a couple of times within the sender's ack
  // window.
  if (radio_.transmitting()) {
    if (++ack_attempts_ < 3) {
      sim_.schedule_in(config_.ack_turnaround, [this] { try_send_ack(); });
    } else {
      ack_pending_ = false;
    }
    return;
  }
  ack_pending_ = false;
  MacFrame ack;
  ack.type = FrameType::kAck;
  ack.dsn = ack_dsn_;
  ack.dst = ack_to_;
  if (tx_listener_) tx_listener_(ack);
  encode_buf_.clear();
  ack.append_to(encode_buf_);
  radio_.transmit(encode_buf_, nullptr);
}

}  // namespace fourbit::mac
