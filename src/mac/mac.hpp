// Abstract link layer used by the network stack.
//
// Two implementations exist: the always-on CSMA/CA MAC (CsmaMac) and the
// duty-cycled low-power-listening wrapper (LplMac). Both provide the
// property the estimator interfaces require: synchronous per-transmission
// acknowledgment feedback.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/ids.hpp"
#include "phy/radio.hpp"

namespace fourbit::mac {

/// Outcome of one MAC-level send (a single logical transmission; LPL may
/// put several copies on the air under the hood).
struct TxResult {
  bool acked = false;    // meaningful only for unicast sends
  int cca_attempts = 1;  // CSMA attempts for the (first) copy
};

class Mac {
 public:
  using RxHandler = std::function<void(NodeId src, std::uint8_t dsn,
                                       std::span<const std::uint8_t>,
                                       const phy::RxInfo&)>;
  using SendCallback = std::function<void(const TxResult&)>;

  virtual ~Mac() = default;

  [[nodiscard]] virtual NodeId id() const = 0;

  virtual void set_rx_handler(RxHandler h) = 0;

  /// Promiscuous tap for unicast frames addressed to other nodes.
  virtual void set_snoop_handler(RxHandler h) = 0;

  /// Queues one logical transmission; the callback reports its outcome.
  /// The MAC copies `payload` before send returns and before it calls
  /// anything, so a caller may build every frame in one buffer it reuses.
  virtual void send(NodeId dst, std::span<const std::uint8_t> payload,
                    SendCallback done) = 0;

  [[nodiscard]] virtual std::size_t queue_depth() const = 0;

  // ---- fault model ----------------------------------------------------

  /// Node crash: drop the queue WITHOUT completing callbacks (the upper
  /// layers are being wiped too), stop timers, forget any ack in flight.
  /// Default no-op for fakes without internal state.
  virtual void reset() {}

  /// Node reboot after reset(): re-arm whatever periodic machinery the
  /// MAC runs (e.g. the LPL wake schedule). Default no-op.
  virtual void restart() {}
};

}  // namespace fourbit::mac
