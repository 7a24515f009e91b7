// The narrow link-estimator interface — the paper's contribution.
//
// A link estimator sits between layer 2 and layer 3 ("layer 2.5"):
//   * it wraps the network layer's broadcast beacons with its own
//     header/footer (sequence numbers, optionally per-neighbor state),
//   * it consumes four bits of cross-layer information:
//       white   (PHY, per received packet)   -> unwrap_beacon/on_data_rx
//       ack     (link, per unicast tx)       -> on_unicast_result
//       pin     (network, per table entry)   -> pin/unpin
//       compare (network, per packet, on request) -> CompareProvider
//   * it exports bidirectional ETX estimates for the links it tracks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "link/packet_info.hpp"

namespace fourbit::sim {
class TelemetryContext;
}

namespace fourbit::link {

/// One table entry's link estimate, as returned by the bulk read
/// LinkEstimator::link_estimates. `etx` is meaningful only when
/// `has_etx` is set.
struct LinkEstimate {
  NodeId node;
  bool has_etx = false;
  double etx = 0.0;
};

/// Network-layer half of the compare bit. The estimator asks; the network
/// layer answers from its routing state.
class CompareProvider {
 public:
  virtual ~CompareProvider() = default;

  /// Does the route offered by `candidate` (as described by the routing
  /// payload of its beacon) look better than the route through at least
  /// one node currently in the estimator's table? Implementations may
  /// decline to answer for packets they cannot judge (return false).
  [[nodiscard]] virtual bool compare_bit(
      NodeId candidate, std::span<const std::uint8_t> routing_payload) = 0;
};

/// Abstract link estimator. Routing engines program against this type
/// only; the concrete estimator (4B, LQI, broadcast-ETX, ...) is chosen
/// by the experiment.
class LinkEstimator {
 public:
  virtual ~LinkEstimator() = default;

  // ---- layer 2.5 beacon wrapping ------------------------------------

  /// Appends this estimator's header/footer and then the network layer's
  /// beacon payload to `out`, after whatever `out` already holds (the
  /// stack puts its dispatch byte there first). The appended bytes are
  /// what the MAC broadcasts. `routing_payload` must not alias `out`.
  virtual void wrap_beacon(std::span<const std::uint8_t> routing_payload,
                           std::vector<std::uint8_t>& out) = 0;

  /// Processes a received beacon (updating link state, possibly inserting
  /// the sender into the table via the white/compare-bit policy) and
  /// returns the embedded routing payload: the tail of `bytes`, valid
  /// exactly as long as `bytes` is (in the stack, for the delivery call).
  /// nullopt = malformed.
  [[nodiscard]] virtual std::optional<std::span<const std::uint8_t>>
  unwrap_beacon(NodeId from, std::span<const std::uint8_t> bytes,
                const PacketPhyInfo& phy) = 0;

  // ---- the ack bit ----------------------------------------------------

  /// Reports the layer-2 outcome of one unicast data transmission.
  virtual void on_unicast_result(NodeId to, bool acked) = 0;

  // ---- optional data-plane input --------------------------------------

  /// A data packet was received from `from` (used by PHY-driven
  /// estimators; the default estimator ignores it).
  virtual void on_data_rx(NodeId from, const PacketPhyInfo& phy) {
    (void)from;
    (void)phy;
  }

  // ---- the pin bit -----------------------------------------------------

  /// Pins `n`'s entry: the estimator may not evict it until unpinned.
  /// Returns false if `n` is not in the table.
  virtual bool pin(NodeId n) = 0;
  virtual void unpin(NodeId n) = 0;
  virtual void clear_pins() = 0;

  // ---- outputs ----------------------------------------------------------

  /// Current bidirectional ETX estimate for `n` (>= 1), or nullopt if the
  /// link is not in the table / has no estimate yet.
  [[nodiscard]] virtual std::optional<double> etx(NodeId n) const = 0;

  /// Nodes currently tracked.
  [[nodiscard]] virtual std::vector<NodeId> neighbors() const = 0;

  /// Bulk read for parent selection: replaces `out` with one entry per
  /// tracked node, in neighbors() order, each carrying exactly what
  /// etx(node) returns. Real estimators fill it in one pass over their
  /// table, allocating nothing once `out` has grown to the table size.
  /// The default composes neighbors() and etx() (stateless estimators,
  /// test fakes).
  virtual void link_estimates(std::vector<LinkEstimate>& out) const {
    out.clear();
    for (const NodeId n : neighbors()) {
      const auto e = etx(n);
      out.push_back(LinkEstimate{n, e.has_value(), e.value_or(0.0)});
    }
  }

  /// Change counter for link_estimates(). The contract: while version()
  /// returns the same value, link_estimates() returns the same entries
  /// in the same order, bit for bit. So a reader that remembers the
  /// version of its last read may skip the next one while it holds.
  /// Estimators bump it where an entry is inserted, evicted, removed or
  /// cleared, or an entry's estimate changes — not for pins, compare
  /// queries, or inputs that close no estimation window. Bumping more
  /// often than that is safe, only slower; missing a change is not.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // ---- supervision hooks (see sim::InvariantAuditor) --------------------

  /// Nodes whose table entries are currently pinned. Invariant audits
  /// verify pin discipline (only the current parent may stay pinned).
  /// Default: none, for stateless estimators and test fakes.
  [[nodiscard]] virtual std::vector<NodeId> pinned() const { return {}; }

  /// Table capacity the estimator enforces; 0 = unbounded. Invariant
  /// audits verify neighbors().size() never exceeds it.
  [[nodiscard]] virtual std::size_t table_capacity() const { return 0; }

  /// Network layer gave up on this link; drop it. Returns true when the
  /// table no longer holds `n` (removed, or never present) and false
  /// when the entry is pinned and therefore refuses removal — callers
  /// must not assume a stale pinned neighbor is gone.
  virtual bool remove(NodeId n) = 0;

  /// Wires in the network layer's compare-bit provider (may be null).
  virtual void set_compare_provider(CompareProvider* provider) = 0;

  // ---- telemetry --------------------------------------------------------

  /// Wires in the owning Simulator's telemetry context and this node's
  /// id, so the estimator can emit typed table/ETX events. Estimators
  /// deliberately hold no Simulator reference (layering), which is why
  /// the context arrives by injection. Default: ignore (stateless
  /// estimators, test fakes).
  virtual void set_telemetry(sim::TelemetryContext* telemetry, NodeId self) {
    (void)telemetry;
    (void)self;
  }

  // ---- fault model ------------------------------------------------------

  /// Wipes all estimator state, as a node reboot would: table (including
  /// pins), windows, sequence counters. Default no-op for stateless
  /// estimators and test fakes.
  virtual void reset() {}

 protected:
  /// Marks that link_estimates() may now return something different.
  void bump_version() { ++version_; }

 private:
  std::uint64_t version_ = 0;
};

/// The wrapped beacon as a vector of its own, for code that scripts
/// beacons one at a time (benches, examples, tests). The stack appends
/// into its frame buffer instead.
[[nodiscard]] inline std::vector<std::uint8_t> wrapped_beacon(
    LinkEstimator& estimator, std::span<const std::uint8_t> routing_payload) {
  std::vector<std::uint8_t> out;
  estimator.wrap_beacon(routing_payload, out);
  return out;
}

}  // namespace fourbit::link
