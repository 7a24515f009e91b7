// Broadcast-probe bidirectional ETX estimator — the stock estimator of
// CTP / MintRoute (Woo et al.), the paper's "CTP T2" baseline.
//
// Beacons carry a footer listing (neighbor, inbound reception quality)
// pairs, so each side can combine the two directions into a bidirectional
// ETX = 1 / (quality_fwd * quality_rev). Two structural weaknesses — both
// demonstrated by the paper — follow directly:
//   * a node can only be chosen as a parent by neighbors that appear in
//     ITS table (otherwise it never reports their inbound quality), so
//     the table size caps a node's useful in-degree;
//   * estimates move only at the beacon rate: when a link dies under data
//     traffic, the estimator finds out beacons later, not acks later.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/ring_window.hpp"
#include "core/four_bit_config.hpp"
#include "link/estimator.hpp"
#include "link/neighbor_table.hpp"
#include "sim/rng.hpp"

namespace fourbit::estimators {

struct BroadcastEtxConfig {
  /// Link table size; 0 = unbounded ("CTP unconstrained").
  std::size_t table_capacity = 10;

  /// Expected beacons per inbound-PRR sample.
  std::size_t beacon_window = 2;

  /// History weight of the EWMA over inbound PRR samples.
  double prr_history = 2.0 / 3.0;

  /// Max (neighbor, quality) pairs per beacon footer; a full table is
  /// reported round-robin across consecutive beacons.
  std::size_t footer_max = 6;

  /// Table admission rule. kProbabilistic is the Woo baseline; the
  /// "CTP + white/compare" variant of Figure 6 uses kWhiteCompare.
  core::InsertionPolicy insertion = core::InsertionPolicy::kProbabilistic;
  double probabilistic_insert_p = 0.25;

  double max_etx = 16.0;
};

class BroadcastEtxEstimator final : public link::LinkEstimator {
 public:
  /// `self` is this node's address — needed to recognize this node in
  /// incoming beacon footers (the reverse-direction quality report).
  BroadcastEtxEstimator(NodeId self, BroadcastEtxConfig config, sim::Rng rng);

  void wrap_beacon(std::span<const std::uint8_t> routing_payload,
                   std::vector<std::uint8_t>& out) override;
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& phy) override;

  /// The stock estimator has no link-layer input: acks are ignored.
  void on_unicast_result(NodeId, bool) override {}

  bool pin(NodeId n) override;
  void unpin(NodeId n) override;
  void clear_pins() override;
  [[nodiscard]] std::optional<double> etx(NodeId n) const override;
  [[nodiscard]] std::vector<NodeId> neighbors() const override;
  void link_estimates(std::vector<link::LinkEstimate>& out) const override;
  [[nodiscard]] std::vector<NodeId> pinned() const override {
    return table_.pinned_nodes();
  }
  [[nodiscard]] std::size_t table_capacity() const override {
    return table_.capacity();
  }
  bool remove(NodeId n) override;
  void set_compare_provider(link::CompareProvider* provider) override {
    compare_ = provider;
  }
  void set_telemetry(sim::TelemetryContext* telemetry, NodeId) override {
    telemetry_ = telemetry;
  }
  void reset() override {
    table_.clear();
    bump_version();
    beacon_seq_ = 0;
    footer_rotation_ = 0;
  }

  // Introspection for tests.
  [[nodiscard]] std::optional<double> inbound_quality(NodeId n) const;
  [[nodiscard]] std::optional<double> reverse_quality(NodeId n) const;
  [[nodiscard]] std::size_t table_size() const { return table_.size(); }

 private:
  struct LinkState {
    bool has_seq = false;
    std::uint8_t last_seq = 0;
    std::uint32_t window_received = 0;
    std::uint32_t window_expected = 0;
    Ewma inbound_prr;  // what we receive from them
    bool has_reverse = false;
    double reverse_prr = 0.0;  // what they report receiving from us

    explicit LinkState(const BroadcastEtxConfig& cfg)
        : inbound_prr(cfg.prr_history) {}
  };

  using Table = link::NeighborTable<LinkState>;

  [[nodiscard]] std::optional<double> link_etx(const LinkState& st) const;
  [[nodiscard]] bool try_admit(NodeId from, const link::PacketPhyInfo& phy,
                               std::span<const std::uint8_t> payload);

  NodeId self_;
  BroadcastEtxConfig config_;
  sim::Rng rng_;
  Table table_;
  link::CompareProvider* compare_ = nullptr;
  sim::TelemetryContext* telemetry_ = nullptr;
  std::uint8_t beacon_seq_ = 0;
  std::size_t footer_rotation_ = 0;
};

}  // namespace fourbit::estimators
