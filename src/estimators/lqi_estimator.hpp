// LQI-based estimator — the physical-layer-only approach of MultiHopLQI.
//
// Link cost is derived entirely from the radio's LQI readings on received
// beacons. This is cheap and agile for *received* packets, but blind to
// packets that never arrive: a link whose PRR collapses under bursty
// interference keeps reporting pristine LQI on its survivors (the paper's
// Figure 3), so the estimate never degrades. on_unicast_result is
// deliberately ignored — MultiHopLQI has no link-layer feedback path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/ring_window.hpp"
#include "link/estimator.hpp"
#include "link/neighbor_table.hpp"
#include "sim/rng.hpp"

namespace fourbit::estimators {

struct LqiEstimatorConfig {
  /// PHY information is free, so the table can be larger than a
  /// probe-based estimator's; MultiHopLQI effectively tracked whichever
  /// beacons it heard. 0 = unbounded.
  std::size_t table_capacity = 16;

  /// History weight of the EWMA over per-beacon LQI readings. The real
  /// MultiHopLQI used the *instantaneous* LQI of the latest routing
  /// beacon (history 0); a light smoothing is available for ablations.
  double lqi_history = 0.5;

  /// etx proxy = 10^((reference - lqi) / slope), clamped to [1, max].
  /// Saturates at 1 for pristine links and grows steeply below ~105 —
  /// mirroring MultiHopLQI's strongly convex LQI-to-cost tables, which
  /// make it demand near-perfect readings and thus take shorter hops.
  double reference_lqi = 108.0;
  double slope = 8.0;
  double max_etx = 16.0;
};

class LqiEstimator final : public link::LinkEstimator {
 public:
  LqiEstimator(LqiEstimatorConfig config, sim::Rng rng);

  void wrap_beacon(std::span<const std::uint8_t> routing_payload,
                   std::vector<std::uint8_t>& out) override;
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& phy) override;

  /// No link-layer feedback: the defining limitation of this estimator.
  void on_unicast_result(NodeId, bool) override {}

  /// Data packets also carry LQI; MultiHopLQI-class protocols read it.
  void on_data_rx(NodeId from, const link::PacketPhyInfo& phy) override;

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
  void set_compare_provider(link::CompareProvider*) override {}
  void set_telemetry(sim::TelemetryContext* telemetry, NodeId self) override {
    telemetry_ = telemetry;
    self_ = self.value();
  }
  void reset() override {
    table_.clear();
    bump_version();
    beacon_seq_ = 0;
  }

  [[nodiscard]] std::optional<double> smoothed_lqi(NodeId n) const;

  /// The LQI -> ETX-proxy mapping, exposed for tests and benches.
  [[nodiscard]] double lqi_to_etx(double lqi) const;

 private:
  struct LinkState {
    Ewma lqi;
    // lqi_to_etx(lqi.value()), refreshed with every EWMA update so the
    // routing engine's per-packet reads never pay the pow().
    double etx = 0.0;
    explicit LinkState(const LqiEstimatorConfig& cfg)
        : lqi(cfg.lqi_history) {}
  };

  using Table = link::NeighborTable<LinkState>;

  void note_lqi(NodeId from, int lqi);

  LqiEstimatorConfig config_;
  sim::Rng rng_;
  Table table_;
  sim::TelemetryContext* telemetry_ = nullptr;
  std::uint16_t self_ = 0xFFFF;
  std::uint8_t beacon_seq_ = 0;
};

}  // namespace fourbit::estimators
