// The 4B link estimator (Section 3.3 of the paper).
//
// A hybrid data/beacon windowed-mean EWMA estimator:
//  * beacons carry only a sequence number (NOT reverse-link state — the
//    ack bit measures bidirectionality directly, which decouples node
//    in-degree from table size);
//  * every kb expected beacons, the reception fraction feeds an EWMA
//    whose inverse is a broadcast ETX sample;
//  * every ku unicast data transmissions, the acked fraction yields a
//    unicast ETX sample (or, if none were acked, the length of the
//    current failure streak);
//  * both sample streams merge in one outer EWMA: under heavy data
//    traffic unicast samples dominate, on a quiet network beacons do.
//
// Table management follows Woo et al. with the paper's amendment: a
// routing beacon with the white bit set, from an unknown node whose
// compare bit comes back true, flushes a random unpinned entry.
//
// This class depends ONLY on the narrow interfaces in link/ — never on
// the PHY, MAC, or routing implementations (the repository's build graph
// enforces that).
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

namespace fourbit::core {

class FourBitEstimator final : public link::LinkEstimator {
 public:
  FourBitEstimator(FourBitConfig config, sim::Rng rng);

  // ---- link::LinkEstimator ----
  void wrap_beacon(std::span<const std::uint8_t> routing_payload,
                   std::vector<std::uint8_t>& out) override;
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> unwrap_beacon(
      NodeId from, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo& phy) override;
  void on_unicast_result(NodeId to, bool acked) override;
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
  void set_telemetry(sim::TelemetryContext* telemetry, NodeId self) override {
    telemetry_ = telemetry;
    self_ = self.value();
  }
  void reset() override;

  // ---- introspection (tests, benches) ----
  [[nodiscard]] const FourBitConfig& config() const { return config_; }
  [[nodiscard]] std::size_t table_size() const { return table_.size(); }
  [[nodiscard]] std::uint8_t beacon_seq() const { return beacon_seq_; }

  /// Times note_beacon classified a large seq gap as a neighbor reboot
  /// and resynchronized instead of charging phantom losses.
  [[nodiscard]] std::uint64_t seq_resets() const { return seq_resets_; }

  /// Most recent beacon-PRR EWMA for `n` (tests of the inner estimator).
  [[nodiscard]] std::optional<double> beacon_quality(NodeId n) const;

 private:
  struct LinkState {
    // Beacon (broadcast) side.
    bool has_seq = false;
    std::uint8_t last_seq = 0;
    std::uint32_t window_received = 0;
    std::uint32_t window_expected = 0;
    Ewma beacon_prr;
    // Unicast (data) side.
    std::uint32_t window_tx = 0;
    std::uint32_t window_acked = 0;
    std::uint32_t failures_since_success = 0;
    // Combined estimate.
    Ewma etx;

    explicit LinkState(const FourBitConfig& cfg)
        : beacon_prr(cfg.beacon_prr_history), etx(cfg.etx_history) {}
  };

  using Table = link::NeighborTable<LinkState>;

  void note_beacon(Table::Entry& entry, std::uint8_t seq,
                   const link::PacketPhyInfo& phy);
  /// Feeds one sample into the outer EWMA; `from_data` says which stream
  /// produced it (unicast ack window vs beacon window) for telemetry.
  void feed_etx_sample(NodeId peer, LinkState& st, double sample,
                       bool from_data);
  [[nodiscard]] bool try_admit(NodeId from, const link::PacketPhyInfo& phy,
                               std::span<const std::uint8_t> payload);

  FourBitConfig config_;
  sim::Rng rng_;
  Table table_;
  link::CompareProvider* compare_ = nullptr;
  sim::TelemetryContext* telemetry_ = nullptr;
  std::uint16_t self_ = 0xFFFF;
  std::uint8_t beacon_seq_ = 0;
  std::uint64_t seq_resets_ = 0;
};

}  // namespace fourbit::core
