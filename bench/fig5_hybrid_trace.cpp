// Figure 5 — worked example of the hybrid estimator.
//
// The paper traces the 4B estimator over a scripted packet pattern with
// unicast window ku = 5 and beacon window kb = 2, showing the unicast ETX
// samples, the beacon PRR EWMA, and the combined hybrid ETX. This bench
// replays an equivalent script directly against the FourBitEstimator
// public API and prints each intermediate value.
//
// Paper values visible in Figure 5: unicast samples 1.0, 1.25, 5.0 and a
// failure-streak sample of 6; beacon EWMA 0.83 (and 0.67 later); ETX
// stream value 1.2 = 1/0.83; hybrid ETX points 3.1, 2.1, 1.7, 3.9.
#include <cstdio>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "link/estimator.hpp"
#include "sim/rng.hpp"

using namespace fourbit;

namespace {

/// Feeds one beacon with sequence number `seq` from node 1.
void beacon(core::FourBitEstimator& est, std::uint8_t seq) {
  const link::FixedPhyInfo phy{/*white=*/true, /*lqi=*/0};
  const std::vector<std::uint8_t> wire = [&] {
    // Estimator wire format: [seq][routing payload]; build it by hand so
    // the trace drives exactly one input.
    std::vector<std::uint8_t> v{seq};
    return v;
  }();
  (void)est.unwrap_beacon(NodeId{1}, wire, phy);
}

void print_state(const core::FourBitEstimator& est, const char* what) {
  const auto q = est.beacon_quality(NodeId{1});
  const auto e = est.etx(NodeId{1});
  std::printf("  %-28s beacon-EWMA=%-6s hybrid-ETX=%s\n", what,
              q ? [&] { static char b[32]; std::snprintf(b, 32, "%.2f", *q); return b; }() : "-",
              e ? [&] { static char b[32]; std::snprintf(b, 32, "%.2f", *e); return b; }() : "-");
}

}  // namespace

int main() {
  std::printf("=== Figure 5: hybrid data/beacon windowed-mean EWMA trace ===\n");
  std::printf("ku=5, kb=2, beacon-EWMA history=2/3, combine history=1/2\n\n");

  core::FourBitConfig cfg;
  cfg.unicast_window = 5;
  cfg.beacon_window = 2;
  core::FourBitEstimator est{cfg, sim::Rng{1}};

  // --- Beacon bootstrap: two perfect beacons -> PRR window 2/2 = 1.0 ---
  beacon(est, 0);
  beacon(est, 1);
  print_state(est, "2 beacons (2/2 -> PRR 1.0)");

  // --- Unicast window #1: 5/5 acked -> sample 1.0 -----------------------
  for (int i = 0; i < 5; ++i) est.on_unicast_result(NodeId{1}, true);
  print_state(est, "5/5 acked (sample 1.00)");

  // --- Beacon window: 1 of 2 received (seq jumps by 2) -> PRR 0.5 ------
  beacon(est, 3);
  print_state(est, "1/2 beacons (EWMA -> 0.83)");

  // --- Unicast window #2: 4/5 acked -> sample 1.25 ----------------------
  for (int i = 0; i < 4; ++i) est.on_unicast_result(NodeId{1}, true);
  est.on_unicast_result(NodeId{1}, false);
  print_state(est, "4/5 acked (sample 1.25)");

  // --- Unicast window #3: 1/5 acked -> sample 5.0 -----------------------
  est.on_unicast_result(NodeId{1}, true);
  for (int i = 0; i < 4; ++i) est.on_unicast_result(NodeId{1}, false);
  print_state(est, "1/5 acked (sample 5.00)");

  // --- Beacon window: 1/2 again -> EWMA decays toward 0.5 ---------------
  beacon(est, 5);
  print_state(est, "1/2 beacons (ETX sample 1/EWMA)");

  // --- Unicast window #4: 4/5 acked -> sample 1.25 ----------------------
  for (int i = 0; i < 4; ++i) est.on_unicast_result(NodeId{1}, true);
  est.on_unicast_result(NodeId{1}, false);
  print_state(est, "4/5 acked (sample 1.25)");

  // --- Unicast window #5: 0/5 acked, streak reaches 6 -> sample 6 -------
  // The previous window ended with 1 failure; five more make a streak of
  // 6 failed deliveries since the last success.
  for (int i = 0; i < 5; ++i) est.on_unicast_result(NodeId{1}, false);
  print_state(est, "0/5 acked (streak sample 6)");

  std::printf(
      "\npaper reference points: beacon EWMA 0.83; ETX sample 1.2; hybrid\n"
      "ETX ~3.1 after the 5.0 sample, ~2.1 then ~1.7 recovering, ~3.9\n"
      "after the failure streak of 6.\n");
  return 0;
}
