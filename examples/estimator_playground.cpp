// estimator_playground: drive the 4B estimator's public API directly —
// no radio, no simulator — to see how the four bits shape its estimates.
//
// This is the "library" use of fourbit::core: you can embed the estimator
// in any stack that can feed it beacons (with the white bit), unicast
// outcomes (the ack bit), and pin/compare signals from your routing layer.
#include <cstdio>
#include <string>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "link/estimator.hpp"
#include "sim/rng.hpp"

using namespace fourbit;

namespace {

/// A toy network layer: answers the compare bit from a fixed route table.
class ToyRouting final : public link::CompareProvider {
 public:
  bool compare_bit(NodeId candidate,
                   std::span<const std::uint8_t>) override {
    std::printf("  [compare bit] estimator asked about node %u -> %s\n",
                candidate.value(), answer ? "yes, better" : "no");
    return answer;
  }
  bool answer = true;
};

void show(const core::FourBitEstimator& est, NodeId n) {
  const auto etx = est.etx(n);
  const auto q = est.beacon_quality(n);
  std::printf("  node %u: ETX=%s beacon-quality=%s\n", n.value(),
              etx ? std::to_string(*etx).substr(0, 5).c_str() : "unknown",
              q ? std::to_string(*q).substr(0, 5).c_str() : "unknown");
}

}  // namespace

int main() {
  core::FourBitConfig cfg;
  cfg.table_capacity = 3;  // tiny table to show the admission machinery
  cfg.probabilistic_insert_p = 0.0;  // isolate the white/compare fast path
  core::FourBitEstimator est{cfg, sim::Rng{2024}};
  ToyRouting routing;
  est.set_compare_provider(&routing);

  std::printf("== 1. Bootstrap from beacons ==\n");
  link::FixedPhyInfo clean{true, 110};
  for (std::uint8_t seq = 0; seq < 4; ++seq) {
    const std::vector<std::uint8_t> wire{seq};
    (void)est.unwrap_beacon(NodeId{1}, wire, clean);
  }
  show(est, NodeId{1});

  std::printf("\n== 2. The ack bit refines the estimate ==\n");
  std::printf("  sending 10 unicast packets, 60%% acked...\n");
  const bool pattern[10] = {true, true, false, true, false,
                            true, true, false, true, false};
  for (const bool acked : pattern) est.on_unicast_result(NodeId{1}, acked);
  show(est, NodeId{1});

  std::printf("\n== 3. Pin the route in use; fill the table ==\n");
  if (est.pin(NodeId{1})) {
    std::printf("  pinned node 1 (our parent); churn cannot evict it\n");
  }
  for (std::uint16_t id = 2; id <= 3; ++id) {
    const std::vector<std::uint8_t> wire{0};
    (void)est.unwrap_beacon(NodeId{id}, wire, clean);
  }
  std::printf("  table: %zu/%zu entries\n", est.table_size(),
              cfg.table_capacity);

  std::printf("\n  a beacon WITHOUT the white bit (noisy packet):\n");
  link::FixedPhyInfo noisy{false, 78};
  const std::vector<std::uint8_t> wire{0};
  (void)est.unwrap_beacon(NodeId{4}, wire, noisy);
  show(est, NodeId{4});

  std::printf("\n  a WHITE beacon whose route wins the compare bit:\n");
  (void)est.unwrap_beacon(NodeId{5}, wire, clean);
  show(est, NodeId{5});

  std::printf("\n== 4. The pin bit holds against admission churn ==\n");
  routing.answer = true;
  for (std::uint16_t id = 10; id < 30; ++id) {
    (void)est.unwrap_beacon(NodeId{id}, wire, clean);
  }
  std::printf("  after 20 more admission attempts: ");
  show(est, NodeId{1});

  std::printf("\n== 5. A link goes dark; the failure streak shows it ==\n");
  for (int i = 0; i < 15; ++i) est.on_unicast_result(NodeId{1}, false);
  show(est, NodeId{1});
  std::printf(
      "\nthe estimate rose within ~5 transmissions of the outage — beacon-\n"
      "only estimators would wait for the next routing beacon to notice.\n");
  return 0;
}
