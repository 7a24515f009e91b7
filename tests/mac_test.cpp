// Tests of the MAC layer: frame formats and CSMA/CA with synchronous acks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/csma.hpp"
#include "mac/frame.hpp"
#include "phy/channel.hpp"
#include "phy/interference.hpp"
#include "sim/simulator.hpp"

namespace fourbit::mac {
namespace {

// ---- MacFrame -------------------------------------------------------------

TEST(MacFrameTest, DataRoundTrip) {
  MacFrame f;
  f.type = FrameType::kData;
  f.dsn = 77;
  f.src = NodeId{10};
  f.dst = NodeId{20};
  f.payload = {1, 2, 3, 4, 5};
  const auto bytes = f.encode();
  EXPECT_EQ(bytes.size(),
            MacFrame::kDataHeaderBytes + 5 + MacFrame::kFcsBytes);
  const auto decoded = MacFrame::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::kData);
  EXPECT_EQ(decoded->dsn, 77);
  EXPECT_EQ(decoded->src, NodeId{10});
  EXPECT_EQ(decoded->dst, NodeId{20});
  EXPECT_EQ(decoded->payload, f.payload);
}

TEST(MacFrameTest, AckRoundTrip) {
  MacFrame f;
  f.type = FrameType::kAck;
  f.dsn = 200;
  f.dst = NodeId{33};
  const auto bytes = f.encode();
  EXPECT_EQ(bytes.size(), MacFrame::kAckFrameBytes);
  const auto decoded = MacFrame::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::kAck);
  EXPECT_EQ(decoded->dsn, 200);
  EXPECT_EQ(decoded->dst, NodeId{33});
}

TEST(MacFrameTest, EmptyPayloadAllowed) {
  MacFrame f;
  f.type = FrameType::kData;
  f.src = NodeId{1};
  f.dst = kBroadcastId;
  const auto decoded = MacFrame::decode(f.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
  EXPECT_TRUE(decoded->is_broadcast());
}

TEST(MacFrameTest, TruncatedFrameRejected) {
  const std::vector<std::uint8_t> bytes{0x00, 0x01, 0x02};  // too short
  EXPECT_FALSE(MacFrame::decode(bytes).has_value());
}

TEST(MacFrameTest, UnknownTypeRejected) {
  const std::vector<std::uint8_t> bytes{0x7F, 0, 0, 1, 0, 2};
  EXPECT_FALSE(MacFrame::decode(bytes).has_value());
}

// ---- MacFrameView (zero-copy decode) --------------------------------------

TEST(MacFrameViewTest, ViewMatchesOwnedDecode) {
  MacFrame f;
  f.type = FrameType::kData;
  f.dsn = 42;
  f.src = NodeId{3};
  f.dst = NodeId{9};
  f.payload = {10, 20, 30};
  const auto bytes = f.encode();
  const auto view = MacFrameView::decode(bytes);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, f.type);
  EXPECT_EQ(view->dsn, f.dsn);
  EXPECT_EQ(view->src, f.src);
  EXPECT_EQ(view->dst, f.dst);
  EXPECT_EQ(view->to_owned().payload, f.payload);
  // The whole point: the payload span aliases the input buffer, no copy.
  EXPECT_EQ(view->payload.data(), bytes.data() + MacFrame::kDataHeaderBytes);
  EXPECT_EQ(view->payload.size(), f.payload.size());
}

TEST(MacFrameViewTest, BadFcsRejected) {
  MacFrame f;
  f.type = FrameType::kData;
  f.src = NodeId{1};
  f.dst = NodeId{2};
  f.payload = {5, 6, 7};
  auto bytes = f.encode();
  bytes[3] ^= 0xFF;  // corrupt a header byte; FCS no longer matches
  EXPECT_FALSE(MacFrameView::decode(bytes).has_value());
  EXPECT_FALSE(MacFrame::decode(bytes).has_value());
}

TEST(MacFrameViewTest, EverySingleBitFlipFailsTheFcs) {
  MacFrame data;
  data.type = FrameType::kData;
  data.dsn = 91;
  data.src = NodeId{4};
  data.dst = NodeId{17};
  data.payload = {0x00, 0xFF, 0x5A, 0xA5, 0x12, 0x34, 0x56, 0x78};
  MacFrame ack;
  ack.type = FrameType::kAck;
  ack.dsn = 91;
  ack.dst = NodeId{4};
  for (const MacFrame& frame : {data, ack}) {
    const auto bytes = frame.encode();
    ASSERT_TRUE(MacFrameView::decode(bytes).has_value());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = bytes;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(MacFrameView::decode(flipped).has_value())
            << "type " << static_cast<int>(frame.type) << " byte " << i
            << " bit " << bit;
      }
    }
  }
}

// ---- CsmaMac ----------------------------------------------------------------

class MacFixture : public ::testing::Test {
 protected:
  MacFixture() {
    phy::PropagationConfig prop;
    prop.shadowing_sigma_db = 0.0;
    prop.asymmetry_sigma_db = 0.0;
    channel_ = std::make_unique<phy::Channel>(
        sim_, phy::PhyConfig{}, prop,
        std::make_unique<phy::NullInterference>(), sim::Rng{5});
  }

  struct Node {
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<CsmaMac> mac;
  };

  Node make_node(std::uint16_t id, double x) {
    Node n;
    n.radio = std::make_unique<phy::Radio>(*channel_, NodeId{id},
                                           Position{x, 0.0},
                                           phy::HardwareProfile{},
                                           PowerDbm{0.0});
    n.mac = std::make_unique<CsmaMac>(sim_, *n.radio, CsmaConfig{},
                                      sim::Rng{id});
    return n;
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Channel> channel_;
};

TEST_F(MacFixture, UnicastDeliversAndAcks) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  int delivered = 0;
  b.mac->set_rx_handler([&](NodeId src, std::uint8_t,
                            std::span<const std::uint8_t> payload,
                            const phy::RxInfo&) {
    ++delivered;
    EXPECT_EQ(src, NodeId{1});
    EXPECT_EQ(payload.size(), 8u);
  });
  bool acked = false;
  const std::vector<std::uint8_t> payload(8, 0x11);
  a.mac->send(NodeId{2}, payload,
              [&](const TxResult& r) { acked = r.acked; });
  sim_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(acked);
}

TEST_F(MacFixture, BroadcastDeliversToAllWithoutAck) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  Node c = make_node(3, -5.0);
  int delivered = 0;
  const auto count = [&](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                         const phy::RxInfo&) { ++delivered; };
  b.mac->set_rx_handler(count);
  c.mac->set_rx_handler(count);
  bool done = false;
  bool acked = true;
  a.mac->send(kBroadcastId, std::vector<std::uint8_t>(4, 1),
              [&](const TxResult& r) {
                done = true;
                acked = r.acked;
              });
  sim_.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(done);
  EXPECT_FALSE(acked);  // broadcasts are never acked
}

TEST_F(MacFixture, UnicastToAbsentNodeTimesOut) {
  Node a = make_node(1, 0.0);
  bool done = false;
  bool acked = true;
  a.mac->send(NodeId{99}, std::vector<std::uint8_t>(4, 1),
              [&](const TxResult& r) {
                done = true;
                acked = r.acked;
              });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(acked);
}

TEST_F(MacFixture, UnicastNotForUsIsFiltered) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  Node c = make_node(3, -5.0);
  int c_got = 0;
  c.mac->set_rx_handler([&](NodeId, std::uint8_t,
                            std::span<const std::uint8_t>,
                            const phy::RxInfo&) { ++c_got; });
  b.mac->set_rx_handler([](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                           const phy::RxInfo&) {});
  a.mac->send(NodeId{2}, std::vector<std::uint8_t>(4, 1), nullptr);
  sim_.run();
  EXPECT_EQ(c_got, 0);
}

TEST_F(MacFixture, QueueServicesInFifoOrder) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  std::vector<int> order;
  b.mac->set_rx_handler([&](NodeId, std::uint8_t,
                            std::span<const std::uint8_t> payload,
                            const phy::RxInfo&) {
    order.push_back(payload[0]);
  });
  for (int i = 0; i < 5; ++i) {
    a.mac->send(NodeId{2}, std::vector<std::uint8_t>(1, i), nullptr);
  }
  EXPECT_EQ(a.mac->queue_depth(), 5u);
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(a.mac->queue_depth(), 0u);
}

TEST_F(MacFixture, DsnIncrementsPerFrame) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  std::vector<int> dsns;
  b.mac->set_rx_handler([&](NodeId, std::uint8_t dsn,
                            std::span<const std::uint8_t>,
                            const phy::RxInfo&) { dsns.push_back(dsn); });
  for (int i = 0; i < 3; ++i) {
    a.mac->send(NodeId{2}, std::vector<std::uint8_t>(1, 0), nullptr);
  }
  sim_.run();
  ASSERT_EQ(dsns.size(), 3u);
  EXPECT_EQ(dsns[1], (dsns[0] + 1) % 256);
  EXPECT_EQ(dsns[2], (dsns[0] + 2) % 256);
}

TEST_F(MacFixture, TxListenerSeesDataAndAcks) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  int data_frames = 0;
  int ack_frames = 0;
  const auto classify = [&](const MacFrame& f) {
    (f.type == FrameType::kData ? data_frames : ack_frames) += 1;
  };
  a.mac->set_tx_listener(classify);
  b.mac->set_tx_listener(classify);
  a.mac->send(NodeId{2}, std::vector<std::uint8_t>(4, 1), nullptr);
  sim_.run();
  EXPECT_EQ(data_frames, 1);
  EXPECT_EQ(ack_frames, 1);
}

TEST_F(MacFixture, BackoffDefersToBusyChannel) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  Node blocker = make_node(3, 2.0);

  int delivered = 0;
  b.mac->set_rx_handler([&](NodeId, std::uint8_t,
                            std::span<const std::uint8_t>,
                            const phy::RxInfo&) { ++delivered; });

  // A long frame occupies the channel; a's CSMA must wait it out rather
  // than collide (the blocker is loud at both a and b).
  blocker.radio->transmit(std::vector<std::uint8_t>(120, 9), nullptr);
  a.mac->send(NodeId{2}, std::vector<std::uint8_t>(8, 1), nullptr);
  sim_.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(MacFixture, ConcurrentSendersBothSucceed) {
  // CSMA serializes two simultaneous senders in range of each other.
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  Node c = make_node(3, 2.5);
  int delivered = 0;
  c.mac->set_rx_handler([&](NodeId, std::uint8_t,
                            std::span<const std::uint8_t>,
                            const phy::RxInfo&) { ++delivered; });
  int acks = 0;
  const auto on_done = [&](const TxResult& r) {
    if (r.acked) ++acks;
  };
  for (int i = 0; i < 10; ++i) {
    a.mac->send(NodeId{3}, std::vector<std::uint8_t>(20, 1), on_done);
    b.mac->send(NodeId{3}, std::vector<std::uint8_t>(20, 2), on_done);
  }
  sim_.run();
  // CSMA serializes almost everything; the occasional simultaneous
  // backoff expiry can still collide, so allow a small loss.
  EXPECT_GE(delivered, 18);
  EXPECT_GE(acks, 18);
  EXPECT_EQ(delivered, acks);
}

TEST_F(MacFixture, LossyLinkYieldsMixedAckResults) {
  // Move b to the PRR gray zone; some transmissions ack, some do not.
  Node a = make_node(1, 0.0);
  double gray_distance = 40.0;
  for (double d = 40.0; d < 200.0; d += 1.0) {
    Node probe = make_node(1000 + static_cast<std::uint16_t>(d), d);
    const double prr = channel_->mean_prr(*a.radio, *probe.radio, 30);
    if (prr < 0.8 && prr > 0.3) {
      gray_distance = d;
      break;
    }
  }
  Node b = make_node(2, gray_distance);
  b.mac->set_rx_handler([](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                           const phy::RxInfo&) {});
  int acked = 0;
  int unacked = 0;
  for (int i = 0; i < 200; ++i) {
    a.mac->send(NodeId{2}, std::vector<std::uint8_t>(24, 1),
                [&](const TxResult& r) { (r.acked ? acked : unacked) += 1; });
    sim_.run();
  }
  EXPECT_GT(acked, 10);
  EXPECT_GT(unacked, 10);
}

TEST_F(MacFixture, ChannelFcsVerdictGatesDelivery) {
  // Raw frames from a bare radio (no MAC of its own) through the real
  // channel: the MAC must act on the channel's one-per-transmission FCS
  // verdict, so a MAC-shaped frame with a wrong trailer is counted and
  // dropped at every receiver, and a valid one reaches all of them.
  phy::Radio sender{*channel_, NodeId{1}, Position{0.0, 0.0},
                    phy::HardwareProfile{}, PowerDbm{0.0}};
  std::vector<Node> nodes;
  nodes.push_back(make_node(2, 4.0));
  nodes.push_back(make_node(3, -4.0));
  nodes.push_back(make_node(4, 8.0));
  int received = 0;
  int snooped = 0;
  for (Node& n : nodes) {
    n.mac->set_rx_handler([&](NodeId, std::uint8_t,
                              std::span<const std::uint8_t>,
                              const phy::RxInfo&) { ++received; });
    n.mac->set_snoop_handler([&](NodeId, std::uint8_t,
                                 std::span<const std::uint8_t>,
                                 const phy::RxInfo&) { ++snooped; });
  }

  // Unicast to node 2 (its rx handler would fire), overheard by 3 and 4
  // (their snoop handlers would fire), with the trailer off by one bit.
  MacFrame data;
  data.type = FrameType::kData;
  data.dsn = 7;
  data.src = NodeId{1};
  data.dst = NodeId{2};
  data.payload = {1, 2, 3, 4, 5, 6};
  auto bad = data.encode();
  bad.back() ^= 0x01;
  ASSERT_TRUE(MacFrameView::parse(bad).has_value());
  sender.transmit(bad, nullptr);
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(snooped, 0);
  for (const Node& n : nodes) EXPECT_EQ(n.mac->fcs_failures(), 1u);

  data.dst = kBroadcastId;
  sender.transmit(data.encode(), nullptr);
  sim_.run();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(snooped, 0);
  for (const Node& n : nodes) EXPECT_EQ(n.mac->fcs_failures(), 1u);
}

}  // namespace
}  // namespace fourbit::mac
