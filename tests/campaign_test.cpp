// Tests of the parallel campaign runner: seed derivation, result
// ordering, progress reporting, and the determinism contract (a sweep is
// bit-identical no matter how many worker threads execute it).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "runner/campaign.hpp"
#include "sim/rng.hpp"
#include "topology/topology.hpp"

namespace fourbit::runner {
namespace {

/// A small, fast trial: a truncated Mirage testbed for a short run.
ExperimentConfig small_trial(std::uint64_t seed) {
  sim::Rng rng{seed};
  ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.testbed.topology.nodes.resize(16);
  cfg.duration = sim::Duration::from_minutes(3.0);
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.mean_depth, b.mean_depth);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
  EXPECT_EQ(a.beacon_tx, b.beacon_tx);
  EXPECT_EQ(a.radio_frames, b.radio_frames);
  EXPECT_EQ(a.retx_drops, b.retx_drops);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.parent_changes, b.parent_changes);
  EXPECT_EQ(a.final_tree.depths, b.final_tree.depths);
}

TEST(CampaignTest, SeedSweepDerivesSeedsFromBasePlusIndex) {
  ExperimentConfig base;
  base.seed = 100;
  const auto trials = Campaign::seed_sweep(base, 5);
  ASSERT_EQ(trials.size(), 5u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].seed, 100u + i);
  }
}

TEST(CampaignTest, EmptyTrialListYieldsEmptyResults) {
  EXPECT_TRUE(Campaign::run({}).empty());
}

// The acceptance contract: the same sweep on 1 thread and on N threads
// produces bit-identical per-trial results (and therefore aggregates).
TEST(CampaignTest, ThreadCountDoesNotChangeResults) {
  const auto trials = Campaign::seed_sweep(small_trial(42), 6);

  Campaign::Options serial;
  serial.threads = 1;
  const auto a = Campaign::run(trials, serial);

  Campaign::Options parallel;
  parallel.threads = 4;
  const auto b = Campaign::run(trials, parallel);

  ASSERT_EQ(a.size(), trials.size());
  ASSERT_EQ(b.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(a[i], b[i]);
  }

  const auto sa = summarize(a);
  const auto sb = summarize(b);
  EXPECT_EQ(sa.cost.mean, sb.cost.mean);
  EXPECT_EQ(sa.cost.stddev, sb.cost.stddev);
  EXPECT_EQ(sa.delivery_ratio.mean, sb.delivery_ratio.mean);
  EXPECT_EQ(sa.mean_depth.quartiles.median, sb.mean_depth.quartiles.median);
}

// Every trial runs on the calendar event queue (the heap survives only
// as the queue-level reference in sim_test). What stays to pin here is
// that the queue's own engine-health fields, like the results, belong
// to the trial: a trial owns its simulator, so arena growth and
// calendar rebuilds are the same on 1 thread and on 4.
TEST(CampaignTest, QueueImplAndThreadCountDoNotChangeResults) {
  const auto trials = Campaign::seed_sweep(small_trial(21), 4);

  Campaign::Options serial;
  serial.threads = 1;
  Campaign::Options parallel;
  parallel.threads = 4;

  const auto one = Campaign::run(trials, serial);
  const auto four = Campaign::run(trials, parallel);

  ASSERT_EQ(one.size(), trials.size());
  ASSERT_EQ(four.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(one[i], four[i]);
    EXPECT_EQ(one[i].arena_bytes, four[i].arena_bytes);
    EXPECT_EQ(one[i].eq_resizes, four[i].eq_resizes);
  }
}

TEST(CampaignTest, ResultsIndexedByTrialNotCompletionOrder) {
  // Distinct seeds make distinct results; re-running any single trial
  // alone must reproduce the slot the campaign assigned it.
  const auto trials = Campaign::seed_sweep(small_trial(7), 3);
  Campaign::Options options;
  options.threads = 3;
  const auto all = Campaign::run(trials, options);
  const auto solo = run_experiment(trials[1]);
  expect_identical(all[1], solo);
}

TEST(CampaignTest, ProgressCallbackSeesEveryTrialExactlyOnce) {
  const auto trials = Campaign::seed_sweep(small_trial(3), 4);
  std::vector<std::size_t> indices;
  std::vector<std::size_t> completed;
  Campaign::Options options;
  options.threads = 2;
  options.on_trial_done = [&](const TrialProgress& p) {
    // Serialized by the campaign's progress mutex: no locking needed.
    indices.push_back(p.trial_index);
    completed.push_back(p.completed);
    EXPECT_EQ(p.total, 4u);
    ASSERT_NE(p.config, nullptr);
    ASSERT_NE(p.result, nullptr);
    EXPECT_EQ(p.config->seed, trials[p.trial_index].seed);
  };
  (void)Campaign::run(trials, options);

  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3}));
  std::sort(completed.begin(), completed.end());
  EXPECT_EQ(completed, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(CampaignTest, PooledPerNodeDeliveryConcatenates) {
  ExperimentResult r1, r2;
  r1.per_node_delivery = {0.5, 1.0};
  r2.per_node_delivery = {0.25};
  const auto pooled = pooled_per_node_delivery({r1, r2});
  EXPECT_EQ(pooled, (std::vector<double>{0.5, 1.0, 0.25}));
}

TEST(CampaignTest, ConsumeThreadsFlagStripsArguments) {
  char prog[] = "bench";
  char a1[] = "30";
  char flag[] = "--threads";
  char n[] = "8";
  char a2[] = "5";
  char* argv[] = {prog, a1, flag, n, a2};
  int argc = 5;
  EXPECT_EQ(consume_threads_flag(argc, argv), 8u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "30");
  EXPECT_STREQ(argv[2], "5");

  // Absent flag: untouched.
  char* argv2[] = {prog, a1};
  int argc2 = 2;
  EXPECT_EQ(consume_threads_flag(argc2, argv2), 0u);
  EXPECT_EQ(argc2, 2);
}

}  // namespace
}  // namespace fourbit::runner
