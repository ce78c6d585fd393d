// Tests for the analytic cost model (src/cost/) and cost-aware
// scheduling (DistConfig::sched_policy): MAC/byte accounting against
// hand-computed layer shapes, machine-profile JSON round-trips,
// shard-partition mirroring, registry coverage (every scenario yields
// a finite estimate), prediction-vs-measured tolerance against
// recorded shard timings, and the standing invariant that scheduling
// policy never changes artifact bytes — uniform, cost, and feedback
// merge byte-identical checkpoints at 1 and 3 workers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_runner.h"
#include "campaign/streaming.h"
#include "cost/cost_model.h"
#include "cost/machine_profile.h"
#include "dist/dist_campaign.h"
#include "nn/c3f2.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "obs/shard_timing.h"
#include "obs/trace.h"
#include "scenario/builtin_scenarios.h"
#include "scenario/scenario.h"
#include "util/histogram.h"
#include "util/rng.h"

// Clang spells ASan detection __has_feature; GCC defines
// __SANITIZE_ADDRESS__ directly (checked at the use site).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTNAV_TEST_ASAN 1
#endif
#endif
#ifndef FTNAV_TEST_ASAN
#define FTNAV_TEST_ASAN 0
#endif

namespace ftnav {
namespace {

struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_cost_" + name))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- MAC/byte accounting vs hand-computed layer shapes -------------------

TEST(NetworkWork, C3F2FastForwardMacsMatchHandComputation) {
  // kFast preset: 3x39x39 input.
  //   conv1 16@5x5/2: out 16x18x18, 16*18*18*3*5*5   = 388,800 MACs
  //   pool  2x2:      out 16x9x9,   element-wise     = 0
  //   conv2 32@3x3/2: out 32x4x4,   32*4*4*16*3*3    =  73,728
  //   conv3 32@3x3/1: out 32x2x2,   32*2*2*32*3*3    =  36,864
  //   flatten:        128
  //   fc1 128->128:                                   =  16,384
  //   fc2 128->25:                                    =   3,200
  //                                            total  = 518,976
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Rng rng(7);
  const Network net = make_c3f2(config, rng);
  const cost::Work work =
      cost::network_forward_work(net, config.input_shape(), 2.0);
  EXPECT_DOUBLE_EQ(work.macs, 518976.0);
  // Bytes: input + every layer's output activations + one pass over
  // the weights, all at 2 bytes/word. Spot-check it is nonzero and at
  // least covers the parameter stream.
  EXPECT_GE(work.bytes, 2.0 * static_cast<double>(net.parameter_count()));
  EXPECT_EQ(work.grid_steps, 0.0);
  EXPECT_EQ(work.drone_steps, 0.0);
}

TEST(NetworkWork, SingleLayersMatchHandComputation) {
  Rng rng(7);
  {
    Network net;
    net.add(std::make_unique<Conv2D>(3, 16, 5, 2, rng));
    const cost::Work work =
        cost::network_forward_work(net, Shape{3, 39, 39}, 2.0);
    EXPECT_DOUBLE_EQ(work.macs, 16.0 * 18 * 18 * 3 * 5 * 5);
  }
  {
    Network net;
    net.add(std::make_unique<Dense>(128, 25, rng));
    const cost::Work work =
        cost::network_forward_work(net, Shape{1, 1, 128}, 2.0);
    EXPECT_DOUBLE_EQ(work.macs, 128.0 * 25);
  }
}

TEST(NetworkWork, GridMlpForwardMacsMatchHandComputation) {
  // The 10x10 preset gridworlds one-hot into 100 inputs; the MLP-Q
  // policy is 100 -> 48 -> 4: 100*48 + 48*4 = 4,992 MACs.
  Rng rng(7);
  Network net;
  net.add(std::make_unique<Dense>(100, 48, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(48, 4, rng));
  const cost::Work work =
      cost::network_forward_work(net, Shape{1, 1, 100}, 1.0);
  EXPECT_DOUBLE_EQ(work.macs, 4992.0);
}

TEST(NetworkWork, UpdateIsThreeForwardsAndInjectRestoreIsTwoPasses) {
  const C3F2Config config = C3F2Config::preset(C3F2Preset::kFast);
  Rng rng(7);
  const Network net = make_c3f2(config, rng);
  const cost::Work forward =
      cost::network_forward_work(net, config.input_shape(), 2.0);
  const cost::Work update =
      cost::network_update_work(net, config.input_shape(), 2.0);
  EXPECT_DOUBLE_EQ(update.macs, 3.0 * forward.macs);
  EXPECT_DOUBLE_EQ(update.bytes, 3.0 * forward.bytes);
  EXPECT_DOUBLE_EQ(cost::inject_restore_bytes(1000, 2.0), 4000.0);
}

// ---- machine profile ------------------------------------------------------

TEST(MachineProfileJson, RoundTripsThroughToJson) {
  cost::MachineProfile profile;
  profile.mac_rate = 123e9;
  profile.byte_rate = 4.5e9;
  profile.grid_step_rate = 6.7e6;
  profile.drone_step_rate = 8.9e5;
  profile.trial_overhead_seconds = 1.25e-6;
  const cost::MachineProfile parsed =
      cost::MachineProfile::from_json_text(profile.to_json());
  EXPECT_DOUBLE_EQ(parsed.mac_rate, profile.mac_rate);
  EXPECT_DOUBLE_EQ(parsed.byte_rate, profile.byte_rate);
  EXPECT_DOUBLE_EQ(parsed.grid_step_rate, profile.grid_step_rate);
  EXPECT_DOUBLE_EQ(parsed.drone_step_rate, profile.drone_step_rate);
  EXPECT_DOUBLE_EQ(parsed.trial_overhead_seconds,
                   profile.trial_overhead_seconds);
}

TEST(MachineProfileJson, RejectsMalformedAndInvalidProfiles) {
  // Missing schema, wrong schema, unknown key, non-positive rate,
  // trailing garbage: all hard errors, never silent defaults.
  EXPECT_THROW(cost::MachineProfile::from_json_text("{}"),
               std::runtime_error);
  EXPECT_THROW(cost::MachineProfile::from_json_text(
                   "{\"schema\": \"wrong-schema\"}"),
               std::runtime_error);
  EXPECT_THROW(cost::MachineProfile::from_json_text(
                   "{\"schema\": \"ftnav-machine-profile-v1\", "
                   "\"bogus_rate\": 1.0}"),
               std::runtime_error);
  EXPECT_THROW(cost::MachineProfile::from_json_text(
                   "{\"schema\": \"ftnav-machine-profile-v1\", "
                   "\"mac_rate\": 0}"),
               std::runtime_error);
  EXPECT_THROW(cost::MachineProfile::from_json_text(
                   "{\"schema\": \"ftnav-machine-profile-v1\"} x"),
               std::runtime_error);
  // Partial profiles keep defaults for the unnamed rates.
  const cost::MachineProfile partial = cost::MachineProfile::from_json_text(
      "{\"schema\": \"ftnav-machine-profile-v1\", \"mac_rate\": 5e9}");
  EXPECT_DOUBLE_EQ(partial.mac_rate, 5e9);
  EXPECT_DOUBLE_EQ(partial.byte_rate, cost::MachineProfile{}.byte_rate);
}

// ---- campaign cost arithmetic --------------------------------------------

TEST(CampaignCostMath, ShardPartitionMirrorsTheRunner) {
  cost::CampaignCost campaign;
  campaign.label = "test";
  campaign.trials = 400;
  campaign.per_trial.grid_steps = 100.0;
  EXPECT_EQ(campaign.shard_count(), stream_shard_count(400));

  const cost::MachineProfile profile;
  // Summing the per-shard predictions reproduces the campaign total
  // (the partition is exact, not an average).
  double total = 0.0;
  for (std::size_t shard = 0; shard < campaign.shard_count(); ++shard)
    total += campaign.shard_seconds(profile, shard);
  EXPECT_NEAR(total, campaign.seconds(profile),
              1e-12 * campaign.seconds(profile));
  // 400 = 64 shards of 6 or 7 trials: shard 0 is one of the longer
  // ones, so its prediction must exceed the mean.
  EXPECT_GT(campaign.shard_seconds(profile, 0),
            campaign.mean_shard_seconds(profile));
}

TEST(CampaignCostMath, PerfTrialCountOverridesReportedUnits) {
  cost::CampaignCost campaign;
  campaign.trials = 10;
  EXPECT_EQ(campaign.perf_trial_count(), 10u);
  campaign.perf_trials = 150;  // drone sweeps report cells x repeats
  EXPECT_EQ(campaign.perf_trial_count(), 150u);
}

// ---- registry coverage ----------------------------------------------------

TEST(CostRegistry, EveryScenarioYieldsAFiniteEstimate) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const cost::MachineProfile profile;
  for (const ScenarioSpec* spec : registry.all()) {
    ASSERT_TRUE(static_cast<bool>(spec->cost))
        << spec->name << " has no cost estimator";
    const cost::CostEstimate estimate = spec->cost(spec->make_params());
    EXPECT_TRUE(estimate.finite()) << spec->name;
    EXPECT_GT(estimate.total_trials(), 0u) << spec->name;
    EXPECT_GT(estimate.total_seconds(profile), 0.0) << spec->name;
    EXPECT_GE(estimate.campaigns.size(), 1u) << spec->name;
    for (const cost::CampaignCost& campaign : estimate.campaigns)
      EXPECT_FALSE(campaign.label.empty()) << spec->name;
  }
}

TEST(CostRegistry, ReportJsonCoversEveryScenario) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  std::vector<cost::CostReportEntry> entries;
  for (const ScenarioSpec* spec : registry.all()) {
    const ParamSet params = spec->make_params();
    entries.push_back({spec->name, params.canonical(), spec->cost(params)});
  }
  const std::string json =
      cost::cost_report_json(entries, cost::MachineProfile{});
  EXPECT_NE(json.find("\"schema\": \"ftnav-cost-report-v1\""),
            std::string::npos);
  for (const ScenarioSpec* spec : registry.all())
    EXPECT_NE(json.find("\"name\": \"" + spec->name + "\""),
              std::string::npos);
}

// ---- prediction vs measured shard timings --------------------------------

TEST(CostPrediction, WithinToleranceOfMeasuredShardTimings) {
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const ScenarioSpec* spec = registry.find("grid-inference");
  ASSERT_NE(spec, nullptr);
  const ParamSet params = spec->make_params();
  const cost::CostEstimate estimate = spec->cost(params);
  ASSERT_EQ(estimate.campaigns.size(), 1u);

  ScratchDir scratch("prediction");
  obs::clear_shard_timings();
  {
    obs::TraceSession session(scratch.path);  // arms shard recording
    ScenarioContext context;
    context.threads = 1;
    context.stream.checkpoint_path = scratch.path + "/c.ckpt";
    (void)spec->factory(params)->run(context);
  }
  const std::vector<obs::ShardTiming> records =
      obs::snapshot_shard_timings();
  obs::clear_shard_timings();
  ASSERT_EQ(records.size(), estimate.campaigns[0].shard_count());

  double measured = 0.0;
  std::uint64_t trials = 0;
  for (const obs::ShardTiming& record : records) {
    measured += record.wall_seconds;
    trials += record.trials;
  }
  EXPECT_EQ(trials, estimate.total_trials());
  // The calibrated default profile must land the campaign (setup
  // excluded — it is not sharded) within an order of magnitude of the
  // measured shard wall on any machine this suite runs on; the
  // acceptance bar on the calibration host itself is 3x. The lower
  // bound only holds for the optimized, unsanitized builds the
  // profile prices: -O0 and sanitizer instrumentation inflate the
  // measured wall severalfold, which can only make the model
  // *under*predict, so there the upper bound alone is meaningful.
  const double predicted =
      estimate.campaigns[0].seconds(cost::MachineProfile{});
  EXPECT_LT(predicted, measured * 10.0);
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !FTNAV_TEST_ASAN
  EXPECT_GT(predicted, measured / 10.0);
#endif
}

// ---- scheduling policy ----------------------------------------------------

TEST(SchedPolicy, NamesRoundTripAndUnknownNamesThrow) {
  EXPECT_EQ(sched_policy_from_name("uniform"),
            DistConfig::SchedPolicy::kUniform);
  EXPECT_EQ(sched_policy_from_name("cost"), DistConfig::SchedPolicy::kCost);
  EXPECT_EQ(sched_policy_from_name("feedback"),
            DistConfig::SchedPolicy::kFeedback);
  for (const auto policy :
       {DistConfig::SchedPolicy::kUniform, DistConfig::SchedPolicy::kCost,
        DistConfig::SchedPolicy::kFeedback})
    EXPECT_EQ(sched_policy_from_name(sched_policy_name(policy)), policy);
  EXPECT_THROW(sched_policy_from_name("fastest"), std::invalid_argument);
  EXPECT_THROW(sched_policy_from_name(""), std::invalid_argument);
}

// The byte-identity invariant: scheduling policy re-partitions work
// between workers but must never change merged artifact bytes. Same
// in-process worker pattern as test_dist.cpp — a thread with its own
// DistConfig over a shared queue directory is indistinguishable from a
// worker process.

constexpr std::size_t kTrials = 300;
constexpr std::uint64_t kSeed = 123;
constexpr const char* kTag = "test-cost-histogram";

Histogram run_campaign(const CampaignStreamConfig& stream) {
  const CampaignRunner runner(1);
  return runner.map_reduce(
      kTag, kTrials, kSeed, [] { return Histogram(0.0, 3.0, 12); },
      [](Histogram& acc, std::size_t trial, Rng& rng) {
        for (int draw = 0; draw < 3; ++draw)
          acc.add(rng.uniform() + (trial % 3 == 0 ? rng.uniform() : 0.0));
      },
      [](Histogram& into, Histogram&& from) { into.merge(from); }, stream);
}

void run_worker(const std::string& queue_dir, int worker_id,
                DistConfig::SchedPolicy policy) {
  DistConfig config;
  config.worker_id = worker_id;
  config.queue_dir = queue_dir;
  config.lease_expiry_seconds = 1.0;
  config.poll_period_seconds = 0.01;
  config.sched_policy = policy;
  // A deliberately tiny prediction: cost sizing clamps to one shard
  // per claim, maximizing the difference from uniform's fixed batch.
  config.predicted_shard_seconds = 1e-4;
  CampaignStreamConfig stream;
  DistCampaign dist(config, kTag, stream);
  (void)run_campaign(stream);
}

std::string run_policy_campaign(const std::string& root,
                                DistConfig::SchedPolicy policy,
                                int workers) {
  const std::string queue_dir =
      root + "/queue_" + std::string(sched_policy_name(policy)) +
      std::to_string(workers);
  std::vector<std::thread> threads;
  for (int id = 1; id < workers; ++id)
    threads.emplace_back(
        [&, id] { run_worker(queue_dir, id, policy); });
  run_worker(queue_dir, 0, policy);
  for (std::thread& thread : threads) thread.join();

  DistConfig finalize;
  finalize.workers = workers;
  finalize.queue_dir = queue_dir;
  finalize.sched_policy = policy;
  finalize.predicted_shard_seconds = 1e-4;
  const std::string merged = queue_dir + "_merged.ckpt";
  CampaignStreamConfig stream;
  stream.checkpoint_path = merged;
  DistCampaign dist(finalize, kTag, stream);
  (void)run_campaign(stream);
  return read_file(merged);
}

TEST(SchedPolicy, PoliciesAreByteIdenticalAcrossWorkerCounts) {
  ScratchDir scratch("policy_identity");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);
  const std::string reference = read_file(reference_path);
  ASSERT_FALSE(reference.empty());

  for (const auto policy :
       {DistConfig::SchedPolicy::kUniform, DistConfig::SchedPolicy::kCost,
        DistConfig::SchedPolicy::kFeedback})
    for (const int workers : {1, 3})
      EXPECT_EQ(run_policy_campaign(scratch.path, policy, workers),
                reference)
          << sched_policy_name(policy) << " x " << workers << " workers";
}

}  // namespace
}  // namespace ftnav
