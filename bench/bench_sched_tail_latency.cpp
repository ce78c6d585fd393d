// Lease-policy tail latency: how much wall clock the cost-aware
// scheduling policies (DistConfig::sched_policy) recover on a skewed
// shard mix, versus uniform fixed-batch leasing.
//
// The campaign is synthetic but adversarial in the way real ones are:
// the first 8 of 64 shards carry ~15x the work of the rest (compare
// the drone sweeps, where the first environment's flight dominates a
// shard's wall clock). Under `uniform` with a coarse lease batch, one
// worker claims the whole heavy prefix in a single lease and straggles
// while the others drain the cheap tail and idle. `cost` sizes leases
// by predicted shard seconds and decays them guided-self-scheduling
// style toward the queue tail; `feedback` additionally refines the
// prediction online from measured claim->commit times. Both spread the
// heavy prefix across workers, shrinking the finish-time spread.
//
// Workers are in-process threads sharing a filesystem queue (the same
// worker pattern tests/test_cost.cpp uses — indistinguishable from
// worker processes at the lease protocol level), so the bench measures
// scheduling, not fork/exec. Per policy it reports the *assigned busy
// work* per worker: the RNG draws each worker's leases handed it,
// priced at the serial reference's measured draw rate. On an N-core
// machine the campaign wall is max(busy), so `straggler busy - mean
// busy` IS the tail latency the policy imposes; measuring assignment
// instead of raw wall keeps the number exact on core-starved CI
// runners where worker threads timeslice. Merged checkpoints are
// byte-compared against a single-process reference — scheduling must
// never change bytes.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "campaign/campaign_runner.h"
#include "campaign/streaming.h"
#include "dist/dist_campaign.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

using namespace ftnav;
using namespace ftnav::benchharness;

constexpr std::size_t kTrials = 256;        // -> 64 shards
constexpr std::size_t kHeavyTrials = 32;    // first 8 shards are heavy
constexpr const char* kTag = "sched-tail-latency";

std::size_t g_heavy_draws = 0;
std::size_t g_light_draws = 0;

/// Runs the synthetic campaign; when `assigned_draws` is non-null the
/// RNG-draw count of every trial this process runs is accumulated into
/// it (the instrumentation never touches the histogram, so bytes stay
/// identical to an uninstrumented run).
Histogram run_campaign(const CampaignStreamConfig& stream,
                       std::size_t* assigned_draws = nullptr) {
  const CampaignRunner runner(1);
  return runner.map_reduce(
      kTag, kTrials, 7, [] { return Histogram(0.0, 1.0, 16); },
      [assigned_draws](Histogram& acc, std::size_t trial, Rng& rng) {
        const std::size_t draws =
            trial < kHeavyTrials ? g_heavy_draws : g_light_draws;
        double sum = 0.0;
        for (std::size_t i = 0; i < draws; ++i) sum += rng.uniform();
        acc.add(sum / static_cast<double>(draws));
        if (assigned_draws != nullptr) *assigned_draws += draws;
      },
      [](Histogram& into, Histogram&& from) { into.merge(from); }, stream);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

DistConfig policy_config(DistConfig::SchedPolicy policy,
                         const std::string& queue_dir,
                         double predicted_shard_seconds) {
  DistConfig config;
  config.queue_dir = queue_dir;
  config.lease_expiry_seconds = 5.0;
  config.poll_period_seconds = 0.005;
  config.sched_policy = policy;
  // Uniform's fixed batch is deliberately coarse (8 of 64 shards per
  // claim -- the whole heavy prefix fits in one lease); the dynamic
  // policies size leases from the prediction instead, targeting a few
  // mean shards per claim so claim round-trips stay amortized.
  config.lease_batch = 8;
  config.predicted_shard_seconds = predicted_shard_seconds;
  config.target_lease_seconds = 2.0 * predicted_shard_seconds;
  return config;
}

struct PolicyRun {
  double wall_seconds = 0.0;
  double mean_busy = 0.0;
  double straggler_busy = 0.0;
  std::string merged_bytes;
};

PolicyRun run_policy(DistConfig::SchedPolicy policy, int workers,
                     const std::string& root,
                     double predicted_shard_seconds,
                     double seconds_per_draw) {
  const std::string queue_dir =
      root + "/q_" + std::string(sched_policy_name(policy));
  std::filesystem::create_directories(queue_dir);
  std::vector<std::size_t> assigned(static_cast<std::size_t>(workers), 0);
  const double start = PerfRecorder::now();
  std::vector<std::thread> threads;
  for (int id = 0; id < workers; ++id)
    threads.emplace_back([&, id] {
      DistConfig config =
          policy_config(policy, queue_dir, predicted_shard_seconds);
      config.worker_id = id;
      CampaignStreamConfig stream;
      DistCampaign dist(config, kTag, stream);
      (void)run_campaign(stream, &assigned[static_cast<std::size_t>(id)]);
    });
  for (std::thread& thread : threads) thread.join();

  PolicyRun run;
  DistConfig finalize =
      policy_config(policy, queue_dir, predicted_shard_seconds);
  finalize.workers = workers;
  const std::string merged = queue_dir + "_merged.ckpt";
  CampaignStreamConfig stream;
  stream.checkpoint_path = merged;
  DistCampaign dist(finalize, kTag, stream);
  (void)run_campaign(stream);
  run.wall_seconds = PerfRecorder::now() - start;
  run.merged_bytes = read_file(merged);
  std::vector<double> busy;
  busy.reserve(assigned.size());
  for (const std::size_t draws : assigned)
    busy.push_back(static_cast<double>(draws) * seconds_per_draw);
  run.mean_busy = std::accumulate(busy.begin(), busy.end(), 0.0) /
                  static_cast<double>(busy.size());
  run.straggler_busy = *std::max_element(busy.begin(), busy.end());
  return run;
}

}  // namespace

int main() {
  BenchConfig config = bench_config_from_env();
  print_banner("Scheduling tail latency",
               "worker finish-time spread under uniform vs cost vs "
               "feedback lease sizing on a skewed shard mix",
               config);
  PerfRecorder perf(config, "sched_tail_latency");

  const std::size_t scale = config.full_scale ? 4 : 1;
  g_heavy_draws = 1'500'000 * scale;
  g_light_draws = 100'000 * scale;
  const int workers = config.workers > 0 ? config.workers : 4;

  const std::string root =
      (std::filesystem::temp_directory_path() / "ftnav_sched_tail").string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // Single-process reference: the byte-identity baseline, and the
  // calibration the cost policies' per-shard prediction comes from
  // (exactly what the CLI derives from `describe --cost`).
  const std::string reference_path = root + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const double reference_start = PerfRecorder::now();
  (void)run_campaign(reference_stream);
  const double serial_seconds = PerfRecorder::now() - reference_start;
  const std::string reference = read_file(reference_path);
  const double predicted_shard_seconds = serial_seconds / 64.0;
  const double total_draws = static_cast<double>(
      kHeavyTrials * g_heavy_draws + (kTrials - kHeavyTrials) * g_light_draws);
  const double seconds_per_draw = serial_seconds / total_draws;
  std::printf("serial reference: %.3f s over 64 shards "
              "(mean shard %.4f s), %d workers\n\n",
              serial_seconds, predicted_shard_seconds, workers);

  Table table({"policy", "wall_s", "mean_busy_s", "straggler_busy_s",
               "tail_s", "tail_pct_of_mean"});
  bool bytes_identical = true;
  for (const auto policy :
       {DistConfig::SchedPolicy::kUniform, DistConfig::SchedPolicy::kCost,
        DistConfig::SchedPolicy::kFeedback}) {
    const PolicyRun run = run_policy(policy, workers, root,
                                     predicted_shard_seconds,
                                     seconds_per_draw);
    const double tail = run.straggler_busy - run.mean_busy;
    bytes_identical = bytes_identical && run.merged_bytes == reference;
    table.add_row({std::string(sched_policy_name(policy)),
                   format_double(run.wall_seconds, 3),
                   format_double(run.mean_busy, 3),
                   format_double(run.straggler_busy, 3),
                   format_double(tail, 3),
                   format_double(100.0 * tail /
                                     (run.mean_busy > 0.0 ? run.mean_busy
                                                          : 1e-12),
                                 1)});
    perf.record("sched_" + std::string(sched_policy_name(policy)), kTrials,
                run.wall_seconds);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("merged checkpoints byte-identical to single-process "
              "reference: %s\n",
              bytes_identical ? "yes" : "NO (BUG)");
  print_shape_note(
      "cost and feedback tail_s well below uniform's (the heavy shard "
      "prefix spreads across workers instead of riding one coarse "
      "lease, so no single worker is left holding most of the work); "
      "bytes identical for every policy");

  std::filesystem::remove_all(root);
  return bytes_identical ? 0 : 1;
}
