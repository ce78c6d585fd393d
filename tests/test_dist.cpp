// Tests for the distributed campaign subsystem (src/dist/): WorkQueue
// lease semantics, CampaignCheckpoint::merge, and the end-to-end
// contract — N worker processes' partial checkpoints merge into a
// checkpoint byte-identical to a single-process run, for any split and
// any worker kill schedule. Workers are simulated in-process (the
// queue only sees the filesystem, so a thread with its own DistConfig
// is indistinguishable from a process); the real fork/exec path is
// covered by DistCoordinatorTest and CI's distributed-determinism job.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign_runner.h"
#include "campaign/checkpoint.h"
#include "campaign/streaming.h"
#include "dist/dist_campaign.h"
#include "dist/dist_coordinator.h"
#include "dist/tcp_transport.h"
#include "dist/work_queue.h"
#include "util/histogram.h"

namespace ftnav {
namespace {

/// Scratch directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_dist_" + name))
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

// ---- WorkQueue -----------------------------------------------------------

TEST(WorkQueueTest, PopulateIsIdempotentAndClaimsAreExclusive) {
  ScratchDir scratch("queue_claims");
  WorkQueue queue0(scratch.path, "campaign");
  WorkQueue queue1(scratch.path, "campaign");
  queue0.populate(8, 0);
  queue1.populate(8, 1);  // second populate must be a no-op

  EXPECT_EQ(queue0.claimable().size(), 8u);
  const auto lease = queue0.try_claim(3, 0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->shard, 3u);
  // The losing rename reports no lease — the shard runs exactly once.
  EXPECT_FALSE(queue1.try_claim(3, 1).has_value());
  EXPECT_EQ(queue1.claimable().size(), 7u);

  EXPECT_TRUE(queue0.mark_done(*lease));
  EXPECT_EQ(queue0.done_count(), 1u);
  EXPECT_FALSE(queue0.mark_done(*lease));  // already released
}

TEST(WorkQueueTest, ReclaimConsultsTheDeadWorkersPartial) {
  ScratchDir scratch("queue_reclaim");
  WorkQueue queue(scratch.path, "campaign");
  queue.populate(6, 0);

  // Worker 0 dies holding two leases: shard 2 made it into its partial
  // checkpoint (the claim->done crash window), shard 4 did not.
  ASSERT_TRUE(queue.try_claim(2, 0).has_value());
  ASSERT_TRUE(queue.try_claim(4, 0).has_value());
  CampaignCheckpoint::Header header;
  header.fingerprint = 77;
  header.trial_count = 60;
  header.shard_count = 6;
  header.trials_done = 10;
  CampaignCheckpoint::save(queue.partial_path(0), header,
                           {0, 0, 1, 0, 0, 0}, "partial-state");

  // No heartbeat was ever written, so any expiry treats worker 0 as
  // dead; expiry <= 0 forces reclaim regardless.
  EXPECT_EQ(queue.reclaim(0, 0.0), 2u);
  EXPECT_EQ(queue.done_count(), 1u);  // shard 2 survived
  const std::vector<std::size_t> claimable = queue.claimable();
  EXPECT_EQ(claimable.size(), 5u);  // shard 4 went back to todo
  EXPECT_NE(std::find(claimable.begin(), claimable.end(), 4u),
            claimable.end());
}

TEST(WorkQueueTest, ExpiryReclaimTreatsMissingHeartbeatAsDead) {
  ScratchDir scratch("queue_no_heartbeat");
  WorkQueue queue(scratch.path, "campaign");
  queue.populate(4, 0);
  // Worker 5 claimed a shard but never wrote a heartbeat file at all
  // (crashed before its first beat): its age is +infinity, so even a
  // generous expiry must treat it as dead. With no partial checkpoint
  // either, the lease lands in todo/ — never in done/.
  ASSERT_TRUE(queue.try_claim(1, 5).has_value());
  EXPECT_EQ(queue.reclaim(-1, 3600.0), 1u);
  EXPECT_EQ(queue.done_count(), 0u);
  const std::vector<std::size_t> claimable = queue.claimable();
  EXPECT_EQ(claimable.size(), 4u);
  EXPECT_NE(std::find(claimable.begin(), claimable.end(), 1u),
            claimable.end());
}

TEST(WorkQueueTest, ReclaimWithCorruptPartialReturnsLeaseToTodo) {
  ScratchDir scratch("queue_corrupt_partial");
  WorkQueue queue(scratch.path, "campaign");
  queue.populate(4, 0);
  ASSERT_TRUE(queue.try_claim(2, 0).has_value());
  // The dead worker's partial exists but is garbage (torn write,
  // disk corruption): reclaim must treat it as "nothing committed"
  // and re-run the shard, not trust it into done/.
  {
    std::ofstream out(queue.partial_path(0), std::ios::binary);
    out << "this is not a campaign checkpoint";
  }
  EXPECT_EQ(queue.reclaim(0, 0.0), 1u);
  EXPECT_EQ(queue.done_count(), 0u);
  const std::vector<std::size_t> claimable = queue.claimable();
  EXPECT_EQ(claimable.size(), 4u);
  EXPECT_NE(std::find(claimable.begin(), claimable.end(), 2u),
            claimable.end());
}

TEST(WorkQueueTest, FreshHeartbeatBlocksExpiryReclaim) {
  ScratchDir scratch("queue_heartbeat");
  WorkQueue queue(scratch.path, "campaign");
  queue.populate(4, 0);
  ASSERT_TRUE(queue.try_claim(1, 0).has_value());

  WorkQueue::beat(scratch.path, 0);
  EXPECT_LT(WorkQueue::heartbeat_age(scratch.path, 0), 30.0);
  // Worker 0 is alive and beating: a 30-second expiry reclaims nothing.
  EXPECT_EQ(queue.reclaim(-1, 30.0), 0u);
  // The coordinator knows better (waitpid): forced reclaim proceeds.
  EXPECT_EQ(queue.reclaim(-1, 0.0), 1u);
}

TEST(WorkQueueTest, ReclaimAcrossAllCampaignQueues) {
  ScratchDir scratch("queue_all");
  WorkQueue first(scratch.path, "grid-a");
  WorkQueue second(scratch.path, "grid-b");
  first.populate(4, 0);
  second.populate(4, 0);
  ASSERT_TRUE(first.try_claim(0, 0).has_value());
  ASSERT_TRUE(second.try_claim(3, 0).has_value());
  EXPECT_EQ(reclaim_queue_leases(scratch.path, 0, 0.0), 2u);
  EXPECT_EQ(first.claimable().size(), 4u);
  EXPECT_EQ(second.claimable().size(), 4u);
}

// ---- CampaignCheckpoint::merge ------------------------------------------

CampaignCheckpoint::Loaded make_partial(
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& bitmap,
    std::uint64_t trials_done, const std::string& payload) {
  CampaignCheckpoint::Loaded partial;
  partial.header.fingerprint = fingerprint;
  partial.header.trial_count = 100;
  partial.header.shard_count = bitmap.size();
  partial.header.trials_done = trials_done;
  partial.shard_done = bitmap;
  partial.payload = payload;
  return partial;
}

TEST(CheckpointMerge, DisjointPartialsUnionBitmapsAndSumTrials) {
  const auto merged = CampaignCheckpoint::merge(
      {make_partial(9, {1, 0, 0, 1}, 50, "A"),
       make_partial(9, {0, 1, 0, 0}, 25, "B"),
       make_partial(9, {0, 0, 1, 0}, 25, "C")},
      [](const std::vector<CampaignCheckpoint::Loaded>& partials) {
        std::string payload;
        for (const auto& partial : partials) payload += partial.payload;
        return payload;
      });
  EXPECT_EQ(merged.shard_done, (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(merged.header.trials_done, 100u);
  EXPECT_EQ(merged.payload, "ABC");
}

TEST(CheckpointMerge, SinglePartialPassesThroughVerbatim) {
  const auto merged = CampaignCheckpoint::merge(
      {make_partial(9, {1, 1, 1, 1}, 100, "whole-campaign")},
      [](const std::vector<CampaignCheckpoint::Loaded>&) -> std::string {
        throw std::logic_error("payload merge must not run for one partial");
      });
  EXPECT_EQ(merged.payload, "whole-campaign");
}

TEST(CheckpointMerge, RefusesMismatchesAndOverlap) {
  const auto keep = [](const std::vector<CampaignCheckpoint::Loaded>& p) {
    return p.front().payload;
  };
  EXPECT_THROW(CampaignCheckpoint::merge({}, keep), std::runtime_error);
  // Different fingerprints: partials from different campaigns.
  EXPECT_THROW(
      CampaignCheckpoint::merge({make_partial(1, {1, 0}, 50, "A"),
                                 make_partial(2, {0, 1}, 50, "B")},
                                keep),
      std::runtime_error);
  // Overlapping bitmaps: a shard ran twice; merging would double-count.
  EXPECT_THROW(
      CampaignCheckpoint::merge({make_partial(9, {1, 1}, 50, "A"),
                                 make_partial(9, {0, 1}, 50, "B")},
                                keep),
      std::runtime_error);
}

TEST(DistQueueLabel, DerivedFromTagDeterministicallyAndSafely) {
  const std::string label =
      dist_queue_label("grid-inference/tabular/mitigated#0123abcd");
  EXPECT_EQ(label, dist_queue_label("grid-inference/tabular/mitigated"
                                    "#0123abcd"));
  EXPECT_NE(label, dist_queue_label("grid-inference/tabular#0123abcd"));
  EXPECT_EQ(label.find('/'), std::string::npos);
  EXPECT_EQ(label.find('#'), std::string::npos);
}

// ---- end-to-end: workers + merge = single process ------------------------

constexpr std::size_t kTrials = 300;
constexpr std::uint64_t kSeed = 123;
constexpr const char* kTag = "test-dist-histogram";

/// The reference streamed campaign from test_streaming: every trial is
/// a pure function of (seed, trial), so any shard split must reproduce
/// the single-process result exactly.
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

/// One simulated worker process: DistConfig in the worker role wired
/// through DistCampaign, exactly as the experiment drivers do it.
Histogram run_worker(const std::string& queue_dir, int worker_id) {
  DistConfig config;
  config.worker_id = worker_id;
  config.queue_dir = queue_dir;
  config.lease_expiry_seconds = 1.0;  // heartbeat auto-clamps to 0.25
  config.poll_period_seconds = 0.01;
  CampaignStreamConfig stream;
  DistCampaign dist(config, kTag, stream);
  return run_campaign(stream);
}

/// Coordinator finalize: merge the partials into `merged_path`.
Histogram run_finalize(const std::string& queue_dir,
                       const std::string& merged_path, int workers) {
  DistConfig config;
  config.workers = workers;
  config.queue_dir = queue_dir;
  CampaignStreamConfig stream;
  stream.checkpoint_path = merged_path;
  DistCampaign dist(config, kTag, stream);
  return run_campaign(stream);
}

void expect_histograms_identical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin)
    EXPECT_EQ(a.count_in_bin(bin), b.count_in_bin(bin));
  EXPECT_EQ(a.observed_min(), b.observed_min());
  EXPECT_EQ(a.observed_max(), b.observed_max());
}

TEST(DistCampaignE2E, ConcurrentWorkersMergeByteIdenticalToSingleProcess) {
  // Single-process reference checkpoint.
  ScratchDir scratch("e2e_split");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);

  // Two workers race for the same queue; the claim renames partition
  // the 64 shards between them nondeterministically.
  const std::string queue_dir = scratch.path + "/queue";
  std::thread other([&] { (void)run_worker(queue_dir, 1); });
  (void)run_worker(queue_dir, 0);
  other.join();

  const std::string merged_path = scratch.path + "/merged.ckpt";
  const Histogram merged = run_finalize(queue_dir, merged_path, 2);
  expect_histograms_identical(merged, reference);
  EXPECT_EQ(read_file(merged_path), read_file(reference_path));
}

TEST(DistCampaignE2E, DeadWorkersShardsAreReclaimedByTheSurvivor) {
  ScratchDir scratch("e2e_reclaim");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);

  // Worker 0 "dies" after 5 shards: the interrupt fires inside the
  // 5th commit, so that shard is in its partial checkpoint but its
  // lease was never released — the exact claim->done crash window.
  const std::string queue_dir = scratch.path + "/queue";
  {
    DistConfig config;
    config.worker_id = 0;
    config.queue_dir = queue_dir;
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    stream.stop_after_shards = 5;  // simulated kill
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }  // worker 0's heartbeat stops here

  // Worker 1 finishes the campaign, reclaiming worker 0's stale lease
  // (to done/ — the shard survived in the partial) once the heartbeat
  // expires.
  (void)run_worker(queue_dir, 1);

  const std::string merged_path = scratch.path + "/merged.ckpt";
  const Histogram merged = run_finalize(queue_dir, merged_path, 2);
  expect_histograms_identical(merged, reference);
  EXPECT_EQ(read_file(merged_path), read_file(reference_path));
}

TEST(DistCampaignE2E, RespawnedWorkerResumesItsOwnPartial) {
  ScratchDir scratch("e2e_respawn");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);

  const std::string queue_dir = scratch.path + "/queue";
  {
    DistConfig config;
    config.worker_id = 0;
    config.queue_dir = queue_dir;
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    stream.stop_after_shards = 7;
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }

  // The respawned worker 0 restores its 7 completed shards from its
  // partial, releases the stale lease of the crash-window shard, and
  // runs only the remainder.
  (void)run_worker(queue_dir, 0);

  const std::string merged_path = scratch.path + "/merged.ckpt";
  const Histogram merged = run_finalize(queue_dir, merged_path, 1);
  expect_histograms_identical(merged, reference);
  EXPECT_EQ(read_file(merged_path), read_file(reference_path));
}

TEST(DistCampaignE2E, MapStreamedPartialsMergeByTrialRange) {
  // map partials store full-size results vectors; the merge
  // must copy exactly the trial ranges each worker's bitmap owns.
  const auto trial_fn = [](std::size_t trial, Rng& rng) {
    return static_cast<double>(trial) + rng.uniform();
  };
  const CampaignRunner runner(1);
  const std::vector<double> reference = runner.map(
      "test-dist-map", 150, 77, trial_fn, CampaignStreamConfig{});

  ScratchDir scratch("e2e_map");
  const std::string queue_dir = scratch.path + "/queue";
  const auto worker = [&](int worker_id) {
    DistConfig config;
    config.worker_id = worker_id;
    config.queue_dir = queue_dir;
    config.lease_expiry_seconds = 1.0;  // heartbeat auto-clamps to 0.25
    config.poll_period_seconds = 0.01;
    CampaignStreamConfig stream;
    DistCampaign dist(config, "test-dist-map", stream);
    (void)runner.map("test-dist-map", 150, 77, trial_fn, stream);
  };
  std::thread other([&] { worker(1); });
  worker(0);
  other.join();

  DistConfig finalize;
  finalize.workers = 2;
  finalize.queue_dir = queue_dir;
  CampaignStreamConfig stream;
  stream.checkpoint_path = scratch.path + "/merged.ckpt";
  DistCampaign dist(finalize, "test-dist-map", stream);
  const std::vector<double> merged =
      runner.map("test-dist-map", 150, 77, trial_fn, stream);
  EXPECT_EQ(merged, reference);  // bit-identical doubles
}

// ---- campaign-server failover + multi-tenant queues ----------------------

#if !defined(_WIN32)

TEST(CampaignServerFailover, ServerKillAndRestartMergesByteIdentical) {
  // The tentpole contract: the campaign survives losing the SERVER
  // mid-run. Worker 0 dies in the claim->done crash window, then the
  // server is destroyed without any graceful drain; a new server
  // replays the journal, a NEVER-BEFORE-USED worker id finishes the
  // campaign (expiry-reclaiming the dead worker's lease from replayed
  // state), and the finalize merge must be byte-identical to a
  // single-process run.
  ScratchDir scratch("server_failover");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);

  const std::string journal = scratch.path + "/journal.bin";
  const auto endpoint_config = [](const std::string& addr) {
    DistConfig config;
    config.queue_addr = addr;
    config.auth_token = "failover-token";
    config.queue_namespace = "failover-tag";
    config.lease_expiry_seconds = 1.0;  // heartbeat auto-clamps to 0.25
    config.poll_period_seconds = 0.01;
    return config;
  };

  {
    CampaignServer server(
        CampaignServerConfig{"127.0.0.1:0", journal, "failover-token"});
    server.start();
    DistConfig config = endpoint_config(server.address());
    config.worker_id = 0;
    config.worker_stop_after_shards = 5;  // die in the crash window
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }  // server destroyed here: no drain, exactly like a SIGKILL

  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", journal, "failover-token"});
  server.start();  // journal replay restores leases, partials, counts

  {
    // Failover worker under a fresh id (as attach's alloc_worker_ids
    // guarantees): reclaims the dead worker's lease from the REPLAYED
    // heartbeat-free state and completes the campaign.
    DistConfig config = endpoint_config(server.address());
    config.worker_id = 7;
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    (void)run_campaign(stream);
  }

  DistConfig finalize = endpoint_config(server.address());
  finalize.workers = 1;
  CampaignStreamConfig stream;
  stream.checkpoint_path = scratch.path + "/merged.ckpt";
  DistCampaign dist(finalize, kTag, stream);
  const Histogram merged = run_campaign(stream);
  expect_histograms_identical(merged, reference);
  EXPECT_EQ(read_file(stream.checkpoint_path), read_file(reference_path));
}

TEST(CampaignServerTenancy, ConcurrentTagsKeepDisjointQueues) {
  // Two campaigns with IDENTICAL scenario configuration (same stream
  // tag, same trial count and seed) run interleaved on one server
  // under different submission tags. Without namespace-keyed queues
  // they would share one shard queue and each merge would hold a
  // random half of the trials.
  ScratchDir scratch("server_tenancy");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  const Histogram reference = run_campaign(reference_stream);
  const std::string reference_bytes = read_file(reference_path);

  CampaignServer server("127.0.0.1:0");
  server.start();
  const auto tenant_config = [&](const std::string& tenant) {
    DistConfig config;
    config.queue_addr = server.address();
    config.queue_namespace = tenant;
    config.lease_expiry_seconds = 1.0;
    config.poll_period_seconds = 0.01;
    return config;
  };
  const auto tenant_worker = [&](const std::string& tenant, int worker_id) {
    DistConfig config = tenant_config(tenant);
    config.worker_id = worker_id;
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    (void)run_campaign(stream);
  };

  std::thread tenant_b([&] { tenant_worker("tenant-b", 0); });
  tenant_worker("tenant-a", 0);
  tenant_b.join();

  for (const std::string tenant : {"tenant-a", "tenant-b"}) {
    DistConfig finalize = tenant_config(tenant);
    finalize.workers = 1;
    CampaignStreamConfig stream;
    stream.checkpoint_path = scratch.path + "/merged-" + tenant + ".ckpt";
    DistCampaign dist(finalize, kTag, stream);
    const Histogram merged = run_campaign(stream);
    expect_histograms_identical(merged, reference);
    EXPECT_EQ(read_file(stream.checkpoint_path), reference_bytes) << tenant;
  }
}

#endif  // !defined(_WIN32)

// ---- DistCoordinator (fork/exec) ----------------------------------------

#if !defined(_WIN32)

TEST(DistCoordinatorTest, ReturnsWhenAllWorkersExitCleanly) {
  ScratchDir scratch("coord_ok");
  DistConfig config;
  config.workers = 2;
  config.queue_dir = scratch.path;
  config.poll_period_seconds = 0.01;
  const DistCoordinator coordinator(config);
  coordinator.run([](int) {
    return DistCoordinator::Command{{"/bin/true"}, {}};
  });
}

TEST(DistCoordinatorTest, RespawnsThenGivesUpOnPersistentFailure) {
  ScratchDir scratch("coord_fail");
  DistConfig config;
  config.workers = 1;
  config.queue_dir = scratch.path;
  config.poll_period_seconds = 0.01;
  config.max_respawns = 1;
  const DistCoordinator coordinator(config);
  EXPECT_THROW(coordinator.run([](int) {
    return DistCoordinator::Command{{"/bin/false"}, {}};
  }),
               std::runtime_error);
}

#endif  // !defined(_WIN32)

}  // namespace
}  // namespace ftnav
