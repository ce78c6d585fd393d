// Tests for the ShardTransport abstraction (src/dist/): the
// filesystem and TCP transports must be interchangeable — for the
// same campaign config, every combination of transport, worker count,
// lease batch size, and mid-campaign worker kill produces a merged
// checkpoint byte-identical to a single-process run. Plus TCP work
// server unit coverage: RPC semantics, batched claims, and surviving
// clients that vanish mid-conversation.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

#include "campaign/campaign_runner.h"
#include "campaign/streaming.h"
#include "dist/campaign_server.h"
#include "dist/dist_campaign.h"
#include "dist/shard_transport.h"
#include "dist/tcp_transport.h"
#include "dist/wire_format.h"
#include "util/binary_io.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace ftnav {
namespace {

/// Scratch directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("ftnav_transport_" + name))
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

// ---- util/clock.h --------------------------------------------------------

TEST(PollBackoff, DoublesUpToTheCapAndResets) {
  timeutil::PollBackoff backoff(0.016);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.001);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.002);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.004);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.008);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.016);
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.016);  // capped
  backoff.reset();
  EXPECT_DOUBLE_EQ(backoff.next_seconds(), 0.001);
}

TEST(PollBackoff, TinyCapNeverYieldsZeroWaits) {
  timeutil::PollBackoff backoff(0.0);
  EXPECT_GT(backoff.next_seconds(), 0.0);
  EXPECT_GT(backoff.next_seconds(), 0.0);
}

// ---- the transport matrix: merged == single-process ----------------------

constexpr std::size_t kTrials = 300;
constexpr std::uint64_t kSeed = 123;
constexpr const char* kTag = "test-transport-histogram";

/// The reference streamed campaign from test_dist: every trial is a
/// pure function of (seed, trial), so any shard split across any
/// transport must reproduce the single-process result exactly.
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

DistConfig worker_config(const DistConfig& endpoint, int worker_id,
                         int lease_batch) {
  DistConfig config = endpoint;
  config.worker_id = worker_id;
  config.lease_batch = lease_batch;
  config.lease_expiry_seconds = 1.0;  // heartbeat auto-clamps to 0.25
  config.poll_period_seconds = 0.01;
  return config;
}

void run_worker(const DistConfig& endpoint, int worker_id, int lease_batch) {
  const DistConfig config = worker_config(endpoint, worker_id, lease_batch);
  CampaignStreamConfig stream;
  DistCampaign dist(config, kTag, stream);
  (void)run_campaign(stream);
}

/// Coordinator finalize: merge the partials into `merged_path`.
Histogram run_finalize(const DistConfig& endpoint,
                       const std::string& merged_path, int workers) {
  DistConfig config = endpoint;
  config.workers = workers;
  CampaignStreamConfig stream;
  stream.checkpoint_path = merged_path;
  DistCampaign dist(config, kTag, stream);
  return run_campaign(stream);
}

/// Runs `workers` concurrent in-process workers against the endpoint,
/// finalizes, and requires the merged checkpoint to be byte-identical
/// to `reference_bytes`.
void expect_matrix_cell_matches(const DistConfig& endpoint, int workers,
                                int lease_batch,
                                const std::string& merged_path,
                                const std::string& reference_bytes) {
  std::vector<std::thread> threads;
  for (int id = 1; id < workers; ++id)
    threads.emplace_back(
        [&, id] { run_worker(endpoint, id, lease_batch); });
  run_worker(endpoint, 0, lease_batch);
  for (std::thread& thread : threads) thread.join();

  (void)run_finalize(endpoint, merged_path, workers);
  EXPECT_EQ(read_file(merged_path), reference_bytes)
      << "workers=" << workers << " lease_batch=" << lease_batch;
}

TEST(TransportMatrix, FsWorkerCountsAndBatchesMergeByteIdentical) {
  ScratchDir scratch("fs_matrix");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);
  const std::string reference_bytes = read_file(reference_path);

  int cell = 0;
  for (int workers : {1, 3}) {
    for (int lease_batch : {1, 4}) {
      DistConfig endpoint;
      endpoint.queue_dir =
          scratch.path + "/queue" + std::to_string(cell);
      expect_matrix_cell_matches(
          endpoint, workers, lease_batch,
          scratch.path + "/merged" + std::to_string(cell) + ".ckpt",
          reference_bytes);
      ++cell;
    }
  }
}

#if !defined(_WIN32)

TEST(TransportMatrix, TcpWorkerCountsAndBatchesMergeByteIdentical) {
  ScratchDir scratch("tcp_matrix");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);
  const std::string reference_bytes = read_file(reference_path);

  int cell = 0;
  for (int workers : {1, 3}) {
    for (int lease_batch : {1, 4}) {
      // A fresh server per cell: same tag, empty queue state.
      TcpWorkServer server("127.0.0.1:0");
      server.start();
      DistConfig endpoint;
      endpoint.queue_addr = server.address();
      expect_matrix_cell_matches(
          endpoint, workers, lease_batch,
          scratch.path + "/merged" + std::to_string(cell) + ".ckpt",
          reference_bytes);
      ++cell;
    }
  }
}

#endif  // !defined(_WIN32)

// ---- mid-campaign worker kill, both transports ---------------------------

/// Worker 0 "dies" mid-campaign (CampaignInterrupted fires inside a
/// commit, so its heartbeat stops with a lease still outstanding),
/// worker 1 finishes the campaign by expiry-reclaiming the remains,
/// and the respawned worker 0 resumes the durable copy of its own
/// partial. The merge must still be byte-identical.
void expect_kill_and_recover_matches(const DistConfig& endpoint,
                                     int lease_batch,
                                     const std::string& merged_path,
                                     const std::string& reference_bytes) {
  {
    const DistConfig config = worker_config(endpoint, 0, lease_batch);
    CampaignStreamConfig stream;
    DistCampaign dist(config, kTag, stream);
    stream.stop_after_shards = 4;  // simulated kill
    EXPECT_THROW(run_campaign(stream), CampaignInterrupted);
  }  // worker 0's heartbeat stops here

  run_worker(endpoint, 1, lease_batch);  // reclaims + finishes
  run_worker(endpoint, 0, lease_batch);  // respawn: resume own partial

  (void)run_finalize(endpoint, merged_path, 2);
  EXPECT_EQ(read_file(merged_path), reference_bytes)
      << "lease_batch=" << lease_batch;
}

TEST(TransportMatrix, FsKilledWorkerIsRecoveredByteIdentical) {
  ScratchDir scratch("fs_kill");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);

  for (int lease_batch : {1, 4}) {
    DistConfig endpoint;
    endpoint.queue_dir =
        scratch.path + "/queue" + std::to_string(lease_batch);
    expect_kill_and_recover_matches(
        endpoint, lease_batch,
        scratch.path + "/merged" + std::to_string(lease_batch) + ".ckpt",
        read_file(reference_path));
  }
}

#if !defined(_WIN32)

TEST(TransportMatrix, TcpKilledWorkerIsRecoveredByteIdentical) {
  ScratchDir scratch("tcp_kill");
  const std::string reference_path = scratch.path + "/reference.ckpt";
  CampaignStreamConfig reference_stream;
  reference_stream.checkpoint_path = reference_path;
  (void)run_campaign(reference_stream);

  for (int lease_batch : {1, 4}) {
    TcpWorkServer server("127.0.0.1:0");
    server.start();
    DistConfig endpoint;
    endpoint.queue_addr = server.address();
    expect_kill_and_recover_matches(
        endpoint, lease_batch,
        scratch.path + "/merged" + std::to_string(lease_batch) + ".ckpt",
        read_file(reference_path));
  }
}

// ---- TCP work server unit coverage ---------------------------------------

TEST(TcpWorkServerTest, LeaseLifecycleAndBatchedClaims) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());

  client.populate("camp", 6);
  client.populate("camp", 6);  // idempotent
  EXPECT_THROW(client.populate("camp", 7), std::runtime_error);

  // Batched claim: 4 shards in one round-trip.
  const auto batch = client.claim("camp", 0, TcpQueueClient::kNoHint, 4);
  EXPECT_EQ(batch.leased,
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_FALSE(batch.campaign_done);
  // A hinted claim prefers the hint; an already-leased hint yields a
  // substitute shard, never a double lease.
  const auto hinted = client.claim("camp", 1, 5, 1);
  EXPECT_EQ(hinted.leased, (std::vector<std::size_t>{5}));
  const auto substitute = client.claim("camp", 1, 5, 1);
  EXPECT_EQ(substitute.leased, (std::vector<std::size_t>{4}));

  // done releases only the owner's leases.
  EXPECT_EQ(client.done("camp", 1, {5, 4, 0}), 2u);  // 0 is worker 0's
  EXPECT_EQ(client.done("camp", 0, {0, 1, 2, 3}), 4u);
  EXPECT_EQ(client.done("camp", 0, {0}), 0u);  // already done
  const auto drained = client.claim("camp", 0, TcpQueueClient::kNoHint, 4);
  EXPECT_TRUE(drained.leased.empty());
  EXPECT_TRUE(drained.campaign_done);
}

TEST(TcpWorkServerTest, PartialUploadFetchDrainRoundTrip) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());

  // Fetch before any publish (even before populate) is simply empty.
  EXPECT_TRUE(client.fetch_partial("camp", 0).empty());
  client.populate("camp", 3);
  client.upload_partial("camp", 2, {1, 0, 1}, "worker-2-bytes");
  client.upload_partial("camp", 0, {0, 1, 0}, "worker-0-bytes");
  EXPECT_EQ(client.fetch_partial("camp", 2), "worker-2-bytes");

  const auto partials = client.drain_partials("camp");
  ASSERT_EQ(partials.size(), 2u);  // sorted by worker id
  EXPECT_EQ(partials[0].worker_id, 0);
  EXPECT_EQ(partials[0].bytes, "worker-0-bytes");
  EXPECT_EQ(partials[1].worker_id, 2);
  EXPECT_EQ(partials[1].bytes, "worker-2-bytes");
}

TEST(TcpWorkServerTest, ReclaimConsultsThePublishedBitmap) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());

  client.populate("camp", 4);
  ASSERT_EQ(client.claim("camp", 7, TcpQueueClient::kNoHint, 2)
                .leased.size(),
            2u);  // shards 0 and 1
  // Worker 7 published shard 0 (the publish->done crash window), then
  // vanished. Expiry reclaim: shard 0 survived into done, shard 1
  // re-runs — and an expiry longer than the silence reclaims nothing.
  client.upload_partial("camp", 7, {1, 0, 0, 0}, "bytes");
  EXPECT_EQ(client.reclaim(-1, 3600.0), 0u);  // worker 7 beat just now
  timeutil::sleep_seconds(0.15);
  EXPECT_EQ(client.reclaim(-1, 0.1), 2u);
  const auto after = client.claim("camp", 3, TcpQueueClient::kNoHint, 4);
  EXPECT_EQ(after.leased, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(client.done("camp", 3, after.leased), 3u);
  EXPECT_TRUE(client.claim("camp", 3, TcpQueueClient::kNoHint, 1)
                  .campaign_done);
}

TEST(TcpWorkServerTest, SurvivesClientsVanishingMidClaim) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());
  client.populate("camp", 8);

  // A client claims a batch and vanishes without releasing anything.
  {
    TcpQueueClient dying(server.address());
    EXPECT_EQ(dying.claim("camp", 7, TcpQueueClient::kNoHint, 3)
                  .leased.size(),
              3u);
  }  // connection dropped here

  // A rawer death: a connection that sends half a frame header and
  // disconnects mid-request must not wedge or crash the poll loop.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    const char half_frame[2] = {0x40, 0x00};  // promises 64 bytes...
    ASSERT_EQ(::send(fd, half_frame, sizeof half_frame, 0),
              static_cast<ssize_t>(sizeof half_frame));
    ::close(fd);  // ...never delivers them
  }

  // The server still answers, and the vanished client's leases come
  // back through expiry reclaim — to todo (nothing was published), so
  // every shard runs exactly once: no loss, no double count.
  timeutil::sleep_seconds(0.15);
  EXPECT_EQ(client.reclaim(-1, 0.1), 3u);
  const auto all = client.claim("camp", 1, TcpQueueClient::kNoHint, 8);
  EXPECT_EQ(all.leased.size(), 8u);
  EXPECT_EQ(client.done("camp", 1, all.leased), 8u);
  EXPECT_TRUE(client.claim("camp", 1, TcpQueueClient::kNoHint, 1)
                  .campaign_done);
}

// ---- campaign-server service layers: auth, journal, id allocation --------

TEST(CampaignServerTest, AuthRejectsClientsBeforeTouchingTheQueue) {
  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", "", "secret-token"});
  server.start();

  // No hello: the very first RPC is refused with the auth status, and
  // the populate must not have created any queue state.
  TcpQueueClient unauthed(server.address());
  EXPECT_THROW(unauthed.populate("camp", 6), TransportAuthError);
  EXPECT_THROW(unauthed.claim("camp", 0, TcpQueueClient::kNoHint, 1),
               TransportAuthError);

  // Wrong token: the eager hello in the constructor throws right away.
  EXPECT_THROW(
      TcpQueueClient(server.address(), 2, "wrong-token"),
      TransportAuthError);

  // Right token: full access — and a populate with a different count
  // would throw if the unauthenticated one above had landed.
  TcpQueueClient authed(server.address(), 24, "secret-token");
  authed.populate("camp", 4);
  EXPECT_EQ(authed.claim("camp", 0, TcpQueueClient::kNoHint, 4)
                .leased.size(),
            4u);
}

TEST(CampaignServerTest, JournalReplayResumesQueueState) {
  ScratchDir scratch("journal_replay");
  const std::string journal = scratch.path + "/journal.bin";
  {
    CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
    server.start();
    TcpQueueClient client(server.address());
    client.register_campaign("camp-tag", "demo-scenario", "a=1 b=2");
    client.populate("camp", 6);
    ASSERT_EQ(client.claim("camp", 1, TcpQueueClient::kNoHint, 3)
                  .leased,
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(client.done("camp", 1, {0}), 1u);
    // Shard 1 is in the publish->done crash window: published in the
    // partial, lease still held when the server dies below.
    client.upload_partial("camp", 1, {1, 1, 0, 0, 0, 0}, "w1-bytes");
  }  // SIGKILL equivalent: no drain, no graceful anything

  CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
  server.start();  // replays the journal
  TcpQueueClient client(server.address());

  const CampaignServerStatus status = client.status();
  ASSERT_EQ(status.campaigns.size(), 1u);
  EXPECT_EQ(status.campaigns[0].tag, "camp-tag");
  EXPECT_EQ(status.campaigns[0].scenario, "demo-scenario");
  EXPECT_EQ(status.campaigns[0].params, "a=1 b=2");
  ASSERT_EQ(status.queues.size(), 1u);
  EXPECT_EQ(status.queues[0].shards, 6u);
  EXPECT_EQ(status.queues[0].done, 1u);
  EXPECT_EQ(status.queues[0].leased, 2u);
  EXPECT_EQ(status.queues[0].partials, 1u);
  EXPECT_EQ(client.fetch_partial("camp", 1), "w1-bytes");

  // Worker 1's post-restart heartbeat is unknown — treated as
  // infinitely old, so even a huge expiry reclaims its leases: the
  // published shard 1 survives into done, shard 2 returns to todo.
  EXPECT_EQ(client.reclaim(-1, 3600.0), 2u);
  const auto rest = client.claim("camp", 2, TcpQueueClient::kNoHint, 8);
  EXPECT_EQ(rest.leased, (std::vector<std::size_t>{2, 3, 4, 5}));
  EXPECT_EQ(client.done("camp", 2, rest.leased), 4u);
  EXPECT_TRUE(client.claim("camp", 2, TcpQueueClient::kNoHint, 1)
                  .campaign_done);
}

TEST(CampaignServerTest, WorkerIdAllocationSurvivesRestartAndLeases) {
  ScratchDir scratch("journal_alloc");
  const std::string journal = scratch.path + "/journal.bin";
  {
    CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
    server.start();
    TcpQueueClient client(server.address());
    EXPECT_EQ(client.alloc_worker_ids(2), 0);
    EXPECT_EQ(client.alloc_worker_ids(3), 2);
    // A lease under a high worker id (a classic `run --queue-addr`
    // campaign that never allocated) must also advance the counter.
    client.populate("camp", 2);
    ASSERT_EQ(client.claim("camp", 9, TcpQueueClient::kNoHint, 1)
                  .leased.size(),
              1u);
  }
  CampaignServer server(CampaignServerConfig{"127.0.0.1:0", journal, ""});
  server.start();
  TcpQueueClient client(server.address());
  EXPECT_EQ(client.alloc_worker_ids(1), 10);  // past both 5 and 9
}

TEST(CampaignServerTest, RegistrationIsIdempotentButConflictsAreErrors) {
  CampaignServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());
  client.register_campaign("tag", "scenario", "a=1");
  client.register_campaign("tag", "scenario", "a=1");  // identical: fine
  EXPECT_THROW(client.register_campaign("tag", "scenario", "a=2"),
               std::runtime_error);
  client.register_campaign("tag2", "scenario", "a=2");  // new tag: fine
  EXPECT_EQ(client.status().campaigns.size(), 2u);
}

TEST(TcpWorkServerTest, CoordinatorReclaimDispatchesOverTcp) {
  TcpWorkServer server("127.0.0.1:0");
  server.start();
  TcpQueueClient client(server.address());
  client.populate("camp", 2);
  ASSERT_EQ(client.claim("camp", 4, TcpQueueClient::kNoHint, 2)
                .leased.size(),
            2u);

  // The coordinator's waitpid path: forced reclaim of a known-dead
  // worker through the transport-agnostic entry point.
  DistConfig config;
  config.queue_addr = server.address();
  EXPECT_EQ(reclaim_transport_leases(config, 4, 0.0), 2u);
  EXPECT_EQ(reclaim_transport_leases(config, 4, 0.0), 0u);
}

// ---- the pre-auth trust boundary of the frame pump -----------------------

/// Blocking loopback connection to `port` with a 5 s receive timeout,
/// so a server that never answers fails the test instead of hanging it.
int connect_raw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t got =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (got <= 0) return false;
    sent += static_cast<std::size_t>(got);
  }
  return true;
}

/// Reads exactly `size` bytes; false on EOF, reset, or timeout.
bool recv_exact(int fd, std::string& out, std::size_t size) {
  out.resize(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t chunk = ::recv(fd, out.data() + got, size - got, 0);
    if (chunk <= 0) return false;
    got += static_cast<std::size_t>(chunk);
  }
  return true;
}

/// Reads one reply frame's payload; false on EOF, reset, or timeout.
bool recv_frame(int fd, std::string& payload) {
  std::string header;
  if (!recv_exact(fd, header, 4)) return false;
  std::size_t size = 0;
  for (int byte = 0; byte < 4; ++byte)
    size |= static_cast<std::size_t>(static_cast<unsigned char>(header[byte]))
            << (8 * byte);
  return recv_exact(fd, payload, size);
}

std::string hello_frame(const std::string& token) {
  std::ostringstream hello;
  hello.put(static_cast<char>(wire::kOpHello));
  io::write_string(hello, token);
  return wire::frame(hello.str());
}

TEST(CampaignServerTest, OversizedPreAuthFrameDisconnects) {
  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", "", "secret-token"});
  server.start();

  // An unauthenticated peer declares a 1 MiB frame and sends its first
  // bytes: far above the largest hello, so the server must hang up
  // instead of buffering toward it.
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const std::size_t declared = std::size_t{1} << 20;
  ASSERT_GT(declared, wire::kMaxHelloFrameBytes);
  std::string header(4, '\0');
  for (int byte = 0; byte < 4; ++byte)
    header[byte] = static_cast<char>((declared >> (8 * byte)) & 0xff);
  ASSERT_TRUE(send_all(fd, header + std::string(1024, 'x')));
  char byte = 0;
  errno = 0;
  const ssize_t got = ::recv(fd, &byte, 1, 0);
  const bool disconnected = got == 0 || (got < 0 && errno == ECONNRESET);
  EXPECT_TRUE(disconnected) << "recv returned " << got << ", errno "
                            << errno;
  ::close(fd);

  // The server keeps serving authenticated clients.
  TcpQueueClient authed(server.address(), 24, "secret-token");
  authed.populate("camp", 2);
  EXPECT_EQ(authed.claim("camp", 0, TcpQueueClient::kNoHint, 2)
                .leased.size(),
            2u);

  // A token the pre-auth bound could never admit is refused up front.
  EXPECT_THROW(CampaignServer(CampaignServerConfig{
                   "127.0.0.1:0", "",
                   std::string(wire::kMaxAuthTokenBytes + 1, 't')}),
               std::invalid_argument);
}

TEST(CampaignServerTest, PipelinedFramesAllGetTheirReplies) {
  CampaignServer server(
      CampaignServerConfig{"127.0.0.1:0", "", "secret-token"});
  server.start();

  // One write: the hello, then 10k worker-id allocations. Each reply
  // carries a fresh range base, so replies prove both completeness and
  // order.
  constexpr std::size_t kFrames = 10000;
  std::string burst = hello_frame("secret-token");
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::ostringstream alloc;
    alloc.put(static_cast<char>(wire::kOpAllocWorkers));
    io::write_u64(alloc, 1);
    burst += wire::frame(alloc.str());
  }
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, burst));

  std::string reply;
  ASSERT_TRUE(recv_frame(fd, reply));
  ASSERT_EQ(reply, std::string(1, static_cast<char>(wire::kStatusOk)));
  std::uint64_t first_base = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(recv_frame(fd, reply)) << "reply " << i << " missing";
    ASSERT_EQ(reply.size(), 9u) << "reply " << i;
    ASSERT_EQ(reply[0], static_cast<char>(wire::kStatusOk)) << "reply " << i;
    std::istringstream body(reply.substr(1));
    const std::uint64_t base = io::read_u64(body);
    if (i == 0) first_base = base;
    ASSERT_EQ(base, first_base + i) << "reply " << i;
  }
  ::close(fd);
}

#endif  // !defined(_WIN32)

}  // namespace
}  // namespace ftnav
