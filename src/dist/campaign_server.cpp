#include "dist/campaign_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dist/wire_format.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binary_io.h"
#include "util/clock.h"
#include "util/perf.h"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace ftnav {

#if defined(_WIN32)

struct CampaignServer::Impl {};
CampaignServer::CampaignServer(CampaignServerConfig) {
  throw std::runtime_error("CampaignServer: POSIX-only");
}
CampaignServer::CampaignServer(std::string) {
  throw std::runtime_error("CampaignServer: POSIX-only");
}
CampaignServer::~CampaignServer() = default;
void CampaignServer::start() {}
void CampaignServer::stop() {}
std::string CampaignServer::address() const { return {}; }
int CampaignServer::port() const { return -1; }

#else

namespace {

using namespace wire;

// ---- journal format ------------------------------------------------------

constexpr char kJournalMagic[8] = {'F', 'T', 'N', 'A', 'V', 'J', 'N', 'L'};
constexpr std::uint32_t kJournalVersion = 1;

/// Journal record types. Reclaims are recorded by outcome (kRecDone /
/// kRecTodo), never by request — replay must not re-evaluate
/// heartbeat ages that died with the previous server process.
enum JournalRecord : unsigned char {
  kRecPopulate = 1,    // label, shard_count
  kRecLease = 2,       // label, worker, shards
  kRecDone = 3,        // label, shards
  kRecTodo = 4,        // label, shards
  kRecUpload = 5,      // label, worker, bitmap, bytes
  kRecRegister = 6,    // tag, scenario, params
  kRecWorkerBase = 7,  // next never-used worker id
};

/// Per-shard lease state: todo / done / claimed-by-worker.
constexpr int kShardTodo = -1;
constexpr int kShardDone = -2;

struct CampaignState {
  std::size_t shard_count = 0;
  std::vector<int> shard_state;  // kShardTodo, kShardDone, or owner id
  std::size_t done_count = 0;
  std::map<int, std::vector<std::uint8_t>> bitmaps;  // published partials
  std::map<int, std::string> blobs;
  // Shard-timing snapshots, append-only in arrival order. Telemetry,
  // not state: never journaled, lost on restart, and losing them can
  // only lose observability (the coordinator dedupes overlap).
  std::vector<std::string> timings;
};

/// Static metric/span names per opcode (trace events store pointers).
struct OpcodeNames {
  const char* span;       // trace span, e.g. "serve:claim"
  const char* counter;    // request counter, e.g. "rpc.claim"
  const char* histogram;  // latency histogram, e.g. "rpc_latency.claim"
};

OpcodeNames opcode_names(int opcode) {
  switch (opcode) {
    case kOpPopulate:
      return {"serve:populate", "rpc.populate", "rpc_latency.populate"};
    case kOpClaim: return {"serve:claim", "rpc.claim", "rpc_latency.claim"};
    case kOpDone: return {"serve:done", "rpc.done", "rpc_latency.done"};
    case kOpHeartbeat:
      return {"serve:heartbeat", "rpc.heartbeat", "rpc_latency.heartbeat"};
    case kOpUpload:
      return {"serve:upload", "rpc.upload", "rpc_latency.upload"};
    case kOpFetch: return {"serve:fetch", "rpc.fetch", "rpc_latency.fetch"};
    case kOpDrain: return {"serve:drain", "rpc.drain", "rpc_latency.drain"};
    case kOpReclaim:
      return {"serve:reclaim", "rpc.reclaim", "rpc_latency.reclaim"};
    case kOpHello: return {"serve:hello", "rpc.hello", "rpc_latency.hello"};
    case kOpRegister:
      return {"serve:register", "rpc.register", "rpc_latency.register"};
    case kOpStatus:
      return {"serve:status", "rpc.status", "rpc_latency.status"};
    case kOpAllocWorkers:
      return {"serve:alloc_workers", "rpc.alloc_workers",
              "rpc_latency.alloc_workers"};
    case kOpStats: return {"serve:stats", "rpc.stats", "rpc_latency.stats"};
    case kOpTimings:
      return {"serve:timings", "rpc.timings", "rpc_latency.timings"};
    case kOpDrainTimings:
      return {"serve:drain_timings", "rpc.drain_timings",
              "rpc_latency.drain_timings"};
    default:
      return {"serve:unknown", "rpc.unknown", "rpc_latency.unknown"};
  }
}

struct Connection {
  int fd = -1;
  std::string inbox;
  std::string outbox;
  bool authed = false;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The coordinator hosts the server while fork/exec-ing workers;
/// without close-on-exec every worker would inherit the listen
/// socket (keeping the port bound past a coordinator crash), live
/// connection fds (masking peer EOFs), and the wake pipe.
void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

}  // namespace

struct CampaignServer::Impl {
  CampaignServerConfig config;
  int listen_fd = -1;
  int resolved_port = -1;
  std::string resolved_host;
  int wake_pipe[2] = {-1, -1};
  std::thread thread;
  std::atomic<bool> stopping{false};

  // Queue state, touched only by the poll-loop thread (replay runs
  // before the thread starts).
  std::map<std::string, CampaignState> campaigns;
  std::map<int, std::chrono::steady_clock::time_point> heartbeats;
  std::vector<Connection> connections;
  std::map<std::string, CampaignRegistration> registrations;  // by tag
  std::int64_t next_worker_id = 0;

  int journal_fd = -1;
  bool journal_dirty = false;
  bool replaying = false;

  // Server metrics (counters + latency histograms), exposed through
  // the authenticated stats RPC. Increment-only from the poll-loop
  // thread; snapshot on demand.
  obs::MetricsRegistry metrics;

  ~Impl() { close_all(); }

  void close_all() {
    for (Connection& conn : connections) ::close(conn.fd);
    connections.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    for (int end : wake_pipe)
      if (end >= 0) ::close(end);
    wake_pipe[0] = wake_pipe[1] = -1;
    if (journal_fd >= 0) ::close(journal_fd);
    journal_fd = -1;
  }

  double heartbeat_age(int worker_id) const {
    const auto found = heartbeats.find(worker_id);
    if (found == heartbeats.end())
      return std::numeric_limits<double>::infinity();
    return timeutil::steady_seconds_since(found->second);
  }

  void beat(int worker_id) {
    heartbeats[worker_id] = std::chrono::steady_clock::now();
  }

  /// Any worker id seen owning queue state pushes the allocator past
  /// it, so alloc_workers never hands out an id with a history.
  void note_worker(int worker_id) {
    next_worker_id =
        std::max(next_worker_id, static_cast<std::int64_t>(worker_id) + 1);
  }

  // ---- journal -----------------------------------------------------------

  void journal_append(const std::string& record) {
    if (journal_fd < 0 || replaying) return;
    const std::string framed = wire::frame(record);
    std::size_t offset = 0;
    while (offset < framed.size()) {
      const ssize_t put = ::write(journal_fd, framed.data() + offset,
                                  framed.size() - offset);
      if (put <= 0)
        throw std::runtime_error("campaign_server: journal write failed: " +
                                 config.journal_path);
      offset += static_cast<std::size_t>(put);
    }
    journal_dirty = true;
    metrics.counter("journal.appends").add();
    metrics.counter("journal.bytes").add(framed.size());
  }

  /// fsync barrier between a state transition and its acknowledgment:
  /// called after every handled request, before the reply is queued.
  void journal_sync() {
    if (journal_fd < 0 || !journal_dirty) return;
    obs::TraceSpan span("journal_fsync", "server");
    if (::fsync(journal_fd) != 0)
      throw std::runtime_error("campaign_server: journal fsync failed: " +
                               config.journal_path);
    journal_dirty = false;
    metrics.counter("journal.fsyncs").add();
  }

  void journal_shards(unsigned char type, const std::string& label,
                      const std::vector<std::size_t>& shards) {
    std::ostringstream out;
    out.put(static_cast<char>(type));
    io::write_string(out, label);
    write_shards(out, shards);
    journal_append(out.str());
  }

  void apply_populate(const std::string& label, std::size_t shard_count) {
    auto [found, inserted] = campaigns.try_emplace(label);
    if (inserted) {
      found->second.shard_count = shard_count;
      found->second.shard_state.assign(shard_count, kShardTodo);
    }
  }

  void apply_lease(const std::string& label, int worker_id,
                   const std::vector<std::size_t>& shards) {
    CampaignState& campaign = campaigns[label];
    note_worker(worker_id);
    for (std::size_t shard : shards) {
      if (shard >= campaign.shard_count) continue;
      if (campaign.shard_state[shard] == kShardDone) continue;
      campaign.shard_state[shard] = worker_id;
    }
  }

  void apply_done(const std::string& label,
                  const std::vector<std::size_t>& shards) {
    CampaignState& campaign = campaigns[label];
    for (std::size_t shard : shards) {
      if (shard >= campaign.shard_count) continue;
      if (campaign.shard_state[shard] == kShardDone) continue;
      campaign.shard_state[shard] = kShardDone;
      ++campaign.done_count;
    }
  }

  void apply_todo(const std::string& label,
                  const std::vector<std::size_t>& shards) {
    CampaignState& campaign = campaigns[label];
    for (std::size_t shard : shards) {
      if (shard >= campaign.shard_count) continue;
      if (campaign.shard_state[shard] == kShardDone) --campaign.done_count;
      campaign.shard_state[shard] = kShardTodo;
    }
  }

  void apply_record(const std::string& record) {
    std::istringstream in(record);
    const int type = in.get();
    switch (type) {
      case kRecPopulate: {
        const std::string label = io::read_string(in);
        apply_populate(label, static_cast<std::size_t>(io::read_u64(in)));
        break;
      }
      case kRecLease: {
        const std::string label = io::read_string(in);
        const int worker_id = decode_worker(io::read_u64(in));
        apply_lease(label, worker_id, read_shards(in));
        break;
      }
      case kRecDone: {
        const std::string label = io::read_string(in);
        apply_done(label, read_shards(in));
        break;
      }
      case kRecTodo: {
        const std::string label = io::read_string(in);
        apply_todo(label, read_shards(in));
        break;
      }
      case kRecUpload: {
        const std::string label = io::read_string(in);
        const int worker_id = decode_worker(io::read_u64(in));
        std::vector<std::uint8_t> bitmap = read_bitmap(in);
        std::string bytes = io::read_string(in);
        CampaignState& campaign = campaigns[label];
        note_worker(worker_id);
        campaign.bitmaps[worker_id] = std::move(bitmap);
        campaign.blobs[worker_id] = std::move(bytes);
        break;
      }
      case kRecRegister: {
        CampaignRegistration reg;
        reg.tag = io::read_string(in);
        reg.scenario = io::read_string(in);
        reg.params = io::read_string(in);
        registrations[reg.tag] = std::move(reg);
        break;
      }
      case kRecWorkerBase: {
        next_worker_id = std::max(
            next_worker_id, static_cast<std::int64_t>(io::read_u64(in)));
        break;
      }
      default:
        throw std::runtime_error(
            "campaign_server: unknown journal record type " +
            std::to_string(type) + " in " + config.journal_path +
            " (journal from a newer server?)");
    }
  }

  /// Replays the journal into memory and leaves journal_fd positioned
  /// for appends. A torn final record (the previous server died
  /// mid-append, pre-fsync — by construction unacknowledged) is
  /// dropped.
  void open_journal() {
    if (config.journal_path.empty()) return;
    std::string bytes;
    {
      std::ifstream in(config.journal_path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    const std::size_t header_size = sizeof kJournalMagic + 4;
    if (!bytes.empty()) {
      if (bytes.size() < header_size ||
          std::memcmp(bytes.data(), kJournalMagic, sizeof kJournalMagic) != 0)
        throw std::runtime_error(
            "campaign_server: not a campaign-server journal: " +
            config.journal_path);
      std::uint32_t version = 0;
      for (int byte = 0; byte < 4; ++byte)
        version |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                       bytes[sizeof kJournalMagic + byte]))
                   << (8 * byte);
      if (version != kJournalVersion)
        throw std::runtime_error(
            "campaign_server: unsupported journal version " +
            std::to_string(version) + ": " + config.journal_path);
      obs::TraceSpan replay_span("journal_replay", "server");
      replaying = true;
      std::size_t replayed = 0;
      std::size_t offset = header_size;
      while (bytes.size() - offset >= 4) {
        std::uint32_t size = 0;
        for (int byte = 0; byte < 4; ++byte)
          size |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                      bytes[offset + byte]))
                  << (8 * byte);
        if (size > kMaxFrameBytes || bytes.size() - offset - 4 < size)
          break;  // torn tail: the record was never acknowledged
        apply_record(bytes.substr(offset + 4, size));
        ++replayed;
        offset += 4 + static_cast<std::size_t>(size);
      }
      replaying = false;
      metrics.counter("journal.replayed_records").add(replayed);
      obs::log_info("server", "journal %s replayed: %zu records, "
                    "%zu campaigns, %zu registrations",
                    config.journal_path.c_str(), replayed, campaigns.size(),
                    registrations.size());
    }
    journal_fd =
        ::open(config.journal_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
               0644);
    if (journal_fd < 0)
      throw std::runtime_error("campaign_server: cannot open journal: " +
                               config.journal_path);
    set_cloexec(journal_fd);
    if (bytes.empty()) {
      std::string header(kJournalMagic, sizeof kJournalMagic);
      for (int byte = 0; byte < 4; ++byte)
        header.push_back(
            static_cast<char>((kJournalVersion >> (8 * byte)) & 0xff));
      if (::write(journal_fd, header.data(), header.size()) !=
          static_cast<ssize_t>(header.size()))
        throw std::runtime_error("campaign_server: cannot write journal: " +
                                 config.journal_path);
      ::fsync(journal_fd);
    }
  }

  // ---- RPC handlers (poll-loop thread only) ----

  std::string handle_populate(std::istream& in) {
    const std::string label = io::read_string(in);
    const std::size_t shard_count =
        static_cast<std::size_t>(io::read_u64(in));
    auto [found, inserted] = campaigns.try_emplace(label);
    CampaignState& campaign = found->second;
    if (inserted) {
      campaign.shard_count = shard_count;
      campaign.shard_state.assign(shard_count, kShardTodo);
      std::ostringstream record;
      record.put(static_cast<char>(kRecPopulate));
      io::write_string(record, label);
      io::write_u64(record, shard_count);
      journal_append(record.str());
    } else if (campaign.shard_count != shard_count) {
      return error_reply("populate: shard count mismatch for " + label);
    }
    return ok_reply();
  }

  std::string handle_claim(std::istream& in) {
    const std::string label = io::read_string(in);
    const int worker_id = decode_worker(io::read_u64(in));
    const std::size_t hint = static_cast<std::size_t>(io::read_u64(in));
    const std::size_t max_batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(io::read_u64(in)));
    const auto found = campaigns.find(label);
    if (found == campaigns.end())
      return error_reply("claim: unknown campaign " + label);
    CampaignState& campaign = found->second;
    beat(worker_id);  // a claiming worker is by definition alive
    note_worker(worker_id);
    constexpr std::size_t kNoHint = ~static_cast<std::size_t>(0);

    std::vector<std::size_t> leased;
    const auto lease = [&](std::size_t shard) {
      if (shard < campaign.shard_count &&
          campaign.shard_state[shard] == kShardTodo) {
        campaign.shard_state[shard] = worker_id;
        leased.push_back(shard);
      }
    };
    if (hint != kNoHint) lease(hint);
    for (std::size_t shard = 0;
         shard < campaign.shard_count && leased.size() < max_batch; ++shard)
      lease(shard);

    if (!leased.empty()) {
      metrics.counter("leases.granted").add(leased.size());
      std::ostringstream record;
      record.put(static_cast<char>(kRecLease));
      io::write_string(record, label);
      io::write_u64(record, encode_worker(worker_id));
      write_shards(record, leased);
      journal_append(record.str());
    }

    std::ostringstream body;
    write_shards(body, leased);
    body.put(campaign.done_count >= campaign.shard_count ? 1 : 0);
    return ok_reply(body.str());
  }

  std::string handle_done(std::istream& in) {
    const std::string label = io::read_string(in);
    const int worker_id = decode_worker(io::read_u64(in));
    const std::vector<std::size_t> shards = read_shards(in);
    const auto found = campaigns.find(label);
    if (found == campaigns.end())
      return error_reply("done: unknown campaign " + label);
    CampaignState& campaign = found->second;
    beat(worker_id);
    std::vector<std::size_t> released;
    for (std::size_t shard : shards) {
      if (shard >= campaign.shard_count) continue;
      // Only the lease owner may release; an already-done shard (an
      // earlier life's lease, recovered by reclaim) is simply skipped,
      // mirroring the filesystem queue's failed rename.
      if (campaign.shard_state[shard] != worker_id) continue;
      campaign.shard_state[shard] = kShardDone;
      ++campaign.done_count;
      released.push_back(shard);
    }
    if (!released.empty()) journal_shards(kRecDone, label, released);
    std::ostringstream body;
    io::write_u64(body, released.size());
    return ok_reply(body.str());
  }

  std::string handle_heartbeat(std::istream& in) {
    beat(decode_worker(io::read_u64(in)));
    return ok_reply();
  }

  std::string handle_upload(std::istream& in) {
    const std::string label = io::read_string(in);
    const int worker_id = decode_worker(io::read_u64(in));
    std::vector<std::uint8_t> bitmap = read_bitmap(in);
    std::string bytes = io::read_string(in);
    const auto found = campaigns.find(label);
    if (found == campaigns.end())
      return error_reply("upload: unknown campaign " + label);
    beat(worker_id);
    note_worker(worker_id);
    {
      std::ostringstream record;
      record.put(static_cast<char>(kRecUpload));
      io::write_string(record, label);
      io::write_u64(record, encode_worker(worker_id));
      write_bitmap(record, bitmap);
      io::write_string(record, bytes);
      journal_append(record.str());
    }
    found->second.bitmaps[worker_id] = std::move(bitmap);
    found->second.blobs[worker_id] = std::move(bytes);
    return ok_reply();
  }

  std::string handle_fetch(std::istream& in) {
    const std::string label = io::read_string(in);
    const int worker_id = decode_worker(io::read_u64(in));
    std::ostringstream body;
    const auto found = campaigns.find(label);
    // A campaign the server has never seen simply has no partial yet
    // (a worker's very first life fetches before populating).
    if (found == campaigns.end() ||
        found->second.blobs.find(worker_id) == found->second.blobs.end()) {
      body.put(0);
    } else {
      body.put(1);
      io::write_string(body, found->second.blobs.at(worker_id));
    }
    return ok_reply(body.str());
  }

  std::string handle_drain(std::istream& in) {
    const std::string label = io::read_string(in);
    std::ostringstream body;
    const auto found = campaigns.find(label);
    if (found == campaigns.end()) {
      io::write_u64(body, 0);
    } else {
      io::write_u64(body, found->second.blobs.size());
      for (const auto& [worker_id, bytes] : found->second.blobs) {
        io::write_u64(body, encode_worker(worker_id));
        io::write_string(body, bytes);
      }
    }
    return ok_reply(body.str());
  }

  std::string handle_reclaim(std::istream& in) {
    const int target = decode_worker(io::read_u64(in));
    const double expiry_seconds = io::read_f64(in);
    std::uint64_t recovered = 0;
    for (auto& [label, campaign] : campaigns) {
      std::vector<std::size_t> survived_shards;
      std::vector<std::size_t> requeued_shards;
      for (std::size_t shard = 0; shard < campaign.shard_count; ++shard) {
        const int owner = campaign.shard_state[shard];
        if (owner < 0) continue;  // todo or done
        if (target >= 0 && owner != target) continue;
        if (expiry_seconds > 0.0 && heartbeat_age(owner) < expiry_seconds)
          continue;
        // The published partial is the durable truth: a shard it
        // records survived the owner's death; anything else re-runs.
        const auto bitmap = campaign.bitmaps.find(owner);
        const bool survived = bitmap != campaign.bitmaps.end() &&
                              shard < bitmap->second.size() &&
                              bitmap->second[shard] != 0;
        if (survived) {
          campaign.shard_state[shard] = kShardDone;
          ++campaign.done_count;
          survived_shards.push_back(shard);
        } else {
          campaign.shard_state[shard] = kShardTodo;
          requeued_shards.push_back(shard);
        }
        ++recovered;
      }
      // Journaled by outcome, not request: replaying these records
      // reproduces the decision without the heartbeat table that
      // informed it.
      if (!survived_shards.empty()) {
        metrics.counter("leases.reclaimed_done").add(survived_shards.size());
        journal_shards(kRecDone, label, survived_shards);
      }
      if (!requeued_shards.empty()) {
        metrics.counter("leases.reclaimed_todo").add(requeued_shards.size());
        journal_shards(kRecTodo, label, requeued_shards);
      }
      if (!survived_shards.empty() || !requeued_shards.empty())
        obs::log_info("server",
                      "reclaim on %s: %zu shards survived (published), "
                      "%zu requeued",
                      label.c_str(), survived_shards.size(),
                      requeued_shards.size());
    }
    std::ostringstream body;
    io::write_u64(body, recovered);
    return ok_reply(body.str());
  }

  std::string handle_hello(Connection& conn, std::istream& in) {
    const std::string token = io::read_string(in);
    if (!config.auth_token.empty() && token != config.auth_token) {
      metrics.counter("auth.rejected").add();
      obs::log_warn("server", "hello with invalid session token rejected");
      return auth_error_reply("invalid session token");
    }
    conn.authed = true;
    return ok_reply();
  }

  std::string handle_register(std::istream& in) {
    CampaignRegistration reg;
    reg.tag = io::read_string(in);
    reg.scenario = io::read_string(in);
    reg.params = io::read_string(in);
    if (reg.tag.empty()) return error_reply("register: empty tag");
    const auto found = registrations.find(reg.tag);
    if (found != registrations.end()) {
      // Idempotent for identical content (a resubmitted campaign);
      // a conflicting submission under the same tag is refused.
      if (found->second.scenario == reg.scenario &&
          found->second.params == reg.params)
        return ok_reply();
      return error_reply("register: tag '" + reg.tag +
                         "' already registered for scenario " +
                         found->second.scenario +
                         " with different parameters");
    }
    {
      std::ostringstream record;
      record.put(static_cast<char>(kRecRegister));
      io::write_string(record, reg.tag);
      io::write_string(record, reg.scenario);
      io::write_string(record, reg.params);
      journal_append(record.str());
    }
    registrations.emplace(reg.tag, std::move(reg));
    return ok_reply();
  }

  std::string handle_status(std::istream&) {
    std::ostringstream body;
    io::write_u64(body, registrations.size());
    for (const auto& [tag, reg] : registrations) {
      io::write_string(body, reg.tag);
      io::write_string(body, reg.scenario);
      io::write_string(body, reg.params);
    }
    io::write_u64(body, campaigns.size());
    for (const auto& [label, campaign] : campaigns) {
      io::write_string(body, label);
      io::write_u64(body, campaign.shard_count);
      io::write_u64(body, campaign.done_count);
      std::uint64_t leased = 0;
      for (int state : campaign.shard_state)
        if (state >= 0) ++leased;
      io::write_u64(body, leased);
      io::write_u64(body, campaign.blobs.size());
    }
    return ok_reply(body.str());
  }

  std::string handle_alloc_workers(std::istream& in) {
    const std::int64_t count = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(io::read_u64(in)));
    const std::int64_t base = next_worker_id;
    next_worker_id += count;
    std::ostringstream record;
    record.put(static_cast<char>(kRecWorkerBase));
    io::write_u64(record, static_cast<std::uint64_t>(next_worker_id));
    journal_append(record.str());
    std::ostringstream body;
    io::write_u64(body, static_cast<std::uint64_t>(base));
    return ok_reply(body.str());
  }

  std::string handle_stats(std::istream&) {
    obs::MetricsSnapshot snapshot = metrics.snapshot();
    // Queue depths are point-in-time state, not monotonic counters;
    // synthesize them per request so the document always reflects the
    // live queues.
    for (const auto& [label, campaign] : campaigns) {
      std::uint64_t leased = 0;
      for (int state : campaign.shard_state)
        if (state >= 0) ++leased;
      obs::MetricsSnapshot depth;
      depth.counters.push_back(
          {"queue." + label + ".done", campaign.done_count});
      depth.counters.push_back({"queue." + label + ".leased", leased});
      depth.counters.push_back(
          {"queue." + label + ".todo",
           campaign.shard_count - campaign.done_count - leased});
      snapshot.merge(depth);
    }
    std::ostringstream body;
    obs::write_snapshot(body, snapshot);
    return ok_reply(body.str());
  }

  std::string handle_timings(std::istream& in) {
    const std::string label = io::read_string(in);
    const int worker_id = decode_worker(io::read_u64(in));
    std::string bytes = io::read_string(in);
    beat(worker_id);
    // Unknown label: accept and drop — timings are best-effort and
    // must never create queue state populate didn't.
    const auto found = campaigns.find(label);
    if (found != campaigns.end()) {
      found->second.timings.push_back(std::move(bytes));
      metrics.counter("timings.snapshots").add();
    }
    return ok_reply();
  }

  std::string handle_drain_timings(std::istream& in) {
    const std::string label = io::read_string(in);
    std::ostringstream body;
    const auto found = campaigns.find(label);
    if (found == campaigns.end()) {
      io::write_u64(body, 0);
    } else {
      io::write_u64(body, found->second.timings.size());
      for (const std::string& blob : found->second.timings)
        io::write_string(body, blob);
    }
    return ok_reply(body.str());
  }

  std::string handle_request(Connection& conn, const std::string& payload) {
    try {
      std::istringstream in(payload);
      int opcode = in.get();
      const OpcodeNames names = opcode_names(opcode);
      obs::TraceSpan span(names.span, "server", "bytes", payload.size());
      metrics.counter(names.counter).add();
      const double start = perf::now();
      const auto dispatch = [&]() -> std::string {
        // The session gate: with a token configured, every opcode but
        // the hello handshake is rejected before touching queue state.
        if (!config.auth_token.empty() && !conn.authed &&
            opcode != kOpHello) {
          metrics.counter("auth.rejected").add();
          obs::log_warn("server", "unauthenticated %s rejected",
                        names.counter);
          return auth_error_reply(
              "authentication required (pass --auth-token or set "
              "FTNAV_AUTH_TOKEN)");
        }
        switch (opcode) {
          case kOpPopulate: return handle_populate(in);
          case kOpClaim: return handle_claim(in);
          case kOpDone: return handle_done(in);
          case kOpHeartbeat: return handle_heartbeat(in);
          case kOpUpload: return handle_upload(in);
          case kOpFetch: return handle_fetch(in);
          case kOpDrain: return handle_drain(in);
          case kOpReclaim: return handle_reclaim(in);
          case kOpHello: return handle_hello(conn, in);
          case kOpRegister: return handle_register(in);
          case kOpStatus: return handle_status(in);
          case kOpAllocWorkers: return handle_alloc_workers(in);
          case kOpStats: return handle_stats(in);
          case kOpTimings: return handle_timings(in);
          case kOpDrainTimings: return handle_drain_timings(in);
          default:
            return error_reply("unknown opcode " + std::to_string(opcode));
        }
      };
      std::string reply = dispatch();
      metrics.histogram(names.histogram).observe(perf::now() - start);
      return reply;
    } catch (const std::exception& error) {
      obs::log_debug("server", "request failed: %s", error.what());
      return error_reply(error.what());
    }
  }

  // ---- poll loop ----

  /// True while an auth-enabled server has not seen this peer's valid
  /// hello: its frames are bounded by kMaxHelloFrameBytes.
  bool pre_auth(const Connection& conn) const {
    return !config.auth_token.empty() && !conn.authed;
  }

  /// Consumes complete frames from the connection's inbox, then drops
  /// the consumed prefix once (per-frame erases would make a burst of
  /// pipelined small frames quadratic). Returns false on a protocol
  /// violation (oversized frame) — drop the peer.
  bool pump_frames(Connection& conn) {
    std::size_t offset = 0;
    while (conn.inbox.size() - offset >= 4) {
      std::size_t size = 0;
      for (int byte = 0; byte < 4; ++byte)
        size |= static_cast<std::size_t>(
                    static_cast<unsigned char>(conn.inbox[offset + byte]))
                << (8 * byte);
      if (size > (pre_auth(conn) ? kMaxHelloFrameBytes : kMaxFrameBytes))
        return false;
      if (conn.inbox.size() - offset - 4 < size) break;
      const std::string payload = conn.inbox.substr(offset + 4, size);
      offset += 4 + size;
      std::string reply = handle_request(conn, payload);
      // Durability barrier: a transition reaches the disk before its
      // acknowledgment reaches the wire. A crash between the two
      // replays the transition (idempotent); the reverse — an acked
      // transition a restart forgets — can never happen. A failed
      // sync (disk gone) downgrades the ack to an error: the client
      // aborts rather than trusting state a restart would forget.
      try {
        journal_sync();
      } catch (const std::exception& error) {
        reply = error_reply(error.what());
      }
      conn.outbox += frame(reply);
    }
    conn.inbox.erase(0, offset);
    return true;
  }

  void run() {
    std::vector<pollfd> fds;
    while (!stopping.load(std::memory_order_acquire)) {
      fds.clear();
      fds.push_back({wake_pipe[0], POLLIN, 0});
      fds.push_back({listen_fd, POLLIN, 0});
      for (const Connection& conn : connections)
        fds.push_back({conn.fd,
                       static_cast<short>(POLLIN | (conn.outbox.empty()
                                                        ? 0
                                                        : POLLOUT)),
                       0});
      if (::poll(fds.data(), fds.size(), -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[0].revents != 0) {
        char drained[64];
        while (::read(wake_pipe[0], drained, sizeof drained) > 0) {}
      }
      if (fds[1].revents & POLLIN) {
        while (true) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd < 0) break;
          set_nonblocking(fd);
          set_cloexec(fd);
          metrics.counter("connections.accepted").add();
          connections.push_back(Connection{fd, {}, {}, false});
        }
        // The new connections get polled next iteration.
      }
      // Walk the pre-poll connection count only; erase dead ones after.
      std::vector<std::size_t> dead;
      const std::size_t polled =
          std::min(connections.size(), fds.size() - 2);
      for (std::size_t index = 0; index < polled; ++index) {
        Connection& conn = connections[index];
        const short events = fds[index + 2].revents;
        bool drop = (events & (POLLERR | POLLNVAL)) != 0;
        if (!drop && (events & POLLIN)) {
          char chunk[4096];
          while (true) {
            const ssize_t got = ::recv(conn.fd, chunk, sizeof chunk, 0);
            if (got > 0) {
              conn.inbox.append(chunk, static_cast<std::size_t>(got));
              // An unauthenticated peer gets at most one hello's worth
              // of buffer before its frames are checked.
              if (pre_auth(conn) &&
                  conn.inbox.size() > 4 + kMaxHelloFrameBytes)
                break;
              continue;
            }
            if (got == 0) drop = true;  // orderly shutdown
            else if (errno != EAGAIN && errno != EWOULDBLOCK) drop = true;
            break;
          }
          if (!drop && !pump_frames(conn)) drop = true;
        }
        if (!drop && (events & POLLHUP) && conn.outbox.empty()) drop = true;
        if (!drop && !conn.outbox.empty()) {
          const ssize_t sent = ::send(conn.fd, conn.outbox.data(),
                                      conn.outbox.size(), MSG_NOSIGNAL);
          if (sent > 0) conn.outbox.erase(0, static_cast<std::size_t>(sent));
          else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
            drop = true;
        }
        if (drop) dead.push_back(index);
      }
      // A vanished client's leases stay with its worker id until a
      // reclaim recovers them — nothing to clean up here but the fd.
      for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
        ::close(connections[*it].fd);
        connections.erase(connections.begin() +
                          static_cast<std::ptrdiff_t>(*it));
      }
    }
  }
};

CampaignServer::CampaignServer(CampaignServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  if (config.auth_token.size() > kMaxAuthTokenBytes)
    throw std::invalid_argument(
        "campaign server: session token longer than " +
        std::to_string(kMaxAuthTokenBytes) + " bytes");
  impl_->config = std::move(config);
}

CampaignServer::CampaignServer(std::string bind_addr)
    : CampaignServer(CampaignServerConfig{std::move(bind_addr), {}, {}}) {}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::start() {
  if (impl_->thread.joinable()) return;  // already running
  impl_->open_journal();
  std::string host;
  std::string port;
  split_addr(impl_->config.bind_addr, host, port);

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.empty() ? nullptr : host.c_str(), port.c_str(),
                    &hints, &resolved) != 0 ||
      resolved == nullptr)
    throw std::runtime_error("CampaignServer: cannot resolve " +
                             impl_->config.bind_addr);

  const int fd = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
  if (fd < 0) {
    ::freeaddrinfo(resolved);
    throw std::runtime_error("CampaignServer: socket() failed");
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  const bool bound =
      ::bind(fd, resolved->ai_addr, resolved->ai_addrlen) == 0 &&
      ::listen(fd, 64) == 0;
  ::freeaddrinfo(resolved);
  if (!bound) {
    ::close(fd);
    throw std::runtime_error("CampaignServer: cannot bind " +
                             impl_->config.bind_addr);
  }

  sockaddr_in local{};
  socklen_t local_size = sizeof local;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_size);
  impl_->resolved_port = static_cast<int>(ntohs(local.sin_port));
  impl_->resolved_host = host.empty() ? "127.0.0.1" : host;

  if (::pipe(impl_->wake_pipe) != 0) {
    ::close(fd);
    throw std::runtime_error("CampaignServer: pipe() failed");
  }
  set_nonblocking(impl_->wake_pipe[0]);
  set_cloexec(impl_->wake_pipe[0]);
  set_cloexec(impl_->wake_pipe[1]);
  set_nonblocking(fd);
  set_cloexec(fd);
  impl_->listen_fd = fd;
  impl_->stopping.store(false, std::memory_order_release);
  obs::log_info("server", "serving on %s:%d%s%s",
                impl_->resolved_host.c_str(), impl_->resolved_port,
                impl_->config.journal_path.empty() ? "" : ", journal ",
                impl_->config.journal_path.c_str());
  impl_->thread = std::thread([impl = impl_.get()] { impl->run(); });
}

void CampaignServer::stop() {
  if (!impl_->thread.joinable()) return;
  impl_->stopping.store(true, std::memory_order_release);
  const char wake = 1;
  (void)!::write(impl_->wake_pipe[1], &wake, 1);
  impl_->thread.join();
  impl_->close_all();
}

std::string CampaignServer::address() const {
  return impl_->resolved_host + ":" + std::to_string(impl_->resolved_port);
}

int CampaignServer::port() const { return impl_->resolved_port; }

#endif  // !defined(_WIN32)

}  // namespace ftnav
