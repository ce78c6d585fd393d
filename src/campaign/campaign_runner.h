#pragma once
// Parallel sharded fault-injection campaign engine.
//
// The paper's figures are produced by campaigns: grids of
// BER x injection location x repeat trials, each an independent
// simulation. Trials are embarrassingly parallel *provided* every
// trial draws from its own deterministic noise stream, so this runner
// is built around one invariant:
//
//   trial i consumes Rng::stream(seed, i), a pure function of
//   (campaign seed, trial index) -- never of thread count, scheduling
//   order, or shard boundaries.
//
// Every campaign executes through one core: [0, trial_count) is cut
// into stream_shard_count(trial_count) contiguous shards — a pure
// function of the trial count, never of the thread count — which are
// dispatched to the process-wide persistent WorkerPool (work-stealing
// deques, reused across campaign phases — see worker_pool.h). Each
// shard accumulates into its own partial, and partials merge into the
// campaign result in completion order. The same core carries the
// optional streaming features of CampaignStreamConfig (progress,
// checkpoint/resume, graceful stop, distributed shard arbitration; see
// streaming.h and checkpoint.h): a checkpoint written by a 1-thread
// run resumes bit-identically under 8 threads and vice versa, and a
// default-constructed config simply runs every shard.
//
// Two adapters sit on the core:
//   * `map` returns the trial-indexed results vector, optionally with
//     a per-shard scratch object (resident engines, buffers); output is
//     bit-identical for any `threads` value. Order-sensitive
//     floating-point folds should `map` to a per-trial vector and fold
//     serially in trial order.
//   * `map_reduce` folds trials into per-shard accumulators. Merges
//     run in completion order, so accumulators must merge
//     order-invariantly (integer tallies, disjoint HeatmapGrid cells,
//     Histogram bins, min/max); every campaign accumulator in
//     src/experiments does.
//
// The first exception thrown by a trial aborts the remaining shards
// and is rethrown on the calling thread after the region joins (among
// concurrently failing shards, the lowest recorded index wins).

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/streaming.h"
#include "obs/shard_timing.h"
#include "obs/trace.h"
#include "util/perf.h"
#include "util/rng.h"

namespace ftnav {

/// Contiguous trial range [begin, end) handed to one worker at a time.
struct CampaignShard {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
};

/// Splits [0, trial_count) into at most `max_shards` contiguous,
/// near-equal shards (the first `trial_count % shards` are one trial
/// longer). Returns fewer shards than requested when the grid is
/// smaller than the pool; never returns an empty shard.
std::vector<CampaignShard> shard_trials(std::size_t trial_count,
                                        std::size_t max_shards);

/// Shard budget of every campaign: a pure function of the trial count
/// (fixed 64-way split, fewer for tiny grids) so results, checkpoints
/// and shard telemetry are the same across thread counts and machines.
std::size_t stream_shard_count(std::size_t trial_count) noexcept;

/// Resolves a config `threads` knob: values > 0 pass through, anything
/// else becomes std::thread::hardware_concurrency() (minimum 1).
int resolve_threads(int threads) noexcept;

namespace detail {

/// Scratch type of the scratch-less `map` overload.
struct NoScratch {};

/// Accumulator adapter that lets `map` campaigns ride the campaign
/// core: the merged side owns the full trial-indexed results vector;
/// each per-shard partial carries only its slice, which the merge
/// copies into place (disjoint ranges, hence order-invariant), plus
/// the shard's runtime-only scratch object. The scratch never reaches
/// save_state/restore_state, so checkpoint bytes hold results only.
template <typename T, typename Scratch>
struct MapAccum {
  std::vector<T> results;          // merged side (full trial count)
  std::size_t slice_begin = 0;     // partial side: the shard's results
  std::vector<T> slice;
  std::optional<Scratch> scratch;  // partial side, built on first trial

  void save_state(std::ostream& out) const {
    CampaignStateCodec<std::vector<T>>::save(out, results);
  }
  void restore_state(std::istream& in) {
    CampaignStateCodec<std::vector<T>>::load(in, results);
  }
};

}  // namespace detail

class CampaignRunner {
 public:
  /// `threads <= 0` selects hardware_concurrency.
  explicit CampaignRunner(int threads = 0);

  int threads() const noexcept { return threads_; }

  /// Deterministic parallel map: returns {fn(0, rng_0), ...,
  /// fn(trial_count - 1, rng_{n-1})} where rng_i = Rng::stream(seed, i).
  /// `tag` names the campaign in checkpoints and shard telemetry; the
  /// result type must be trivially copyable (raw-bytes checkpoint
  /// payload).
  template <typename Fn>
    requires std::invocable<Fn&, std::size_t, Rng&>
  auto map(std::string_view tag, std::size_t trial_count, std::uint64_t seed,
           Fn&& fn, const CampaignStreamConfig& stream = {}) const {
    return map(
        tag, trial_count, seed, [] { return detail::NoScratch{}; },
        [&fn](std::size_t trial, Rng& rng, detail::NoScratch&) {
          return fn(trial, rng);
        },
        stream);
  }

  /// `map` with a per-shard scratch object: `scratch = make_scratch()`
  /// is built once per shard and passed to `fn(trial, rng, scratch)`
  /// for every trial of that shard. Scratch is runtime-only reuse
  /// state (resident engines, buffers); `fn`'s results must not depend
  /// on it, so output and checkpoint bytes stay bit-identical to the
  /// scratch-less form.
  template <typename MakeScratch, typename Fn,
            typename Scratch = std::invoke_result_t<MakeScratch&>,
            typename T =
                std::invoke_result_t<Fn&, std::size_t, Rng&, Scratch&>>
  std::vector<T> map(std::string_view tag, std::size_t trial_count,
                     std::uint64_t seed, MakeScratch&& make_scratch, Fn&& fn,
                     const CampaignStreamConfig& stream = {}) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "CampaignRunner::map results must be trivially copyable");
    static_assert(!std::is_same_v<T, bool>,
                  "CampaignRunner::map: return char or int instead of bool");
    using Accum = detail::MapAccum<T, Scratch>;
    Accum merged = run_streamed(
        tag, trial_count, seed,
        [trial_count] {
          Accum acc;
          acc.results.resize(trial_count);
          return acc;
        },
        [] { return Accum{}; },
        [&](Accum& acc, const CampaignShard& shard, std::size_t trial,
            Rng& rng) {
          if (!acc.scratch) {
            acc.scratch.emplace(make_scratch());
            acc.slice_begin = shard.begin;
            acc.slice.reserve(shard.size());
          }
          acc.slice.push_back(fn(trial, rng, *acc.scratch));
        },
        [](Accum& into, Accum&& from) {
          std::copy(from.slice.begin(), from.slice.end(),
                    into.results.begin() +
                        static_cast<std::ptrdiff_t>(from.slice_begin));
        },
        // A restored MapAccum carries the full-size results vector, so
        // copy the trial ranges its bitmap owns (disjoint across
        // partials, hence order-invariant).
        [](Accum& into, Accum&& from,
           const std::vector<std::uint8_t>& from_done,
           const std::vector<CampaignShard>& shards) {
          for (std::size_t s = 0; s < shards.size(); ++s) {
            if (!from_done[s]) continue;
            for (std::size_t t = shards[s].begin; t < shards[s].end; ++t)
              into.results[t] = from.results[t];
          }
        },
        stream);
    return std::move(merged.results);
  }

  /// Sharded map-reduce: every shard accumulates into its own
  /// `make_acc()` instance via `accumulate(acc, trial, rng)`, and the
  /// partials fold into the result via `merge(into, from)` in
  /// completion order, so `merge` must be order-invariant (see file
  /// comment). With checkpointing the accumulator must be serializable
  /// via CampaignStateCodec (save_state/restore_state members, or a
  /// vector of trivially copyable tallies).
  template <typename MakeAcc, typename AccumulateFn, typename MergeFn>
  auto map_reduce(std::string_view tag, std::size_t trial_count,
                  std::uint64_t seed, MakeAcc&& make_acc,
                  AccumulateFn&& accumulate, MergeFn&& merge,
                  const CampaignStreamConfig& stream = {}) const
      -> std::invoke_result_t<MakeAcc&> {
    using Acc = std::invoke_result_t<MakeAcc&>;
    return run_streamed(
        tag, trial_count, seed, make_acc, make_acc,
        [&](Acc& acc, const CampaignShard&, std::size_t trial, Rng& rng) {
          accumulate(acc, trial, rng);
        },
        merge,
        // Restored partial accumulators merge like any other partial:
        // order-invariant adds where unclaimed cells contribute the
        // make_acc() identity.
        [&merge](Acc& into, Acc&& from, const std::vector<std::uint8_t>&,
                 const std::vector<CampaignShard>&) {
          merge(into, std::move(from));
        },
        stream);
  }

 private:
  /// The campaign core: thread-independent partition, optional
  /// checkpoint resume, per-shard accumulate -> commit into a
  /// StreamingAggregator, periodic checkpoint saves, graceful stop,
  /// and the distributed hooks (shard arbitration + partial-checkpoint
  /// merge — see src/dist/). `make_merged()` builds the empty merged
  /// side (also the target checkpoint payloads restore into);
  /// `make_partial()` builds a fresh per-shard accumulator;
  /// `accumulate(acc, shard, trial, rng)` fills it; `merge(into, from)`
  /// folds it into the merged side; `merge_restored(into, from,
  /// from_done, shards)` folds an accumulator restored from another
  /// process's partial checkpoint (full-state, not a per-shard slice).
  template <typename MakeMerged, typename MakePartial, typename AccumulateFn,
            typename MergeFn, typename MergeRestoredFn,
            typename Acc = std::invoke_result_t<MakeMerged&>>
  Acc run_streamed(std::string_view tag, std::size_t trial_count,
                   std::uint64_t seed, MakeMerged&& make_merged,
                   MakePartial&& make_partial, AccumulateFn&& accumulate,
                   MergeFn&& merge, MergeRestoredFn&& merge_restored,
                   const CampaignStreamConfig& stream) const {
    if (trial_count == 0) return make_merged();
    const std::vector<CampaignShard> shards =
        shard_trials(trial_count, stream_shard_count(trial_count));
    const std::uint64_t fingerprint = CampaignCheckpoint::fingerprint(
        tag, seed, trial_count, shards.size());
    const bool checkpointing = !stream.checkpoint_path.empty();

    // Coordinator finalize: fold the workers' partial checkpoints into
    // one checkpoint at `checkpoint_path`, then resume from it. When
    // the partials cover every shard this run does zero trials and the
    // merged file is byte-identical to a single-process run's.
    if (checkpointing && !stream.merge_partials.empty()) {
      obs::TraceSpan merge_span("merge_partials", "campaign", "partials",
                                stream.merge_partials.size());
      std::vector<CampaignCheckpoint::Loaded> partials;
      for (const std::string& path : stream.merge_partials) {
        std::optional<CampaignCheckpoint::Loaded> loaded;
        try {
          loaded = CampaignCheckpoint::load(path);
        } catch (const std::runtime_error&) {
          // Corrupt partial: skip it, exactly as lease reclaim treats
          // it as "nothing committed" — its shards were (or will be)
          // re-run, by another worker or by this finalize pass below.
          continue;
        }
        if (!loaded) continue;  // worker that never claimed a shard
        if (loaded->header.fingerprint != fingerprint)
          throw std::runtime_error(
              "campaign merge: partial checkpoint was written by a "
              "different campaign configuration: " +
              path);
        partials.push_back(std::move(*loaded));
      }
      if (!partials.empty()) {
        // One decode per partial, one encode for the union.
        const auto merge_payload =
            [&](const std::vector<CampaignCheckpoint::Loaded>& loaded) {
              Acc merged_acc = make_merged();
              {
                std::istringstream in(loaded.front().payload);
                CampaignStateCodec<Acc>::load(in, merged_acc);
              }
              for (std::size_t i = 1; i < loaded.size(); ++i) {
                Acc partial_acc = make_merged();
                std::istringstream in(loaded[i].payload);
                CampaignStateCodec<Acc>::load(in, partial_acc);
                merge_restored(merged_acc, std::move(partial_acc),
                               loaded[i].shard_done, shards);
              }
              std::ostringstream out;
              CampaignStateCodec<Acc>::save(out, merged_acc);
              return out.str();
            };
        const CampaignCheckpoint::Loaded merged =
            CampaignCheckpoint::merge(partials, merge_payload);
        CampaignCheckpoint::save(stream.checkpoint_path, merged.header,
                                 merged.shard_done, merged.payload);
      }
    }

    // Resume: load merged state + completed-shard bitmap.
    Acc initial = make_merged();
    std::vector<std::uint8_t> restored(shards.size(), 0);
    if (checkpointing && (stream.resume || !stream.merge_partials.empty())) {
      if (auto loaded = CampaignCheckpoint::load(stream.checkpoint_path)) {
        if (loaded->header.fingerprint != fingerprint)
          throw std::runtime_error(
              "campaign resume: checkpoint was written by a different "
              "campaign configuration: " +
              stream.checkpoint_path);
        std::istringstream payload(loaded->payload);
        CampaignStateCodec<Acc>::load(payload, initial);
        restored = loaded->shard_done;
      }
    }

    StreamingAggregator<Acc> aggregator(
        std::move(initial),
        [&merge](Acc& into, Acc&& from) { merge(into, std::move(from)); },
        trial_count, shards.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (restored[i])
        aggregator.restore_shard(i, shards[i].size());
      else
        pending.push_back(i);
    }

    if (stream.arbiter != nullptr)
      stream.arbiter->begin(shards.size(), restored);

    if (stream.on_progress && stream.progress_every_trials > 0) {
      aggregator.set_snapshot_callback(
          stream.progress_every_trials,
          [&stream](const StreamProgress& progress, const Acc&) {
            stream.on_progress(progress);
          });
    }

    // Commit hook (runs under the aggregator lock): periodic + final
    // checkpoint saves, then the graceful-stop kill switch.
    std::size_t shards_since_save = 0;
    bool stop_requested = false;
    aggregator.set_commit_hook([&](const StreamingAggregator<Acc>& agg) {
      const bool complete =
          agg.progress().shards_done == agg.progress().shards_total;
      const bool stop = stream.stop_after_shards > 0 && !stop_requested &&
                        agg.committed_this_run() >= stream.stop_after_shards;
      ++shards_since_save;
      if (checkpointing &&
          (shards_since_save >= stream.checkpoint_every_shards || stop ||
           complete)) {
        save_checkpoint(stream.checkpoint_path, fingerprint, agg.progress(),
                        agg.shard_done(), [&agg](std::ostream& out) {
                          CampaignStateCodec<Acc>::save(out, agg.merged());
                        });
        shards_since_save = 0;
      }
      if (stop) {
        stop_requested = true;
        throw CampaignInterrupted(
            "campaign stopped after " +
            std::to_string(agg.committed_this_run()) + " shards" +
            (checkpointing ? " (checkpoint saved)" : ""));
      }
    });

    const auto run_one_shard = [&](std::size_t shard_index) {
      // Distributed mode: run the shard only if this process wins the
      // lease; another worker's shard is simply skipped here and lands
      // in the merged result via its partial checkpoint.
      if (stream.arbiter != nullptr && !stream.arbiter->claim(shard_index))
        return;
      const CampaignShard& shard = shards[shard_index];
      obs::TraceSpan shard_span("shard", "campaign", "shard", shard_index);
      const double shard_start = perf::now();
      Acc acc = make_partial();
      for (std::size_t trial = shard.begin; trial < shard.end; ++trial) {
        Rng rng = Rng::stream(seed, trial);
        accumulate(acc, shard, trial, rng);
      }
      obs::record_shard_timing(tag, shard_index, perf::now() - shard_start,
                               shard.size(), threads_);
      aggregator.commit_shard(shard_index, shard.size(), std::move(acc));
      if (stream.arbiter != nullptr) stream.arbiter->committed(shard_index);
    };
    dispatch_shards(pending, run_one_shard);

    // Distributed mode: keep draining reclaimed work (shards whose
    // worker died mid-lease) until the arbiter reports the campaign
    // globally complete.
    if (stream.arbiter != nullptr) {
      while (true) {
        std::vector<std::size_t> wave =
            stream.arbiter->next_wave(aggregator.shard_done());
        if (wave.empty()) break;
        std::erase_if(wave, [&](std::size_t shard_index) {
          return aggregator.is_done(shard_index);
        });
        if (!wave.empty())
          dispatch_shards(wave, run_one_shard);
      }
    }
    aggregator.finish();
    return aggregator.take();
  }

  /// Dispatches `body` for each listed shard index to the pool.
  void dispatch_shards(const std::vector<std::size_t>& indices,
                       const std::function<void(std::size_t)>& body) const;

  /// Serializes an aggregator snapshot to `path` (atomic replace).
  static void save_checkpoint(
      const std::string& path, std::uint64_t fingerprint,
      const StreamProgress& progress,
      const std::vector<std::uint8_t>& shard_done,
      const std::function<void(std::ostream&)>& write_payload);

  int threads_;
};

}  // namespace ftnav
