#pragma once
// Shard-resident engine residency for batched fault trials.
//
// Campaign trial loops historically built a fresh
// QuantizedInferenceEngine per trial. PR 6 showed (on grid_inference)
// that a shard-resident engine — faults armed via inject_* and undone
// by reset_faults()'s golden-image word restore — yields the same bits
// for a fraction of the cost, because construction (float re-encode of
// every parameter, program compilation) is paid once per shard instead
// of once per trial. This header factors that pattern out for every
// campaign family:
//
//   * EngineSlot  -- one resident engine;
//   * EngineCache -- slots keyed by row configuration, for sweeps
//     whose rows need differently-configured engines (network,
//     QFormat, detector/mitigation setup);
//   * resolve_trial_batch -- the FTNAV_TRIAL_BATCH policy shared by
//     all drivers: 0 = resident (default), 1 = rebuild per trial.
//
// Residency is bit-transparent by construction: reset_faults()
// restores the golden weight words and clears every dynamic fault
// knob, so trial N+1 on a resident engine starts from exactly the
// state a fresh engine would have (see ResidentEngineBitIdentity in
// tests/test_quantized_engine.cpp and the campaign-level batch
// invariance tests). The one observable difference — a resident
// detector's detections() counter accumulates across trials — is the
// caller's to handle by reading per-trial deltas.
//
// Slots live in per-shard scratch (campaign accumulators or the
// runner's scratch channel), never in checkpointed state: they are
// runtime-only caches, and merged campaign artifacts must stay
// byte-identical with and without them.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "nn/quantized_engine.h"

namespace ftnav {

/// Resolves a campaign's engine-reuse policy: a non-negative config
/// value wins, otherwise the FTNAV_TRIAL_BATCH environment knob
/// (default 0 = resident). Values other than 0 and 1 throw
/// std::invalid_argument naming the valid values.
int resolve_trial_batch(int config_value);

/// One shard-resident engine.
struct EngineSlot {
  std::unique_ptr<QuantizedInferenceEngine> engine;

  /// Returns the resident engine, (re)building it via `build` (which
  /// returns a unique_ptr) when the slot is empty or `trial_batch` is 1
  /// (fresh engine per acquisition).
  template <typename BuildFn>
  QuantizedInferenceEngine& acquire(int trial_batch, BuildFn&& build) {
    if (!engine || trial_batch == 1) engine = std::forward<BuildFn>(build)();
    return *engine;
  }
};

/// Engine slots keyed by row configuration. Keys are the caller's
/// notion of "rows that need distinct engines" (sweep row for a
/// QFormat sweep, environment index, mitigated flag, ...) and are
/// expected to be small and dense.
class EngineCache {
 public:
  /// acquire() for the slot at `key`; see EngineSlot::acquire.
  template <typename BuildFn>
  QuantizedInferenceEngine& acquire(std::size_t key, int trial_batch,
                                    BuildFn&& build) {
    if (key >= slots_.size()) slots_.resize(key + 1);
    return slots_[key].acquire(trial_batch, std::forward<BuildFn>(build));
  }

 private:
  std::vector<EngineSlot> slots_;
};

}  // namespace ftnav
