#pragma once
// Shard-resident engines for batched fault trials.
//
// Building a QuantizedInferenceEngine (float re-encode of every
// parameter, program compilation) costs far more than one fault trial,
// so campaign trial loops keep one engine per shard, arm each trial's
// faults via inject_* and undo them with reset_faults()'s golden-image
// word restore. EngineCache holds those engines for a shard, keyed by
// row configuration, for sweeps whose rows need differently-configured
// engines (network, QFormat, detector/mitigation setup).
//
// Residency is bit-transparent by construction: reset_faults()
// restores the golden weight words and clears every dynamic fault
// knob, so trial N+1 on a resident engine starts from exactly the
// state a fresh engine would have (see PersistentEngineMatchesFreshEngine
// in tests/test_quantized_engine.cpp). The one observable difference —
// a resident detector's detections() counter accumulates across
// trials — is the caller's to handle by reading per-trial deltas.
//
// Caches live in per-shard scratch (the runner's scratch channel),
// never in checkpointed state: they are runtime-only, and merged
// campaign artifacts must stay byte-identical with and without them.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "nn/quantized_engine.h"

namespace ftnav {

/// Resident engines keyed by row configuration. Keys are the caller's
/// notion of "rows that need distinct engines" (sweep row for a
/// QFormat sweep, environment index, mitigated flag, ...) and are
/// expected to be small and dense.
class EngineCache {
 public:
  /// The engine at `key`, built via `build` (which returns a
  /// unique_ptr) on first use.
  template <typename BuildFn>
  QuantizedInferenceEngine& acquire(std::size_t key, BuildFn&& build) {
    if (key >= engines_.size()) engines_.resize(key + 1);
    if (!engines_[key]) engines_[key] = std::forward<BuildFn>(build)();
    return *engines_[key];
  }

 private:
  std::vector<std::unique_ptr<QuantizedInferenceEngine>> engines_;
};

}  // namespace ftnav
