#pragma once
// Neural-network Q-function for Grid World (paper §3.1, "NN-based
// function approximation"), quantization-aware.
//
// The policy is a small MLP (one-hot state -> hidden -> 4 Q-values).
// Inference always reads the quantized weight buffer -- the accelerator
// store that faults are injected into -- while gradient updates
// accumulate in a float master copy (straight-through quantization-
// aware training, standard practice for 8-bit training). Consequences
// that match the paper's fault semantics:
//   * transient flips corrupt the stored weights (buffer and master),
//     and training can subsequently "heal" them through new updates;
//   * stuck-at bits are re-enforced on the buffer after every write, so
//     the learner can only route around them, never overwrite them.
//
// Invariant, after every public call: word[i] == stuck(encode(master[i]))
// for every word i, and the network's parameters equal decode(word).
// The one exception is inject_transient(): it leaves the upset words in
// the buffer (and their decoded values in the network) until the next
// training step re-derives them from the master. That matters for
// sign-magnitude "-0" (0x80), which decodes to 0.0 but re-encodes to
// 0x00.
//
// A TD step costs only what it touches. The one-hot input makes FC1 a
// column gather (Network::forward_one_hot), and the TD error is nonzero
// for the taken action only, so backward grades FC1's hot column and
// biases and FC2's acted-on row and bias: 3 * hidden + 1 of the 5,044
// words. update_master() visits exactly those gradient entries, applies
// master -= lr * g to the nonzero ones, zeroes them and records them in
// a dirty set, so every gradient is zero again between steps. commit()
// re-derives only the dirty words and writes them through
// Dense::set_parameter, which keeps FC2's transposed weight copy in
// step instead of discarding it. This is exact: a word whose gradient
// is zero keeps its master (x - lr * 0 == x, up to the sign of a zero,
// which encode erases), and the stuck mask is idempotent on words that
// already satisfy it.

#include "core/fault_model.h"
#include "core/injector.h"
#include "envs/gridworld.h"
#include "fixed/qvector.h"
#include "nn/network.h"
#include "util/rng.h"

namespace ftnav {

struct MlpQConfig {
  int hidden_units = 48;
  double learning_rate = 0.05;
  double gamma = 0.9;
  int max_steps = 100;
  /// Scales env rewards (+-1) into Q-targets so trained weights and
  /// Q-values fill the 8-bit weight format's range -- the paper's
  /// Fig. 2d histogram shows NN values spanning about [-3.75, 4.06],
  /// matching Q(1,2,5).
  double reward_scale = 3.6;
  /// Exploring starts (see TabularQConfig::exploring_starts).
  bool exploring_starts = true;
  /// Q(1,3,4) sign-magnitude: near-zero weights encode with mostly '0'
  /// bits, reproducing Fig. 2d's bit statistics (see fixed/qformat.h).
  QFormat format = QFormat::grid_world_weights();
};

class MlpQAgent {
 public:
  MlpQAgent(const GridWorld& env, MlpQConfig config, Rng& rng);
  /// The agent keeps a pointer to the env; forbid binding a temporary.
  MlpQAgent(GridWorld&&, MlpQConfig, Rng&) = delete;

  const GridWorld& env() const noexcept { return *env_; }
  const MlpQConfig& config() const noexcept { return config_; }

  /// One-hot encoding of a grid state.
  Tensor encode_state(int state) const;

  /// Q-values for a state, computed from the (possibly faulty)
  /// quantized weight buffer; bit-identical to
  /// network().forward(encode_state(state)). Throws
  /// std::invalid_argument for a state outside the grid.
  Tensor q_values(int state);
  int greedy_action(int state);

  /// One epsilon-greedy TD(0) training episode; returns cumulative
  /// (unscaled) env reward.
  double run_training_episode(double epsilon, Rng& rng);

  bool evaluate_success();
  double evaluate_return();

  // ---- fault hooks ---------------------------------------------------
  /// The quantized buffer, read-only: every write goes through
  /// set_stuck(), inject_transient() or training, which keep the
  /// invariant above.
  const QVector& weights() const noexcept { return weights_; }
  /// Replaces the stuck-at overlay and re-derives every word.
  void set_stuck(const StuckAtMask& mask);
  /// Flips the map's bits in the buffer (stuck bits still win) and
  /// copies the upset values into the master, so training continues
  /// from the damage.
  void inject_transient(const FaultMap& map);

  /// The float network view of the current (quantized, faulty) buffer;
  /// used to hand the trained policy to the inference engine.
  const Network& network() const noexcept { return net_; }

  std::size_t weight_count() const noexcept { return weights_.size(); }

 private:
  /// Marks every word dirty, so the next commit() re-derives them all.
  void mark_all_dirty();

  /// Applies master -= lr * g for every nonzero gradient g the last
  /// backward could have written after a forward of `state` with the TD
  /// error on `action` alone (see the header comment), zeroes those
  /// gradients, and marks their words dirty.
  void update_master(std::size_t state, std::size_t action);

  /// For each dirty word: encodes master -> buffer, enforces stuck bits
  /// (over the whole buffer, a no-op on clean words), and decodes the
  /// word into the network (the network always sees accelerator
  /// truth). Clears the dirty set.
  void commit();

  /// The Dense layer at stack position `layer` (FC1 or FC2).
  Dense& dense(std::size_t layer) {
    return static_cast<Dense&>(net_.layer(layer));
  }
  /// Writes the network parameter that holds word `index` of the buffer.
  void set_parameter(std::size_t index, float value);

  /// One TD(0) step from `state`: act, learn, commit. Returns the
  /// action; fills the env result and reward.
  int td_step(int state, double epsilon, Rng& rng,
              GridWorld::StepResult& result, double& out_reward);

  const GridWorld* env_;
  MlpQConfig config_;
  Network net_;
  std::vector<float> master_;  // float master weights (SGD accumulator)
  QVector weights_;            // quantized accelerator buffer
  StuckAtMask stuck_;
  std::vector<std::uint32_t> dirty_;  // words commit() must re-derive
};

}  // namespace ftnav
