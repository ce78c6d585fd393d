#include "rl/mlp_q.h"

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace ftnav {

namespace {

// Layer-stack positions of the two parametered layers: FC1, ReLU, FC2.
constexpr std::size_t kFc1 = 0;
constexpr std::size_t kFc2 = 2;

}  // namespace

MlpQAgent::MlpQAgent(const GridWorld& env, MlpQConfig config, Rng& rng)
    : env_(&env), config_(config) {
  if (config.hidden_units <= 0)
    throw std::invalid_argument("MlpQConfig: hidden_units must be positive");
  if (config.learning_rate <= 0.0)
    throw std::invalid_argument("MlpQConfig: bad learning rate");
  net_.add(std::make_unique<Dense>(env.state_count(), config.hidden_units,
                                   rng))
      .set_label("FC1");
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<Dense>(config.hidden_units,
                                   GridWorld::action_count(), rng))
      .set_label("FC2");
  master_ = net_.snapshot_parameters();
  weights_ = QVector(config.format, master_.size());
  mark_all_dirty();
  commit();
}

Tensor MlpQAgent::encode_state(int state) const {
  if (state < 0 || state >= env_->state_count())
    throw std::invalid_argument("MlpQAgent::encode_state: bad state");
  Tensor one_hot(static_cast<std::size_t>(env_->state_count()));
  one_hot[static_cast<std::size_t>(state)] = 1.0f;
  return one_hot;
}

void MlpQAgent::mark_all_dirty() {
  dirty_.resize(weights_.size());
  for (std::size_t i = 0; i < dirty_.size(); ++i)
    dirty_[i] = static_cast<std::uint32_t>(i);
}

void MlpQAgent::set_parameter(std::size_t index, float value) {
  Dense& fc1 = dense(kFc1);
  const std::size_t fc1_size = std::as_const(fc1).parameters().size();
  if (index < fc1_size)
    fc1.set_parameter(index, value);
  else
    dense(kFc2).set_parameter(index - fc1_size, value);
}

void MlpQAgent::update_master(std::size_t state, std::size_t action) {
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto visit = [&](std::span<float> grads, std::size_t offset,
                         std::size_t i) {
    if (grads[i] == 0.0f) return;
    master_[offset + i] -= lr * grads[i];
    grads[i] = 0.0f;
    dirty_.push_back(static_cast<std::uint32_t>(offset + i));
  };
  const auto inputs = static_cast<std::size_t>(env_->state_count());
  const auto hidden = static_cast<std::size_t>(config_.hidden_units);
  const auto actions = static_cast<std::size_t>(GridWorld::action_count());
  // FC1: the hot column, then the biases (ascending word order).
  const std::span<float> fc1 = dense(kFc1).gradients();
  for (std::size_t o = 0; o < hidden; ++o) visit(fc1, 0, o * inputs + state);
  for (std::size_t o = 0; o < hidden; ++o) visit(fc1, 0, hidden * inputs + o);
  // FC2: dense_weight_grad skips zero output gradients, so only the
  // acted-on row and its bias can be nonzero.
  const std::span<float> fc2 = dense(kFc2).gradients();
  for (std::size_t h = 0; h < hidden; ++h)
    visit(fc2, fc1.size(), action * hidden + h);
  visit(fc2, fc1.size(), hidden * actions + action);
}

void MlpQAgent::commit() {
  for (const std::uint32_t i : dirty_) weights_.set_fast(i, master_[i]);
  stuck_.apply(weights_);
  for (const std::uint32_t i : dirty_)
    set_parameter(i, static_cast<float>(weights_.get_fast(i)));
  dirty_.clear();
}

int MlpQAgent::td_step(int state, double epsilon, Rng& rng,
                       GridWorld::StepResult& result, double& out_reward) {
  // Order matters for layer caches: compute the bootstrap target from
  // the next state FIRST, then run the forward pass for `state` so the
  // caches backward consumes belong to the graded input.
  const Tensor q_probe = q_values(state);
  const int action =
      rng.bernoulli(epsilon)
          ? static_cast<int>(rng.below(GridWorld::action_count()))
          : static_cast<int>(q_probe.argmax());
  result = env_->step(state, action);
  out_reward = result.reward;

  double target = result.reward * config_.reward_scale;
  if (!result.done) {
    const Tensor next_q = q_values(result.next_state);
    target += config_.gamma * static_cast<double>(next_q.max_value());
  }
  const Tensor q = q_values(state);
  Tensor grad(static_cast<std::size_t>(GridWorld::action_count()));
  grad[static_cast<std::size_t>(action)] = static_cast<float>(
      static_cast<double>(q[static_cast<std::size_t>(action)]) - target);
  net_.backward(grad);
  // Straight-through update: gradients w.r.t. quantized weights are
  // applied to the float master, then re-quantized into the buffer.
  update_master(static_cast<std::size_t>(state),
                static_cast<std::size_t>(action));
  commit();
  return action;
}

Tensor MlpQAgent::q_values(int state) {
  // A negative state wraps to an index FC1 rejects as out of range.
  return net_.forward_one_hot(static_cast<std::size_t>(state));
}

int MlpQAgent::greedy_action(int state) {
  return static_cast<int>(q_values(state).argmax());
}

double MlpQAgent::run_training_episode(double epsilon, Rng& rng) {
  int state = env_->source_state();
  if (config_.exploring_starts) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int candidate =
          static_cast<int>(rng.below(env_->state_count()));
      const Cell cell = env_->cell(candidate);
      if (cell == Cell::kFree || cell == Cell::kSource) {
        state = candidate;
        break;
      }
    }
  }
  double cumulative = 0.0;
  for (int step = 0; step < config_.max_steps; ++step) {
    GridWorld::StepResult result;
    double reward = 0.0;
    (void)td_step(state, epsilon, rng, result, reward);
    cumulative += reward;
    if (result.done) break;
    state = result.next_state;
  }
  return cumulative;
}

bool MlpQAgent::evaluate_success() {
  int state = env_->source_state();
  for (int step = 0; step < config_.max_steps; ++step) {
    const GridWorld::StepResult result =
        env_->step(state, greedy_action(state));
    if (result.done) return result.reward > 0.0;
    state = result.next_state;
  }
  return false;
}

double MlpQAgent::evaluate_return() {
  int state = env_->source_state();
  double cumulative = 0.0;
  for (int step = 0; step < config_.max_steps; ++step) {
    const GridWorld::StepResult result =
        env_->step(state, greedy_action(state));
    cumulative += result.reward;
    if (result.done) break;
    state = result.next_state;
  }
  return cumulative;
}

void MlpQAgent::set_stuck(const StuckAtMask& mask) {
  stuck_ = mask;
  mark_all_dirty();
  commit();
}

void MlpQAgent::inject_transient(const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument(
        "MlpQAgent::inject_transient: map is not transient");
  map.apply_once(weights_.words());
  stuck_.apply(weights_);
  // The upset corrupted the stored weights: propagate the faulty values
  // into the float master so training continues from the damage (and
  // can heal it), exactly like retraining on faulty silicon. The upset
  // words stay dirty: the next commit must re-derive them, because a
  // "-0" word decodes to 0.0 but re-encodes to 0.
  for (const FaultSite& site : map.sites()) {
    if (site.word_index >= weights_.size()) continue;
    const auto value = static_cast<float>(weights_.get(site.word_index));
    master_[site.word_index] = value;
    set_parameter(site.word_index, value);
    dirty_.push_back(site.word_index);
  }
}

}  // namespace ftnav
