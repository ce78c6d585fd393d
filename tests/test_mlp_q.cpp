// Tests for the quantization-aware MLP Q-agent.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/mlp_q.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

GridWorld simple_world() {
  return GridWorld({
      "S...",
      ".X..",
      "....",
      "...G",
  });
}

MlpQAgent train_agent(const GridWorld& world, int episodes,
                      std::uint64_t seed) {
  Rng rng(seed);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  for (int episode = 0; episode < episodes; ++episode) {
    const double epsilon =
        std::max(0.05, 1.0 - static_cast<double>(episode) / (episodes * 0.6));
    agent.run_training_episode(epsilon, rng);
  }
  return agent;
}

double training_epsilon(int episode, int episodes) {
  return std::max(0.05,
                  1.0 - static_cast<double>(episode) / (episodes * 0.6));
}

/// FNV-1a over the raw bytes of a span (words or float bit patterns).
template <typename T>
std::uint64_t digest_of(std::span<const T> values) {
  return io::fnv1a(std::span<const char>(
      reinterpret_cast<const char*>(values.data()), values.size_bytes()));
}

struct AgentDigest {
  std::uint64_t words;
  std::uint64_t parameters;
};

AgentDigest digest_agent(const MlpQAgent& agent) {
  const std::vector<float> params = agent.network().snapshot_parameters();
  return {digest_of(agent.weights().words()),
          digest_of(std::span<const float>(params))};
}

/// First FC1 weight in an obstacle state's column whose word is 0.
/// Obstacle states end an episode on entry, so the agent never
/// forwards them as an input: their column's gradient is always zero.
std::size_t zero_word_in_obstacle_column(const MlpQAgent& agent) {
  const GridWorld& world = agent.env();
  const auto words = agent.weights().words();
  const auto states = static_cast<std::size_t>(world.state_count());
  for (int state = 0; state < world.state_count(); ++state) {
    if (world.cell(state) != Cell::kHell) continue;
    for (int unit = 0; unit < agent.config().hidden_units; ++unit) {
      const std::size_t index =
          static_cast<std::size_t>(unit) * states +
          static_cast<std::size_t>(state);
      if (words[index] == 0) return index;
    }
  }
  return words.size();
}

TEST(MlpQ, RejectsBadConfig) {
  const GridWorld world = simple_world();
  Rng rng(1);
  MlpQConfig config;
  config.hidden_units = 0;
  EXPECT_THROW(MlpQAgent(world, config, rng), std::invalid_argument);
  config = MlpQConfig{};
  config.learning_rate = -1.0;
  EXPECT_THROW(MlpQAgent(world, config, rng), std::invalid_argument);
}

TEST(MlpQ, OneHotEncoding) {
  const GridWorld world = simple_world();
  Rng rng(2);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const Tensor state = agent.encode_state(5);
  EXPECT_EQ(state.size(), 16u);
  for (std::size_t i = 0; i < state.size(); ++i)
    EXPECT_EQ(state[i], i == 5 ? 1.0f : 0.0f);
  EXPECT_THROW(agent.encode_state(-1), std::invalid_argument);
  EXPECT_THROW(agent.encode_state(16), std::invalid_argument);
}

TEST(MlpQ, NetworkParametersAreFormatRepresentable) {
  // The forward pass must read accelerator truth: every parameter the
  // network computes with is exactly representable in the buffer format.
  const GridWorld world = simple_world();
  Rng rng(3);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const QFormat fmt = agent.weights().format();
  for (float p : agent.network().snapshot_parameters())
    EXPECT_FLOAT_EQ(p, static_cast<float>(fmt.decode(fmt.encode(p))));
}

TEST(MlpQ, LearnsSimpleWorld) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 250, 5);
  EXPECT_TRUE(agent.evaluate_success());
  EXPECT_GT(agent.evaluate_return(), 0.0);
}

TEST(MlpQ, WeightsStayInFormatRange) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 150, 7);
  const QFormat fmt = agent.weights().format();
  for (std::size_t i = 0; i < agent.weights().size(); ++i) {
    EXPECT_GE(agent.weights().get(i), fmt.min_value());
    EXPECT_LE(agent.weights().get(i), fmt.max_value());
  }
}

TEST(MlpQ, TransientInjectionCorruptsAndTrainingHeals) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 400, 9);
  ASSERT_TRUE(agent.evaluate_success());
  Rng rng(11);
  const FaultMap map = FaultMap::sample(
      FaultType::kTransientFlip, 0.02, agent.weights().size(),
      agent.weights().format().total_bits(), rng);
  agent.inject_transient(map);
  // Re-train; the NN approach recovers (paper Fig. 3b). Quantized TD
  // training is jittery, so accept recovery at any checkpoint.
  bool healed = false;
  for (int episode = 0; episode < 500 && !healed; ++episode) {
    agent.run_training_episode(0.2, rng);
    if (episode >= 100 && episode % 25 == 0) healed = agent.evaluate_success();
  }
  EXPECT_TRUE(healed);
}

TEST(MlpQ, StuckBitsSurviveTrainingUpdates) {
  const GridWorld world = simple_world();
  Rng rng(13);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const int sign_bit = agent.weights().format().sign_bit();
  const StuckAtMask mask = StuckAtMask::compile(FaultMap(
      FaultType::kStuckAt1,
      {FaultSite{3, static_cast<std::uint8_t>(sign_bit)}}));
  agent.set_stuck(mask);
  for (int episode = 0; episode < 30; ++episode)
    agent.run_training_episode(0.5, rng);
  EXPECT_TRUE(get_bit(agent.weights().word(3), sign_bit));
  EXPECT_LT(agent.weights().get(3), 0.0);
}

TEST(MlpQ, NetworkViewMatchesBuffer) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 60, 15);
  const auto params = agent.network().snapshot_parameters();
  ASSERT_EQ(params.size(), agent.weights().size());
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_FLOAT_EQ(params[i],
                    static_cast<float>(agent.weights().get(i)));
}

TEST(MlpQ, GreedyActionIsArgmax) {
  const GridWorld world = simple_world();
  Rng rng(17);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const Tensor q = agent.q_values(0);
  EXPECT_EQ(static_cast<std::size_t>(agent.greedy_action(0)), q.argmax());
}

TEST(MlpQ, HighBerStuckAt1BreaksPolicy) {
  // Paper Fig. 2c: stuck-at-1 at modest BER destroys NN training.
  const GridWorld world = simple_world();
  Rng rng(19);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  Rng fault_rng(21);
  const FaultMap map = FaultMap::sample(
      FaultType::kStuckAt1, 0.05, agent.weights().size(),
      agent.weights().format().total_bits(), fault_rng);
  agent.set_stuck(StuckAtMask::compile(map));
  int successes = 0;
  for (int episode = 0; episode < 150; ++episode) {
    agent.run_training_episode(0.3, rng);
    if (episode >= 140 && agent.evaluate_success()) ++successes;
  }
  EXPECT_LT(successes, 10);
}

TEST(MlpQ, OneHotForwardMatchesDenseForwardOnTrainedWeights) {
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  Rng rng(37);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  Rng fault_rng(41);
  agent.set_stuck(StuckAtMask::compile(FaultMap::sample(
      FaultType::kStuckAt1, 0.01, agent.weight_count(),
      agent.weights().format().total_bits(), fault_rng)));
  for (int episode = 0; episode < 100; ++episode)
    agent.run_training_episode(training_epsilon(episode, 100), rng);
  Network net = agent.network();
  for (int state = 0; state < world.state_count(); ++state) {
    const Tensor expected = net.forward(agent.encode_state(state));
    const Tensor gathered =
        net.forward_one_hot(static_cast<std::size_t>(state));
    const Tensor q = agent.q_values(state);
    ASSERT_EQ(gathered.size(), expected.size());
    ASSERT_EQ(q.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto bits = std::bit_cast<std::uint32_t>(expected[i]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(gathered[i]), bits) << state;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(q[i]), bits) << state;
    }
  }
  EXPECT_THROW(agent.q_values(-1), std::invalid_argument);
  EXPECT_THROW(agent.q_values(world.state_count()), std::invalid_argument);
}

enum class Fault { kTransient, kStuck, kStuckThenTransient };

TEST(MlpQ, TrainingUnderFaultsMatchesRecordedDigests) {
  // Recorded from the dense TD step (every word re-encoded, stuck-masked,
  // decoded and restored each step). The sparse step must reproduce the
  // same weight words and network parameters bit for bit.
  struct Case {
    Fault fault;
    AgentDigest expected;
  };
  const Case cases[] = {
      {Fault::kTransient, {0x02908cb99ef2bcd0ULL, 0x80ca663cf1b49c7dULL}},
      {Fault::kStuck, {0xdd1e247d35d30016ULL, 0x53931594d0cea429ULL}},
      {Fault::kStuckThenTransient,
       {0x6050feeadd42dd14ULL, 0xb4cb42309e659ccaULL}},
  };
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  const int episodes = 300;
  for (const Case& c : cases) {
    Rng rng(23);
    Rng fault_rng(29);
    MlpQAgent agent(world, MlpQConfig{}, rng);
    const std::size_t words = agent.weight_count();
    const int bits = agent.weights().format().total_bits();
    if (c.fault != Fault::kTransient)
      agent.set_stuck(StuckAtMask::compile(FaultMap::sample(
          FaultType::kStuckAt1, 0.01, words, bits, fault_rng)));
    for (int episode = 0; episode < episodes; ++episode) {
      if (c.fault != Fault::kStuck && episode == episodes / 2)
        agent.inject_transient(FaultMap::sample(
            FaultType::kTransientFlip, 0.01, words, bits, fault_rng));
      agent.run_training_episode(training_epsilon(episode, episodes), rng);
    }
    const AgentDigest got = digest_agent(agent);
    EXPECT_EQ(got.words, c.expected.words) << static_cast<int>(c.fault);
    EXPECT_EQ(got.parameters, c.expected.parameters)
        << static_cast<int>(c.fault);
  }
}

TEST(MlpQ, EveryGradientIsZeroAfterEachTdStep) {
  // update_master() visits only the entries a one-hot TD step can
  // grade and zeroes the ones it applies; a graded entry it skipped
  // would still be nonzero after the step.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  MlpQConfig config;
  config.max_steps = 1;  // one training episode is one TD step
  for (const Fault fault : {Fault::kTransient, Fault::kStuck}) {
    SCOPED_TRACE(fault == Fault::kStuck ? "stuck" : "transient");
    Rng rng(53);
    Rng fault_rng(59);
    MlpQAgent agent(world, config, rng);
    const std::vector<Word> initial(agent.weights().words().begin(),
                                    agent.weights().words().end());
    const std::size_t words = agent.weight_count();
    const int bits = agent.weights().format().total_bits();
    if (fault == Fault::kStuck)
      agent.set_stuck(StuckAtMask::compile(FaultMap::sample(
          FaultType::kStuckAt1, 0.01, words, bits, fault_rng)));
    for (int step = 0; step < 2000; ++step) {
      if (fault == Fault::kTransient && step % 500 == 250)
        agent.inject_transient(FaultMap::sample(
            FaultType::kTransientFlip, 0.01, words, bits, fault_rng));
      agent.run_training_episode(0.3, rng);
      const std::vector<float> grads = agent.network().snapshot_gradients();
      ASSERT_TRUE(std::all_of(grads.begin(), grads.end(),
                              [](float g) { return g == 0.0f; }))
          << "step " << step;
    }
    // The steps did grade and apply gradients.
    EXPECT_FALSE(std::equal(initial.begin(), initial.end(),
                            agent.weights().words().begin()));
  }
}

TEST(MlpQ, TransientNegativeZeroIsCanonicalizedByTheNextStep) {
  // Sign-magnitude 0x80 ("-0") decodes to 0.0 but 0.0 encodes to 0x00.
  // An upset that turns a zero word into -0 must therefore be rewritten
  // by the next training step even though its weight has no gradient.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  Rng rng(31);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  for (int episode = 0; episode < 20; ++episode)
    agent.run_training_episode(0.5, rng);
  const std::size_t index = zero_word_in_obstacle_column(agent);
  ASSERT_LT(index, agent.weight_count());
  const int sign_bit = agent.weights().format().sign_bit();
  agent.inject_transient(FaultMap(
      FaultType::kTransientFlip,
      {FaultSite{static_cast<std::uint32_t>(index),
                 static_cast<std::uint8_t>(sign_bit)}}));
  EXPECT_EQ(agent.weights().word(index), Word{1} << sign_bit);
  EXPECT_EQ(agent.network().snapshot_parameters()[index], 0.0f);
  agent.run_training_episode(0.5, rng);
  EXPECT_EQ(agent.weights().word(index), Word{0});
  EXPECT_EQ(std::bit_cast<std::uint32_t>(
                agent.network().snapshot_parameters()[index]),
            0u);
}

}  // namespace
}  // namespace ftnav
