#include "probes.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/exploration.h"
#include "core/fault_model.h"
#include "core/injector.h"
#include "envs/drone_env.h"
#include "envs/drone_world.h"
#include "envs/gridworld.h"
#include "experiments/drone_policy.h"
#include "fixed/qformat.h"
#include "fixed/qvector.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/quantized_engine.h"
#include "obs/trace.h"
#include "rl/dqn.h"
#include "rl/mlp_q.h"
#include "util/rng.h"

namespace ftbench {
namespace {

using ftnav::obs::TraceSpan;

constexpr const char* kCat = "probe";

/// Grid World training episodes each rl.mlp_* probe runs (the
/// grid-nn-train workload's episode count).
constexpr int kMlpEpisodes = 700;

/// fixed.requantize_useful_frac's replay: TD steps a one-step agent
/// trains before counting (about the steps a grid-nn-train training
/// takes to reach its mid-point, episode 350 of 700), then TD steps
/// counted.
constexpr int kReplayWarmupSteps = 15000;
constexpr int kReplayCountedSteps = 2000;

/// Keeps the optimizer from discarding a probed call's result.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// `batches` spans of `calls` back-to-back invocations each, for calls
/// too short to time one at a time.
template <typename Fn>
void batched(const char* name, int batches, int calls, Fn&& fn) {
  for (int batch = 0; batch < batches; ++batch) {
    TraceSpan span(name, kCat, "calls", static_cast<std::uint64_t>(calls));
    for (int call = 0; call < calls; ++call) fn();
  }
}

/// A Grid World MLP agent trained `episodes` episodes on the scenario's
/// baseline exploration schedule, one rl span per episode.
void train_mlp(ftnav::MlpQAgent& agent, int episodes, ftnav::Rng& rng,
               const char* span_name) {
  ftnav::AdaptiveExplorationController controller({}, false);
  for (int episode = 0; episode < episodes; ++episode) {
    {
      TraceSpan span(span_name, kCat, "calls", 1);
      keep(agent.run_training_episode(controller.rate(), rng));
    }
    controller.end_episode(agent.evaluate_return());
  }
}

/// fixed.requantize_useful_frac's counts: words whose code changed over
/// single TD steps, against the words one full commit re-encodes per
/// step. The agent's episodes are one TD step long, so the words can be
/// compared across each step; it trains at the workload's steady
/// exploration rate to the workload's mid-training point first, so the
/// counted steps see mid-training gradients.
void count_useful_requantize(const ftnav::GridWorld& world,
                             std::uint64_t seed) {
  ftnav::Rng rng(seed ^ 0x5eed0001);
  ftnav::MlpQConfig config;
  config.max_steps = 1;
  ftnav::MlpQAgent agent(world, config, rng);
  const double epsilon = ftnav::ExplorationConfig{}.steady_rate;
  for (int step = 0; step < kReplayWarmupSteps; ++step)
    (void)agent.run_training_episode(epsilon, rng);
  std::uint64_t changed = 0;
  std::uint64_t encoded = 0;
  std::vector<ftnav::Word> before;
  for (int step = 0; step < kReplayCountedSteps; ++step) {
    const auto words = agent.weights().words();
    before.assign(words.begin(), words.end());
    (void)agent.run_training_episode(epsilon, rng);
    const auto after = agent.weights().words();
    for (std::size_t i = 0; i < after.size(); ++i)
      changed += after[i] != before[i] ? 1 : 0;
    encoded += after.size();
  }
  ftnav::obs::trace_instant("fixed.requantize_changed_words", kCat, "count",
                            changed);
  ftnav::obs::trace_instant("fixed.requantize_encoded_words", kCat, "count",
                            encoded);
}

struct EngineSpanNames {
  const char* build;
  const char* inject;
  const char* reset;
  const char* act;
};

/// Build, then trials of inject -> acts -> reset, as a campaign shard
/// drives a resident engine.
void probe_engine(const EngineSpanNames& names, const ftnav::Network& golden,
                  const ftnav::QFormat& format, const ftnav::Shape& shape,
                  const std::vector<ftnav::Tensor>& inputs, double ber,
                  int builds, int trials, ftnav::Rng& rng) {
  std::unique_ptr<ftnav::QuantizedInferenceEngine> engine;
  for (int build = 0; build < builds; ++build) {
    TraceSpan span(names.build, kCat, "calls", 1);
    engine = std::make_unique<ftnav::QuantizedInferenceEngine>(golden, format,
                                                               shape);
  }
  std::size_t next_input = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const ftnav::FaultMap map = ftnav::FaultMap::sample(
        ftnav::FaultType::kTransientFlip, ber, engine->weight_word_count(),
        format.total_bits(), rng);
    {
      TraceSpan span(names.inject, kCat, "calls", 1);
      engine->inject_weight_faults(map);
    }
    for (int act = 0; act < 8; ++act) {
      const ftnav::Tensor& input = inputs[next_input++ % inputs.size()];
      TraceSpan span(names.act, kCat, "calls", 1);
      keep(engine->act(input, rng));
    }
    TraceSpan span(names.reset, kCat, "calls", 1);
    engine->reset_faults();
  }
}

/// kernels::active().conv2d over the network's conv layers, one span per
/// full set of convs (one forward's worth); the MAC count goes out as an
/// instant.
void probe_conv_kernels(const ftnav::Network& net, ftnav::Shape shape,
                        ftnav::Rng& rng) {
  struct ConvCase {
    ftnav::kernels::ConvShape shape;
    std::vector<float> w, wt, bias, x, y;
  };
  std::vector<ConvCase> cases;
  std::uint64_t macs = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const ftnav::Layer& layer = net.layer(i);
    const ftnav::Shape out = layer.output_shape(shape);
    if (layer.kind() == ftnav::LayerKind::kConv2D) {
      const auto& conv = dynamic_cast<const ftnav::Conv2D&>(layer);
      ConvCase c;
      c.shape = {shape.channels, shape.height, shape.width, out.channels,
                 out.height,     out.width,    conv.kernel(), conv.stride()};
      const std::size_t taps = static_cast<std::size_t>(conv.in_channels()) *
                               conv.kernel() * conv.kernel();
      const std::span<const float> params = conv.parameters();
      c.w.assign(params.begin(),
                 params.begin() + static_cast<std::ptrdiff_t>(
                                      taps * out.channels));
      c.bias.assign(params.begin() + static_cast<std::ptrdiff_t>(c.w.size()),
                    params.end());
      // Transposed layout wt[tap][oc], as the engine caches it.
      c.wt.resize(c.w.size());
      for (int oc = 0; oc < out.channels; ++oc)
        for (std::size_t tap = 0; tap < taps; ++tap)
          c.wt[tap * out.channels + oc] = c.w[oc * taps + tap];
      c.x.resize(shape.element_count());
      for (float& v : c.x) v = static_cast<float>(rng.uniform());
      c.y.resize(out.element_count());
      macs += static_cast<std::uint64_t>(out.element_count()) * taps;
      cases.push_back(std::move(c));
    }
    shape = out;
  }
  const ftnav::kernels::KernelOps& ops = ftnav::kernels::active();
  ftnav::obs::trace_instant("nn.kernel_conv_macs", kCat, "count", macs);
  batched("nn.kernel_conv", 200, 1, [&] {
    for (ConvCase& c : cases) {
      ops.conv2d(c.w.data(), c.wt.data(), c.bias.data(), c.x.data(),
                 c.y.data(), c.shape);
      keep(c.y.data());
    }
  });
}

}  // namespace

void run_probes(const Workload& workload, std::uint64_t seed) {
  using namespace ftnav;

  // ---- experiments + rl (drone) ------------------------------------------
  // The drone-environments policies: one per world, its default spec.
  const std::vector<DroneWorld> worlds = {DroneWorld::indoor_long(),
                                          DroneWorld::indoor_vanleer()};
  DronePolicySpec drone_spec;
  drone_spec.seed = seed;
  std::vector<DronePolicyBundle> bundles;
  for (const DroneWorld& world : worlds) {
    TraceSpan span("experiments.train_drone_policy_s", kCat, "calls", 1);
    bundles.push_back(train_drone_policy(world, drone_spec));
  }
  const DronePolicyBundle& drone = bundles.front();
  Rng rng(seed ^ 0xf7be11c4);
  {
    DqnConfig dqn;
    dqn.learning_rate = 2e-4;  // train_drone_policy's refinement setting
    DoubleDqnTrainer trainer(drone.network, dqn);
    DroneEnv env(worlds.front(), drone.env_config);
    for (int episode = 0; episode < 4; ++episode) {
      TraceSpan span("rl.dqn_episode_ms", kCat, "calls", 1);
      keep(trainer.run_episode(env, 0.1, rng));
    }
  }

  // ---- rl + fixed (grid MLP) ---------------------------------------------
  const GridWorld grid = GridWorld::preset(ObstacleDensity::kMiddle);
  Rng agent_rng(seed);
  MlpQAgent agent(grid, MlpQConfig{}, agent_rng);
  train_mlp(agent, kMlpEpisodes, agent_rng, "rl.mlp_episode_us");
  const QFormat grid_format = agent.weights().format();
  {
    Rng stuck_rng(seed ^ 0x57c0);
    MlpQAgent stuck_agent(grid, MlpQConfig{}, stuck_rng);
    stuck_agent.set_stuck(StuckAtMask::compile(FaultMap::sample(
        FaultType::kStuckAt0, workload.probe_ber, stuck_agent.weight_count(),
        grid_format.total_bits(), stuck_rng)));
    train_mlp(stuck_agent, kMlpEpisodes, stuck_rng,
              "rl.mlp_episode_stuck_us");
  }
  const Network mlp_golden = agent.network();
  {
    const std::vector<float> master = mlp_golden.snapshot_parameters();
    QVector buffer(grid_format, master.size());
    std::vector<float> decoded(master.size());
    batched("fixed.requantize_us", 400, 1, [&] {
      buffer.encode_from(std::span<const float>(master));
      buffer.decode_into(decoded);
      keep(decoded.data());
    });
  }
  count_useful_requantize(grid, seed);

  // ---- core: fault maps over the workload's weight buffer ----------------
  const QFormat drone_format = QFormat::drone_weights();
  const bool grid_buffer = workload.buffer == ProbeBuffer::kGridMlp;
  const std::size_t words =
      grid_buffer ? agent.weight_count() : drone.network.parameter_count();
  const int bits = (grid_buffer ? grid_format : drone_format).total_bits();
  batched("core.fault_sample_us", 400, 1, [&] {
    keep(FaultMap::sample(FaultType::kTransientFlip, workload.probe_ber,
                          words, bits, rng));
  });
  {
    const StuckAtMask mask = StuckAtMask::compile(FaultMap::sample(
        FaultType::kStuckAt1, workload.probe_ber, words, bits, rng));
    std::vector<Word> buffer(words, 0);
    batched("core.stuck_apply_us", 200, 16, [&] {
      mask.apply(std::span<Word>(buffer));
      keep(buffer.data());
    });
  }

  // ---- nn: float layers ---------------------------------------------------
  std::vector<Tensor> grid_inputs;
  for (int i = 0; i < 64; ++i)
    grid_inputs.push_back(agent.encode_state(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(
            grid.state_count())))));
  {
    Network net = mlp_golden;
    for (int i = 0; i < 500; ++i) {
      {
        TraceSpan span("nn.mlp_fwd_us", kCat, "calls", 1);
        keep(net.forward(grid_inputs[static_cast<std::size_t>(i) %
                                     grid_inputs.size()]));
      }
      Tensor grad(static_cast<std::size_t>(GridWorld::action_count()));
      grad[static_cast<std::size_t>(i % GridWorld::action_count())] = 0.1f;
      {
        TraceSpan span("nn.mlp_bwd_us", kCat, "calls", 1);
        keep(net.backward(grad));
      }
      net.zero_gradients();
    }
  }
  std::vector<Tensor> drone_inputs;
  {
    DroneEnv env(worlds.front(), drone.env_config);
    drone_inputs.push_back(env.reset(rng));
    for (int i = 0; i < 400; ++i) {
      const int action = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(DroneEnvConfig::action_count())));
      bool done = false;
      {
        TraceSpan span("envs.drone_step_us", kCat, "calls", 1);
        done = env.step(action).done;
      }
      if (done) {
        drone_inputs.push_back(env.reset(rng));
        continue;
      }
      TraceSpan span("envs.drone_observe_us", kCat, "calls", 1);
      drone_inputs.push_back(env.observe());
    }
  }
  {
    Network net = drone.network;
    for (int i = 0; i < 30; ++i) {
      {
        TraceSpan span("nn.c3f2_fwd_ms", kCat, "calls", 1);
        keep(net.forward(drone_inputs[static_cast<std::size_t>(i) %
                                      drone_inputs.size()]));
      }
      Tensor grad(static_cast<std::size_t>(drone.c3f2.actions));
      grad[static_cast<std::size_t>(i % drone.c3f2.actions)] = 0.1f;
      {
        TraceSpan span("nn.c3f2_bwd_ms", kCat, "calls", 1);
        keep(net.backward(grad));
      }
      net.zero_gradients();
    }
  }

  // ---- nn: quantized engines + kernels ------------------------------------
  probe_engine({"nn.engine_build_ms.mlp", "nn.engine_inject_us.mlp",
                "nn.engine_reset_us.mlp", "nn.engine_act_us.mlp"},
               mlp_golden, grid_format, Shape{grid.state_count(), 1, 1},
               grid_inputs, workload.probe_ber, 20, 200, rng);
  probe_engine({"nn.engine_build_ms.c3f2", "nn.engine_inject_us.c3f2",
                "nn.engine_reset_us.c3f2", "nn.engine_act_us.c3f2"},
               drone.network, drone_format, drone.c3f2.input_shape(),
               drone_inputs, workload.probe_ber, 10, 40, rng);
  probe_conv_kernels(drone.network, drone.c3f2.input_shape(), rng);

  // ---- envs: grid step ----------------------------------------------------
  std::vector<std::pair<int, int>> moves(1000);
  for (auto& [state, action] : moves) {
    state = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(grid.state_count())));
    action = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(GridWorld::action_count())));
  }
  std::size_t next_move = 0;
  batched("envs.grid_step_ns", 200, static_cast<int>(moves.size()), [&] {
    const auto& [state, action] = moves[next_move++ % moves.size()];
    keep(grid.step(state, action));
  });
}

}  // namespace ftbench
