// Micro-benchmarks backing the paper's §5.2 claim that range-based
// anomaly detection costs <3% runtime, plus the cost of the injection
// primitives themselves (the tool-chain is advertised as enabling
// *rapid* fault analysis).
//
// Runs on the shared bench harness: FTNAV_* knobs, a JSON table via
// FTNAV_JSON_DIR, and a BENCH_overhead_micro.json perf-trajectory
// record via FTNAV_PERF_DIR (see ci/perf_gate.py). Iteration counts
// are fixed (FTNAV_FULL=1 multiplies them by 5) so the ops column is
// stable run to run; only the timings vary.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/anomaly_detector.h"
#include "core/injector.h"
#include "envs/drone_camera.h"
#include "nn/c3f2.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/quantized_engine.h"
#include "util/rng.h"

namespace {

using namespace ftnav;
using namespace ftnav::benchharness;

// Folded into a volatile at the end of every section so the measured
// calls feed an observable side effect and cannot be hoisted away.
volatile double g_sink = 0.0;

struct Micro {
  Table& table;
  PerfRecorder& perf;

  template <typename Fn>
  void section(const char* name, std::size_t ops, Fn&& fn) {
    const double start = PerfRecorder::now();
    fn();
    const double seconds = PerfRecorder::now() - start;
    table.add_row({name, std::to_string(ops),
                   format_double(seconds * 1e3, 2),
                   format_double(ops / (seconds > 0.0 ? seconds : 1e-12), 0)});
    perf.record(name, ops, seconds);
  }
};

}  // namespace

int main() {
  BenchConfig config = bench_config_from_env();
  print_banner("Overhead micro",
               "cost of the injection/detection primitives and the §5.2 "
               "<3% anomaly-detection overhead claim",
               config);

  const std::size_t scale = config.full_scale ? 5 : 1;
  Table table({"section", "ops", "ms_total", "ops_per_sec"});
  PerfRecorder perf(config, "overhead_micro",
                    "FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 "
                    "FTNAV_FULL=1 ./build/bench/bench_overhead_micro");
  Micro micro{table, perf};

  {
    const QFormat fmt = QFormat::q_1_4_11();
    const std::size_t ops = 2'000'000 * scale;
    micro.section("qformat_encode_decode", ops, [&] {
      double v = 0.12345;
      for (std::size_t i = 0; i < ops; ++i)
        v = fmt.decode(fmt.encode(v)) + 1e-7;
      g_sink = g_sink + v;
    });
  }

  {
    Rng rng(config.seed);
    const std::size_t ops = 2'000 * scale;
    micro.section("faultmap_sample_64k", ops, [&] {
      for (std::size_t i = 0; i < ops; ++i) {
        const FaultMap map =
            FaultMap::sample(FaultType::kTransientFlip, 0.001, 65536, 16, rng);
        g_sink = g_sink + static_cast<double>(map.sites().size());
      }
    });
  }

  {
    Rng rng(config.seed + 1);
    const FaultMap map =
        FaultMap::sample(FaultType::kStuckAt1, 0.001, 65536, 16, rng);
    const StuckAtMask mask = StuckAtMask::compile(map);
    std::vector<Word> buffer(65536, 0x1234);
    const std::size_t ops = 20'000 * scale;
    micro.section("stuckat_mask_apply_64k", ops, [&] {
      for (std::size_t i = 0; i < ops; ++i) mask.apply(buffer);
      g_sink = g_sink + static_cast<double>(buffer[0]);
    });
  }

  {
    Rng rng(config.seed + 2);
    std::vector<float> values(65536, 0.5f);
    const QFormat fmt = QFormat::q_1_4_11();
    const std::size_t ops = 2'000 * scale;
    micro.section("dynamic_transient_injection_64k", ops, [&] {
      for (std::size_t i = 0; i < ops; ++i)
        inject_transient_values(values, fmt, 1e-4, rng);
      g_sink = g_sink + values[0];
    });
  }

  {
    RangeAnomalyDetector detector(QFormat::q_1_4_11(), 1, 0.1);
    detector.calibrate(0, -2.0);
    detector.calibrate(0, 2.0);
    detector.finalize();
    std::vector<float> probe(1024);
    Rng rng(config.seed + 3);
    for (float& v : probe)
      v = static_cast<float>(rng.normal(0.0, 1.5));  // some out of range
    const std::size_t ops = 5'000'000 * scale;
    micro.section("anomaly_check_per_value", ops, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < ops; ++i)
        acc += detector.filter(0, probe[i & 1023]);
      g_sink = g_sink + acc;
    });
  }

  // The dispatched forward primitives on the fast C3F2 layer shapes
  // (see make_c3f2), multiply-accumulates as ops: the conv and dense
  // kernels that both the quantized engine (trials) and the float
  // layers (policy training) run.
  {
    const kernels::KernelOps& ops = kernels::active();
    Rng rng(config.seed + 4);
    const auto randoms = [&](std::size_t n) {
      std::vector<float> v(n);
      for (float& e : v) e = static_cast<float>(rng.normal(0.0, 0.5));
      return v;
    };
    // Weights, their transposed copy, bias, input and output of one
    // layer.
    struct Layer {
      std::vector<float> w, wt, b, x, y;
    };
    const auto make_layer = [&](int rows, int cols, std::size_t in,
                                std::size_t out) {
      Layer l{randoms(static_cast<std::size_t>(rows) * cols), {},
              randoms(static_cast<std::size_t>(rows)), randoms(in),
              std::vector<float>(out)};
      l.wt.resize(l.w.size());
      kernels::transpose(l.w.data(), l.wt.data(), rows, cols);
      return l;
    };

    const kernels::ConvShape conv_shapes[] = {
        {3, 39, 39, 16, 18, 18, 5, 2},  // Conv1
        {16, 9, 9, 32, 4, 4, 3, 2},     // Conv2
        {32, 4, 4, 32, 2, 2, 3, 1},     // Conv3
    };
    std::vector<Layer> convs;
    std::size_t conv_macs = 0;
    for (const kernels::ConvShape& c : conv_shapes) {
      const int taps = c.in_c * c.kernel * c.kernel;
      const std::size_t out = static_cast<std::size_t>(c.out_c) * c.out_h *
                              c.out_w;
      convs.push_back(make_layer(c.out_c, taps,
                                 static_cast<std::size_t>(c.in_c) * c.in_h *
                                     c.in_w,
                                 out));
      conv_macs += out * static_cast<std::size_t>(taps);
    }
    const std::size_t conv_passes = 2'000 * scale;
    micro.section("conv2d_c3f2_fast", conv_passes * conv_macs, [&] {
      for (std::size_t i = 0; i < conv_passes; ++i)
        for (std::size_t l = 0; l < convs.size(); ++l)
          ops.conv2d(convs[l].w.data(),
                     ops.conv_wants_transposed ? convs[l].wt.data() : nullptr,
                     convs[l].b.data(), convs[l].x.data(), convs[l].y.data(),
                     conv_shapes[l]);
      g_sink = g_sink + convs.back().y[0];
    });

    const struct { int in_f, out_f; } dense_shapes[] = {
        {128, 128},  // FC1
        {128, 25},   // FC2
    };
    std::vector<Layer> denses;
    std::size_t dense_macs = 0;
    for (const auto& d : dense_shapes) {
      denses.push_back(make_layer(d.out_f, d.in_f,
                                  static_cast<std::size_t>(d.in_f),
                                  static_cast<std::size_t>(d.out_f)));
      dense_macs += static_cast<std::size_t>(d.in_f) * d.out_f;
    }
    const std::size_t dense_passes = 50'000 * scale;
    micro.section("dense_c3f2_fc", dense_passes * dense_macs, [&] {
      for (std::size_t i = 0; i < dense_passes; ++i)
        for (std::size_t l = 0; l < denses.size(); ++l)
          ops.dense(denses[l].w.data(),
                    ops.dense_wants_transposed ? denses[l].wt.data() : nullptr,
                    denses[l].b.data(), denses[l].x.data(), denses[l].y.data(),
                    dense_shapes[l].in_f, dense_shapes[l].out_f);
      g_sink = g_sink + denses.back().y[0];
    });
  }

  // The §5.2 overhead claim, measured end to end: one C3F2 fault trial
  // (inject a fixed weight fault map, infer, reset) with and without
  // weight protection. Every op reloads the faulted words, so the
  // protected row pays the range checks a protected campaign pays; it
  // should be within a few percent.
  {
    Rng rng(4);
    const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
    Network net = make_c3f2(c3f2, rng);
    QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(),
                                    c3f2.input_shape());
    Tensor input(c3f2.input_shape());
    input.fill(0.4f);
    const FaultMap faults =
        FaultMap::sample(FaultType::kTransientFlip, 0.001,
                         engine.weight_word_count(),
                         engine.format().total_bits(), rng);
    // Enough trials that both walls clear ci/perf_gate.py's 0.1 s
    // --min-seconds at the baseline scale (FTNAV_FULL=1), so the
    // overhead claim is gated rather than reported.
    const std::size_t ops = 1'000 * scale;
    const auto trials = [&](const char* name) {
      Rng run(5);
      micro.section(name, ops, [&] {
        for (std::size_t i = 0; i < ops; ++i) {
          engine.inject_weight_faults(faults);
          g_sink = g_sink + engine.infer(input, run)[0];
          engine.reset_faults();
        }
      });
    };
    trials("c3f2_inference");
    engine.enable_weight_protection(0.1);
    trials("c3f2_inference_protected");
  }

  // The per-trial cost of a Grid World NN inference campaign without
  // its rollout: reset the resident engine, sample a BER 0.005
  // weight fault map, inject it, and act once on the MLP (100 one-hot
  // states -> 48 hidden -> 4 Q-values) in its Q(1,3,4)sm format.
  {
    Rng rng(6);
    Network net;
    net.add(std::make_unique<Dense>(100, 48, rng)).set_label("FC1");
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Dense>(48, 4, rng)).set_label("FC2");
    QuantizedInferenceEngine engine(net, QFormat::grid_world_weights(),
                                    Shape{100, 1, 1});
    Tensor state(Shape{100, 1, 1});
    const std::size_t ops = 20'000 * scale;
    micro.section("engine_fault_trial_mlp", ops, [&] {
      std::size_t acted = 0;
      for (std::size_t i = 0; i < ops; ++i) {
        engine.reset_faults();
        engine.inject_weight_faults(FaultMap::sample(
            FaultType::kTransientFlip, 0.005, engine.weight_word_count(),
            engine.format().total_bits(), rng));
        const std::size_t hot = i % state.size();
        state[hot] = 1.0f;
        acted += engine.act(state, rng);
        state[hot] = 0.0f;
      }
      g_sink = g_sink + static_cast<double>(acted);
    });
  }

  // The drone observation: one camera render per env step (depth
  // raycasts plus the row/column-table shading) on the fast C3F2 input
  // size, over poses along the indoor-long corridor.
  {
    const DroneWorld world = DroneWorld::indoor_long();
    const CameraConfig camera;
    const std::size_t ops = 20'000 * scale;
    micro.section("drone_render_camera", ops, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < ops; ++i) {
        const Pose2D pose{4.0 + static_cast<double>(i % 40), 3.0,
                          0.4 * static_cast<double>(i % 16)};
        acc += render_camera(world, pose, camera)[i % 64];
      }
      g_sink = g_sink + acc;
    });
  }

  std::printf("%s\n", table.render().c_str());
  JsonArtifact artifact(config, "overhead_micro");
  artifact.add("micro", table);
  print_shape_note(
      "c3f2_inference_protected lands within a few percent of "
      "c3f2_inference (the paper's <3% anomaly-detection overhead); the "
      "injection primitives are orders of magnitude cheaper than a C3F2 "
      "inference, so drone campaigns are compute- not injection-bound; "
      "an engine_fault_trial_mlp op costs microseconds");
  return 0;
}
