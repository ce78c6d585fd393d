// Fig. 10: effectiveness of range-based anomaly detection (§5.2) on
// inference -- Grid World success rate and drone flight distance, with
// and without the mitigation, under transient weight faults — the
// registry's `grid-inference-mitigation` and `drone-mitigation`
// scenarios. A BENCH_fig10.json perf record (FTNAV_PERF_DIR) gates both
// campaigns' walls and their trial phases; the grid NN's mitigated arm
// runs the engine's detector on every patched weight reload.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  PerfRecorder perf(config, "fig10",
                    "FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 "
                    "./build/bench/bench_fig10_anomaly_detection");
  print_banner("Figure 10",
               "range-based anomaly detection at inference: baseline vs "
               "mitigated",
               config);

  JsonArtifact artifact(config, "fig10");

  std::printf("--- Fig. 10a: Grid World success rate (%%), %d draws per "
              "point ---\n",
              config.resolve_repeats(60, 1000));
  const int grid_repeats = config.resolve_repeats(60, 1000);
  double start = PerfRecorder::now();
  artifact.add(
      "fig10a",
      run_scenario(
          "grid-inference-mitigation", "fig10a", config, DistConfig{},
          {{"train-episodes",
            std::to_string(config.full_scale ? 1500 : 1000)},
           {"repeats", std::to_string(grid_repeats)},
           {"seed", std::to_string(config.seed)}}));
  // Two arms (baseline, mitigated), each 4 fault modes x the
  // scenario's default BERs; policy training included.
  const std::size_t grid_bers = ScenarioRegistry::instance()
                                    .find("grid-inference-mitigation")
                                    ->make_params()
                                    .get_double_list("bers")
                                    .size();
  perf.record("fig10a_grid",
              2 * 4 * grid_bers * static_cast<std::size_t>(grid_repeats),
              PerfRecorder::now() - start);

  std::printf("--- Fig. 10b: drone flight distance (m), %d draws per "
              "point ---\n",
              config.resolve_repeats(15, 100));
  const std::vector<double> bers = drone_bers(config.full_scale);
  const int drone_repeats = config.resolve_repeats(15, 100);
  start = PerfRecorder::now();
  artifact.add(
      "fig10b",
      run_scenario(
          "drone-mitigation", "fig10b", config, DistConfig{},
          {{"bers", param_join(bers)},
           {"repeats", std::to_string(drone_repeats)},
           {"seed", std::to_string(config.seed)}}));
  // Two arms x the BERs, policy training included.
  perf.record("fig10b_drone",
              2 * bers.size() * static_cast<std::size_t>(drone_repeats),
              PerfRecorder::now() - start);

  print_shape_note(
      "range checking on sign+integer bits catches the destructive "
      "high-magnitude outliers: mitigated success roughly doubles in "
      "Grid World at high BER and drone flight quality improves "
      "substantially, at value-check cost only (see "
      "bench_overhead_micro for the <3% runtime claim)");
  return 0;
}
