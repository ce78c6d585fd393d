// Fig. 7b: drone inference resilience across environments -- MSF vs BER
// for transient weight faults in indoor-long and indoor-vanleer — the
// registry's `drone-environments` scenario.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 7b",
               "MSF vs BER under transient weight faults, per environment",
               config);

  // Two rows: drone_env_trials, the rollout grid the campaign reports,
  // and drone_env_policy_training, the rest of the scenario's wall
  // clock: training one policy per environment.
  PerfRecorder perf(config, "fig7b",
                    "FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 "
                    "./build/bench/bench_fig7b_environments");
  JsonArtifact artifact(config, "fig7b");
  const double started = PerfRecorder::now();
  const ScenarioResult result = run_scenario(
      "drone-environments", "fig7b", config, DistConfig{},
      {{"bers", param_join(drone_bers(config.full_scale))},
       {"repeats", std::to_string(config.resolve_repeats(15, 100))},
       {"seed", std::to_string(config.seed)}});
  const double wall = PerfRecorder::now() - started;
  double trial_seconds = 0.0;
  for (const perf::Section& section : perf::drain_sections()) {
    perf.record(section.name, section.ops, section.seconds);
    if (section.name == "drone_env_trials") trial_seconds += section.seconds;
  }
  perf.record("drone_env_policy_training", /*policies=*/2,
              wall - trial_seconds);
  artifact.add("fig7b", result);

  print_shape_note(
      "both environments show the same trend: flight quality degrades "
      "monotonically as weight-fault BER rises, with little difference "
      "between the two maps");
  return 0;
}
