// Fig. 5: the impact of transient and permanent faults on Grid World
// inference for tabular and NN policies — the registry's
// `grid-inference` scenario run once per policy kind.
//
// Supports distributed runs: FTNAV_WORKERS=4 shards each campaign
// across four worker processes (spawned copies of this binary) and
// prints tables identical to a single-process run. See src/dist/.

#include <cstdio>

#include "bench_common.h"

int main(int, char** argv) {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  BenchConfig config = bench_config_from_env();
  PerfRecorder perf(config, "fig5_inference",
                    "FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 "
                    "FTNAV_REPEATS=600 ./build/bench/bench_fig5_inference");
  // Coordinator: spawn FTNAV_WORKERS workers and drain the queue;
  // workers: run leased shards silently and exit.
  const DistConfig dist = bench_dist(argv[0], config);
  const bool worker = config.is_dist_worker();
  if (!worker)
    print_banner("Figure 5",
                 "faults injected into the frozen policy store at inference "
                 "time: success rate vs BER per fault mode",
                 config);

  const std::vector<double> bers = {0.0,   0.002, 0.004,
                                    0.006, 0.008, 0.010};

  JsonArtifact artifact(config, "fig5");
  for (const bool tabular : {true, false}) {
    const int repeats = config.resolve_repeats(tabular ? 200 : 60, 1000);
    if (!worker)
      std::printf("--- Fig. 5%c: %s-based inference (%d fault draws per "
                  "point) ---\n",
                  tabular ? 'a' : 'b', tabular ? "tabular" : "NN", repeats);
    const double start = PerfRecorder::now();
    const ScenarioResult result = run_scenario(
        "grid-inference", tabular ? "fig5a" : "fig5b", config, dist,
        {{"policy", tabular ? "tabular" : "nn"},
         {"train-episodes",
          std::to_string(config.full_scale ? 1500 : 1000)},
         {"bers", param_join(bers)},
         {"repeats", std::to_string(repeats)},
         {"seed", std::to_string(config.seed)}});
    // 4 fault modes x |bers| cells, `repeats` rollout trials each
    // (training time is included: it is part of the campaign's wall
    // clock and identical across backends).
    perf.record(tabular ? "fig5a_tabular" : "fig5b_nn",
                4 * bers.size() * static_cast<std::size_t>(repeats),
                PerfRecorder::now() - start);
    if (!worker) artifact.add(tabular ? "fig5a" : "fig5b", result);
  }

  if (!worker)
    print_shape_note(
        "Transient-1 (single-step register upset) is nearly harmless -- a "
        "wrong step gets remedied later; Transient-M and permanent faults "
        "degrade success with BER; stuck-at-1 hits the NN policy much "
        "harder than stuck-at-0, while the tabular policy treats them "
        "similarly");
  return 0;
}
