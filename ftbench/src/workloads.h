#pragma once
// The benchmark's workloads. Each is a fixed list of scenario-registry
// invocations (the same front door `fault_campaign run` uses) plus the
// buffer and BER its layer probes run at. The workload seed is not part
// of the list: the harness passes it in as every scenario's `seed`.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ftbench {

struct ScenarioCall {
  std::string scenario;
  /// Scenario parameters, `seed` excluded.
  std::vector<std::pair<std::string, std::string>> params;
  /// Trials of a scenario that reports no perf section (training sweeps:
  /// cells x repeats). Unused when the scenario reports a section, whose
  /// op count is the trial count.
  std::uint64_t trials_without_section = 0;
};

/// Which weight buffer the fault probes (core.*) sample over.
enum class ProbeBuffer { kGridMlp, kC3F2 };

struct Workload {
  std::string name;
  std::vector<ScenarioCall> calls;
  ProbeBuffer buffer = ProbeBuffer::kGridMlp;
  double probe_ber = 0.0;
};

const std::vector<Workload>& workloads();

/// Null when no workload has this name.
const Workload* find_workload(const std::string& name);

}  // namespace ftbench
