// ftbench: the ftnav benchmark harness.
//
//   ftbench --mode time  --workload W --seeds S1,S2,.. --seconds T --out D
//   ftbench --mode trace --workload W --seeds S1,.. --out D
//
// Both modes run the workload's scenarios through the registry's public
// front door, ScenarioRegistry::find(name)->factory(params)->run(ctx),
// with kThreads threads and an otherwise default ScenarioContext, as
// `fault_campaign run` does, and print one JSON line per scenario run
// (wall, trial phase, trials, CPU) on stdout. Each run's result bytes
// (ScenarioResult::text, a newline, then to_json()) go to
// D/result-<k>.bin for the caller to digest.
//
// `time` repeats whole passes over the workload's scenarios for about T
// seconds and runs no probes. Pass k passes seed S[k % count] to every
// scenario.
//
// `trace` uses S1 only. It runs a warm-up pass, an untraced pass, then,
// inside an obs::TraceSession writing to D, one traced pass followed by
// the layer probes (probes.h), and a second untraced pass once the
// session has closed. Every pass takes the same batch (unstreamed) path
// as the timed runs, whose shards the campaign spans as "shard"
// (category "campaign"). The traced pass against the mean of the two
// untraced ones that bracket it gives the tracing overhead. The trace
// lands in D when the session closes.
//
// Every mode refuses to start with a telemetry, distribution,
// checkpoint, batching or backend knob set in the environment, and
// refuses a non-Release build. Exit codes: 0 success (scenario failures
// are reported per run), 2 usage or environment refused.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/kernels/kernels.h"
#include "obs/trace.h"
#include "probes.h"
#include "scenario/scenario.h"
#include "util/perf.h"
#include "workloads.h"

namespace {

/// Campaign threads of every scenario run, reported in the host record.
constexpr int kThreads = 2;

struct Args {
  std::string mode;
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 0.0;
  std::string out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "ftbench: %s\n", message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--mode") args.mode = value;
      else if (flag == "--workload") args.workload = value;
      else if (flag == "--seeds") {
        std::size_t begin = 0;
        while (begin <= value.size()) {
          const std::size_t end = std::min(value.find(',', begin),
                                           value.size());
          args.seeds.push_back(std::stoull(value.substr(begin, end - begin)));
          begin = end + 1;
        }
      } else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--out") args.out = value;
      else usage_error("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (args.mode != "time" && args.mode != "trace")
    usage_error("--mode must be time or trace");
  if (args.workload.empty() || args.seeds.empty() || args.out.empty())
    usage_error("--workload, --seeds and --out are required");
  if (args.seconds < 0.0) usage_error("--seconds must be >= 0");
  return args;
}

/// Knobs that change how a campaign executes (not its bytes): every run
/// must see the library defaults. The trace mode installs its own
/// recorder, so an environment-driven one is refused too.
void refuse_execution_knobs() {
  for (const char* name : {"FTNAV_TRACE_DIR", "FTNAV_WORKERS",
                           "FTNAV_CHECKPOINT_DIR", "FTNAV_TRIAL_BATCH",
                           "FTNAV_SIMD"})
    if (std::getenv(name) != nullptr)
      usage_error(std::string("refusing to run with ") + name + " set");
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct RunRecord {
  std::string scenario;
  std::uint64_t seed = 0;
  double campaign_s = 0.0;
  double trial_s = 0.0;
  std::uint64_t trials = 0;
  double cpu_s = 0.0;
  std::string result_file;
  std::string error;
};

/// find -> make_params -> set -> factory: the registry front door up
/// to a runnable scenario.
std::unique_ptr<ftnav::Scenario> bind_scenario(
    const ftbench::ScenarioCall& call, std::uint64_t seed) {
  const ftnav::ScenarioSpec* spec =
      ftnav::ScenarioRegistry::instance().find(call.scenario);
  if (spec == nullptr)
    throw std::runtime_error("unknown scenario " + call.scenario);
  ftnav::ParamSet params = spec->make_params();
  for (const auto& [name, value] : call.params)
    params.set(name, value, ftnav::ParamSource::kCli);
  params.set("seed", std::to_string(seed), ftnav::ParamSource::kCli);
  return spec->factory(params);
}

/// Binds per scenario run. Binding takes microseconds, so one sample is
/// noise; the median of several is the run's binding cost.
constexpr int kBinds = 15;

/// One scenario run through the registry front door. campaign_s is the
/// median bind time plus the wall time of run(); the trial phase is the
/// scenario's perf section, or all of run() when it reports none.
RunRecord run_scenario(const ftbench::ScenarioCall& call, std::uint64_t seed,
                       const std::string& result_path) {
  RunRecord record;
  record.scenario = call.scenario;
  record.seed = seed;
  (void)ftnav::perf::drain_sections();
  double bind_s = 0.0;
  double run_s = 0.0;
  double cpu_start = cpu_seconds();
  ftnav::ScenarioResult result;
  try {
    std::vector<double> bind_times;
    std::unique_ptr<ftnav::Scenario> scenario;
    for (int i = 0; i < kBinds; ++i) {
      const double start = ftnav::perf::now();
      std::unique_ptr<ftnav::Scenario> bound = bind_scenario(call, seed);
      bind_times.push_back(ftnav::perf::now() - start);
      scenario = std::move(bound);
    }
    std::sort(bind_times.begin(), bind_times.end());
    bind_s = bind_times[bind_times.size() / 2];
    ftnav::ScenarioContext context;
    context.threads = kThreads;
    cpu_start = cpu_seconds();
    const double run_start = ftnav::perf::now();
    {
      ftnav::obs::TraceSpan span("experiments.scenario_run", "ftbench");
      result = scenario->run(context);
    }
    run_s = ftnav::perf::now() - run_start;
  } catch (const std::exception& error) {
    record.error = error.what();
  }
  record.cpu_s = cpu_seconds() - cpu_start;
  record.campaign_s = bind_s + run_s;
  const std::vector<ftnav::perf::Section> sections =
      ftnav::perf::drain_sections();
  for (const ftnav::perf::Section& section : sections) {
    record.trial_s += section.seconds;
    record.trials += section.ops;
  }
  if (sections.empty()) {
    record.trial_s = run_s;
    record.trials = call.trials_without_section;
  }
  if (record.error.empty()) {
    std::ofstream file(result_path, std::ios::binary | std::ios::trunc);
    file << result.text << '\n' << result.to_json();
    if (file.flush())
      record.result_file = result_path;
    else
      record.error = "cannot write " + result_path;
  }
  return record;
}

void print_run(const char* pass, const RunRecord& record) {
  std::printf(
      "{\"kind\": \"run\", \"pass\": %s, \"scenario\": %s, "
      "\"seed\": %llu, \"campaign_s\": %.9f, \"trial_s\": %.9f, "
      "\"trials\": %llu, \"cpu_s\": %.6f, \"result\": %s",
      json_string(pass).c_str(), json_string(record.scenario).c_str(),
      static_cast<unsigned long long>(record.seed), record.campaign_s,
      record.trial_s,
      static_cast<unsigned long long>(record.trials), record.cpu_s, json_string(record.result_file).c_str());
  if (!record.error.empty())
    std::printf(", \"error\": %s", json_string(record.error).c_str());
  std::printf("}\n");
  std::fflush(stdout);
}

/// Runs every scenario of the workload once at `seed`, labelling the
/// runs `pass`.
void run_pass(const ftbench::Workload& workload, const Args& args,
              std::uint64_t seed, const std::string& pass,
              int& result_index) {
  for (const ftbench::ScenarioCall& call : workload.calls) {
    const std::string path =
        args.out + "/result-" + std::to_string(result_index++) + ".bin";
    print_run(pass.c_str(), run_scenario(call, seed, path));
  }
}

std::string join(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (const std::uint64_t value : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(value);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (std::string(FTBENCH_BUILD_TYPE) != "Release")
    usage_error("refusing a non-Release build");
  refuse_execution_knobs();
  const ftbench::Workload* workload = ftbench::find_workload(args.workload);
  if (workload == nullptr) usage_error("unknown workload " + args.workload);

  // Process bring-up outside every timed region: registry population and
  // kernel backend resolution.
  (void)ftnav::ScenarioRegistry::instance();
  const char* backend = ftnav::kernels::active().name;
  std::printf(
      "{\"kind\": \"host\", \"nproc\": %d, \"backend\": %s, "
      "\"build_type\": %s, \"threads\": %d, \"seeds\": [%s], "
      "\"workload\": %s, \"mode\": %s}\n",
      usable_cpus(), json_string(backend).c_str(),
      json_string(FTBENCH_BUILD_TYPE).c_str(), kThreads,
      join(args.seeds).c_str(),
      json_string(workload->name).c_str(), json_string(args.mode).c_str());

  const double started = ftnav::perf::now();
  int result_index = 0;
  if (args.mode == "time") {
    // Whole passes while the next one is expected to fit the budget;
    // at least one.
    for (int pass = 0;; ++pass) {
      const std::uint64_t seed = args.seeds[pass % args.seeds.size()];
      run_pass(*workload, args, seed, std::to_string(pass), result_index);
      const double elapsed = ftnav::perf::now() - started;
      if (elapsed + elapsed / (pass + 1) > args.seconds) break;
    }
  } else {
    const std::uint64_t seed = args.seeds.front();
    run_pass(*workload, args, seed, "warmup", result_index);
    run_pass(*workload, args, seed, "untraced-before", result_index);
    {
      ftnav::obs::TraceSession session(args.out);
      run_pass(*workload, args, seed, "traced", result_index);
      ftbench::run_probes(*workload, seed);
    }
    run_pass(*workload, args, seed, "untraced-after", result_index);
  }

  std::printf("{\"kind\": \"process\", \"peak_rss_mb\": %.3f, "
              "\"wall_s\": %.6f}\n",
              peak_rss_mb(), ftnav::perf::now() - started);
  return 0;
}
