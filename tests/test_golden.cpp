// Golden bytes for the whole scenario catalog.
//
// Every registered scenario runs through the registry at a small scale
// with 2 threads and a checkpoint, and the FNV-1a digests of its text,
// its to_json() and every checkpoint file it writes must equal the
// values pinned below. The outputs are pure functions of the scenario
// parameters, so the same digests hold for every thread count, build
// type and SIMD backend (CI reruns this binary under
// FTNAV_SIMD=scalar). A refactor that keeps these digests keeps the
// catalog's bytes.
//
// Each case's parameters are chosen so the result is not degenerate:
// the fault-free cell succeeds (or flies a healthy distance) and some
// faulted cell differs from it. When a digest changes on purpose, the
// failure message prints the case's new expectations.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

struct GoldenCase {
  std::string label;  ///< test name suffix; unique across cases
  std::string scenario;
  KeyValues params;
  std::string text_digest;
  std::string json_digest;
  /// (checkpoint file name, digest), name-sorted.
  KeyValues checkpoint_digests;
};

void PrintTo(const GoldenCase& golden, std::ostream* out) {
  *out << golden.label;
}

std::string digest(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    io::fnv1a({bytes.data(), bytes.size()})));
  return hex;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Shared drone policy: a short imitation bootstrap and a 60-step flight
// budget keep every drone case well under a second.
KeyValues drone(KeyValues params) {
  params.insert(params.end(), {{"imitation-episodes", "2"},
                               {"ddqn-episodes", "0"},
                               {"env-max-steps", "60"},
                               {"seed", "3"}});
  return params;
}

KeyValues drone_sweep() {
  return drone({{"bers", "0,0.01,0.1"}, {"repeats", "2"}});
}

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"ablation_detector_margin",
       "ablation-detector-margin",
       {{"margins", "0,2"}, {"ber", "0.003"}, {"train-episodes", "300"},
        {"repeats", "12"}, {"seed", "5"}},
       "957f73b13e92b31c",
       "13ad72f1ddf96f75",
       {{"ck.m0", "27fb90f2ad9210e8"}, {"ck.m1", "ac588aa3077fab2c"}}},
      {"drone_data_types",
       "drone-data-types",
       drone_sweep(),
       "6c23013b973da5ef",
       "41cdfd0fa6ec07ba",
       {{"ck", "e1e90d53b3e5e30c"}}},
      {"drone_environments",
       "drone-environments",
       drone_sweep(),
       "b92ca62af272441f",
       "5adf8372aeb75eb3",
       {{"ck", "4ce60e21a4ac441b"}}},
      {"drone_fault_locations",
       "drone-fault-locations",
       drone_sweep(),
       "40f345daa73dfb90",
       "dcfc6914f63b6e85",
       {{"ck", "0b28631f6e8b6b86"}}},
      {"drone_layers",
       "drone-layers",
       drone_sweep(),
       "b00a308ff3d27d8a",
       "0abf6e1e0260f2c7",
       {{"ck", "82c4de1335e92e46"}}},
      {"drone_mitigation",
       "drone-mitigation",
       drone_sweep(),
       "f72e9dc35109c4bf",
       "012e8fe70f827d2c",
       {{"ck", "e85c79db08d4cd82"}}},
      {"drone_training",
       "drone-training",
       drone({{"bers", "0.01,0.1"}, {"injection-points", "0,0.5"},
              {"fine-tune-episodes", "1"}, {"eval-repeats", "1"}}),
       "afc4c52d57575f47",
       "1eb0a4a07db3764c",
       {{"ck.flat", "20530068d000f55a"},
        {"ck.transient", "e287808cdc540dbc"}}},
      {"grid_convergence_permanent",
       "grid-convergence-permanent",
       {{"bers", "0,0.01"}, {"early-episode", "100"},
        {"late-episode", "200"}, {"extra-episodes", "200"},
        {"repeats", "3"}, {"seed", "5"}},
       "39a512fbe9211524",
       "646e24a478bfb8ae",
       {{"ck", "d07b9b63fae39323"}}},
      {"grid_convergence_transient",
       "grid-convergence-transient",
       {{"bers", "0,0.01"}, {"fault-episode", "150"},
        {"max-extra-episodes", "150"}, {"repeats", "3"}, {"seed", "5"}},
       "878e7929045c2350",
       "9d33bd5e768420fa",
       {{"ck", "5e8d507a2a1b0211"}}},
      {"grid_exploration_study",
       "grid-exploration-study",
       {{"bers", "0,0.01"}, {"episodes", "600"}, {"repeats", "2"},
        {"seed", "5"}},
       "4c03b1e6bda68041",
       "82858eba67f25be5",
       {{"ck", "28dd84e5246bcc09"}}},
      {"grid_inference_tabular",
       "grid-inference",
       {{"policy", "tabular"}, {"mitigate", "true"},
        {"train-episodes", "300"}, {"bers", "0,0.02,0.5"},
        {"repeats", "20"}, {"seed", "5"}},
       "d9f9e06f51a9aefa",
       "89681496e225d285",
       {{"ck", "b2d15c70e7083270"}}},
      {"grid_inference_nn",
       "grid-inference",
       {{"policy", "nn"}, {"density", "low"}, {"mitigate", "true"},
        {"train-episodes", "300"}, {"bers", "0,0.005,0.02"},
        {"repeats", "6"}, {"seed", "5"}},
       "ab059b30db405fc4",
       "ebb8e0755f787a89",
       {{"ck", "f4e3fa0ad84c7419"}}},
      {"grid_inference_mitigation",
       "grid-inference-mitigation",
       {{"train-episodes", "300"}, {"bers", "0,0.01"}, {"repeats", "8"},
        {"seed", "5"}},
       "2ca12aa164e25d91",
       "630ec4c9906efa89",
       {{"ck.baseline", "63434cd857dc9acc"},
        {"ck.mitigated", "75c6794c27be54d8"}}},
      {"grid_reward_curves",
       "grid-reward-curves",
       {{"episodes", "300"}, {"seed", "5"}},
       "227f4bbba8e63466",
       "ee9d55f7a897b3db",
       {}},
      {"grid_training_permanent",
       "grid-training-permanent",
       {{"episodes", "300"}, {"bers", "0,0.01"}, {"repeats", "2"},
        {"seed", "7"}},
       "0c99296fa4795c88",
       "0f449869767cc896",
       {{"ck.permanent", "6b8b87d54ee58558"}}},
      {"grid_training_transient",
       "grid-training-transient",
       {{"episodes", "300"}, {"bers", "0,0.01"},
        {"injection-episodes", "0,150,299"}, {"repeats", "2"},
        {"seed", "7"}},
       "3fcad2086d1467b9",
       "cf41a4e4030f3244",
       {{"ck.transient", "a7af19df3bf4ba14"}}},
      {"grid_value_histogram",
       "grid-value-histogram",
       {{"episodes", "300"}, {"seed", "5"}},
       "414bb575ad9b5b9d",
       "39e975392ef7f91e",
       {}},
  };
  return cases;
}

/// The expectations a case would need to pass, as C++ to paste.
std::string render_expectations(const std::string& text,
                                const std::string& json,
                                const KeyValues& checkpoints) {
  std::ostringstream out;
  out << "\"" << text << "\",\n\"" << json << "\",\n{";
  for (std::size_t i = 0; i < checkpoints.size(); ++i)
    out << (i ? ", " : "") << "{\"" << checkpoints[i].first << "\", \""
        << checkpoints[i].second << "\"}";
  out << "}";
  return out.str();
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, DigestsMatch) {
  const GoldenCase& golden = GetParam();
  const ScenarioSpec* spec =
      ScenarioRegistry::instance().find(golden.scenario);
  ASSERT_NE(spec, nullptr) << golden.scenario;
  ParamSet params = spec->make_params();
  for (const auto& [key, value] : golden.params)
    params.set(key, value, ParamSource::kCli);

  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("ftnav_golden_" + golden.label);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScenarioContext context;
  context.threads = 2;
  context.stream.checkpoint_path = (dir / "ck").string();
  const ScenarioResult result = spec->factory(params)->run(context);

  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.insert(entry.path().filename().string());
  KeyValues checkpoints;
  for (const std::string& name : names)
    checkpoints.emplace_back(name, digest(read_file(dir / name)));
  std::filesystem::remove_all(dir);

  const std::string text = digest(result.text);
  const std::string json = digest(result.to_json());
  EXPECT_TRUE(text == golden.text_digest && json == golden.json_digest &&
              checkpoints == golden.checkpoint_digests)
      << golden.scenario << " output changed; new expectations:\n"
      << render_expectations(text, json, checkpoints) << "\ntext:\n"
      << result.text;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, Golden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.label;
    });

TEST(GoldenCatalog, CoversEveryRegisteredScenario) {
  std::set<std::string> covered;
  for (const GoldenCase& golden : golden_cases())
    covered.insert(golden.scenario);
  for (const ScenarioSpec* spec : ScenarioRegistry::instance().all())
    EXPECT_TRUE(covered.count(spec->name)) << spec->name << " has no golden";
}

}  // namespace
}  // namespace ftnav
