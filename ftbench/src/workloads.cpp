#include "workloads.h"

namespace ftbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // MLP TD training under transient and stuck-at faults: the full
      // commit path (transient) and the stuck-enforce path (permanent).
      // At 700 episodes only some trainings converge, so which succeed,
      // and so the result bytes, depend on the seed and on training
      // working at all.
      {"grid-nn-train",
       {{"grid-training-transient",
         {{"policy", "nn"},
          {"episodes", "700"},
          {"bers", "0.01"},
          {"injection-episodes", "350"},
          {"repeats", "2"}},
         1 * 1 * 2},
        {"grid-training-permanent",
         {{"policy", "nn"},
          {"episodes", "700"},
          {"bers", "0.01"},
          {"repeats", "1"}},
         1 * 2 * 1}},
       ProbeBuffer::kGridMlp,
       0.01},
      // Fault-free MLP training as setup, then many tiny quantized-MLP
      // inference trials.
      {"grid-nn-infer",
       {{"grid-inference",
         {{"policy", "nn"},
          {"bers", "0.001,0.003,0.005,0.008,0.01"},
          {"repeats", "2000"}},
         0}},
       ProbeBuffer::kGridMlp,
       0.005},
      // Float C3F2 policy training as setup, then AVX2/scalar C3F2
      // engine trials over the raycast drone env in two worlds.
      {"drone-infer",
       {{"drone-environments", {{"repeats", "60"}}, 0}},
       ProbeBuffer::kC3F2,
       0.001},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads())
    if (workload.name == name) return &workload;
  return nullptr;
}

}  // namespace ftbench
