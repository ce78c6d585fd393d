#pragma once
// Layer probes for the traced run. Each probe calls one module's public
// entry point at the workload's shapes and seed, inside an
// obs::TraceSpan named after the per-layer metric it feeds (category
// "probe", integer arg "calls" = library calls inside the span; the
// unit is the name's _s/_ms/_us/_ns suffix). Exact counts are emitted
// as trace instants whose single arg carries the count. The spans live
// here, in the benchmark, and never inside the library.

#include <cstdint>

#include "workloads.h"

namespace ftbench {

/// Runs every probe once. Requires an active trace recorder
/// (FTNAV_TRACE_DIR); without one the calls run but record nothing.
void run_probes(const Workload& workload, std::uint64_t seed);

}  // namespace ftbench
