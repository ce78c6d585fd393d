#!/usr/bin/env python3
"""The ftnav benchmark: one command, every metric, checked outputs.

    python3 ftbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. Builds ftbench/ (and the ftnav library it
links) in Release under $CARGO_TARGET_DIR (default .bench_build), runs
the workload, checks every scenario run's result bytes against
ftbench/digests.json and prints the metrics, the last stdout line being
one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 times whole passes over the workload's scenarios for T seconds
and reports the end-to-end metrics. --trace 1 runs a traced pass plus
the layer probes between two untraced passes and reports the per-layer
metrics; the trace, self times and results are written to
.bench_out/<workload>-seed<N>-trace/. See ftbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402

BINARY_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"ftbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(command):
    """Runs a build step, showing its output only when it fails."""
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(command)}")


def build():
    """Configures (once) and builds the ftbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ftnav sources beside the benchmark "
             "(expected CMakeLists.txt and src/ at the repository root)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "ftbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "ftbench",
               "-j", jobs])
    return os.path.join(build_dir, "ftbench")


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)


def scenario_seeds(seed, entry):
    """The scenario seeds a benchmark seed selects, given a workload's
    digests.json entry; pass k of a timed run uses element k % count. The
    held-out seed selects itself alone. Any other seed selects every
    shipped seed, starting at index seed % count, so each run's medians
    span the shipped seeds' work rather than one seed's."""
    if seed == entry["held_out_seed"]:
        return [seed]
    shipped = entry["shipped_seeds"]
    start = seed % len(shipped)
    return shipped[start:] + shipped[:start]


def run_binary(binary, args, mode, seeds, out_dir):
    command = [binary, "--mode", mode, "--workload", args.workload,
               "--seeds", ",".join(map(str, seeds)),
               "--seconds", str(args.seconds), "--out", out_dir]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ftbench timed out after {BINARY_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"ftbench exited with {proc.returncode}", proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main():
    args = parse_args()
    table = load_digests()
    if args.workload not in table:
        fail(f"unknown workload {args.workload!r}; known: "
             f"{', '.join(sorted(table))}", 2)
    entry = table[args.workload]
    binary = build()

    seeds = scenario_seeds(args.seed, entry)
    mode = "trace" if args.trace else "time"
    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-{mode}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    records = run_binary(binary, args, mode, seeds, out_dir)

    host = next(r for r in records if r["kind"] == "host")
    process = next(r for r in records if r["kind"] == "process")
    runs = [r for r in records if r["kind"] == "run"]
    failed = analysis.count_failed(runs, entry["digests"])

    if args.trace:
        trace_files = [f for f in os.listdir(out_dir)
                       if f.startswith("trace.") and f.endswith(".json")]
        if len(trace_files) != 1:
            fail(f"expected one trace file in {out_dir}")
        with open(os.path.join(out_dir, trace_files[0])) as handle:
            events = json.load(handle)["traceEvents"]
        untraced = [[r for r in runs if r["pass"] == label]
                    for label in ("untraced-before", "untraced-after")]
        traced = [r for r in runs if r["pass"] == "traced"]
        values = analysis.per_layer(events, untraced, traced,
                                    host["threads"])
        table_rows = analysis.PER_LAYER
        with open(os.path.join(out_dir, "layers.json"), "w") as handle:
            json.dump(analysis.self_times(analysis.spans(events)), handle,
                      indent=1, sort_keys=True)
    else:
        values = analysis.end_to_end(runs, process["peak_rss_mb"])
        table_rows = analysis.END_TO_END

    host = dict(host, benchmark_seed=args.seed)
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()
                              if k != "kind"))
    for name, unit, _ in table_rows:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_frac = {failed / len(runs):.6g} ({failed}/{len(runs)})")
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table_rows},
    }
    with open(os.path.join(out_dir, "results.json"), "w") as handle:
        json.dump({"host": host, "runs": runs, "result": result}, handle,
                  indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
