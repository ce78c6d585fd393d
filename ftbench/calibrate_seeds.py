#!/usr/bin/env python3
"""Chooses each workload's seeds and records their result digests.

    python3 ftbench/calibrate_seeds.py [WORKLOAD ...]

Run from the repository root, on an otherwise idle machine, after an
intentional change to a workload or to scenario output. Rewrites the
named workloads' entries in ftbench/digests.json (default: all).

Seeds change how much work a scenario does, not only which numbers it
prints: NN Grid World training retries seeds whose policy fails to
converge, and a drone policy that flies longer runs more steps in
training and in every rollout. Every timed run cycles through all the
shipped seeds, so each run's medians cover the same work; the shipped
seeds themselves should still do comparable work. Every candidate seed
is run once (one pass, as the timed mode runs it) in each of two sweeps,
and its timings are the faster sweep's, since host noise only ever adds
time. The workload keeps the CLUSTER seeds whose (campaign_s, trial_s)
lie closest together: the candidate whose CLUSTER - 1 nearest
neighbours, in max |log ratio|, lie closest, together with those
neighbours. The highest-numbered of them is held out (kept for checking
a claim on a seed a change was not developed against); the rest are the
shipped seeds. The candidates' timings are kept in the file.

Result bytes are identical across thread counts and kernel backends, so
one digest per (workload, seed, scenario) holds on every host.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import analysis
import run

# Four shipped seeds and one held out: a timed run of a few passes then
# still covers every shipped seed.
CLUSTER = 5
CANDIDATES = range(32)
SWEEPS = 2
WORKLOADS = ("grid-nn-train", "grid-nn-infer", "drone-infer")


def measure(binary, workload, seed):
    """(campaign_s, trial_s, {scenario: digest}) of one pass."""
    out_dir = os.path.join(run.ROOT, ".bench_out", "calibrate")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    proc = subprocess.run(
        [binary, "--mode", "time", "--workload", workload, "--seeds",
         str(seed), "--seconds", "0", "--out", out_dir],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    runs = [r for r in runs if r["kind"] == "run"]
    for r in runs:
        if r.get("error"):
            sys.exit(f"{workload} seed {seed}: {r['error']}")
    digests = {r["scenario"]: analysis.digest_file(r["result"]) for r in runs}
    shutil.rmtree(out_dir)
    return (sum(r["campaign_s"] for r in runs),
            sum(r["trial_s"] for r in runs), digests)


def screen(binary, workload):
    """Per candidate seed: the faster sweep's (campaign_s, trial_s), and
    the digests, which must agree across sweeps."""
    timings = {}
    digests = {}
    for sweep in range(SWEEPS):
        for seed in CANDIDATES:
            campaign_s, trial_s, recorded = measure(binary, workload, seed)
            if digests.setdefault(seed, recorded) != recorded:
                sys.exit(f"{workload} seed {seed}: result bytes differ "
                         "between two runs")
            timings[seed] = min(timings.get(seed, (campaign_s, trial_s)),
                                (campaign_s, trial_s))
            print(f"{workload} sweep {sweep} seed {seed}: "
                  f"campaign_s={campaign_s:.3f} trial_s={trial_s:.3f}",
                  flush=True)
    return timings, digests


def densest_cluster(timings, size):
    """The `size` seeds closest together in max |log ratio| over the
    timing features (see the module docstring)."""
    def distance(a, b):
        return max(abs(math.log(x / y))
                   for x, y in zip(timings[a], timings[b]))

    best = None
    for center in timings:
        nearest = sorted(timings, key=lambda s: (distance(center, s), s))
        members = nearest[:size]
        radius = distance(center, members[-1])
        if best is None or radius < best[0]:
            best = (radius, sorted(members))
    return best[1]


def main():
    workloads = sys.argv[1:] or list(WORKLOADS)
    for workload in workloads:
        if workload not in WORKLOADS:
            sys.exit(f"unknown workload {workload!r}")
    binary = run.build()
    path = os.path.join(run.HERE, "digests.json")
    table = run.load_digests() if os.path.exists(path) else {}
    for workload in workloads:
        timings, digests = screen(binary, workload)
        chosen = densest_cluster(timings, CLUSTER)
        table[workload] = {
            "shipped_seeds": chosen[:-1],
            "held_out_seed": chosen[-1],
            "digests": {str(s): digests[s] for s in chosen},
            "candidate_timings": {
                str(s): {"campaign_s": round(c, 4), "trial_s": round(t, 4)}
                for s, (c, t) in timings.items()},
        }
    with open(path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
