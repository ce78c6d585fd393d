#!/usr/bin/env python3
"""Perf-trajectory gate: fail CI when throughput regresses.

Compares candidate BENCH_*.json perf records (written by the benches
when FTNAV_PERF_DIR is set; see bench/bench_common.h PerfRecorder)
against the committed baselines in bench/baselines/, section by
section on trials_per_sec. A section slower than the baseline by more
than --max-regression fails the gate; faster is always fine (runner
classes vary, and the committed baselines intentionally come from
modest hardware so only genuine slowdowns trip the gate).

Sections whose *baseline* wall clock is below --min-seconds are
reported but never gate: timing noise on sub-100ms sections would
otherwise dwarf any real regression.

A candidate record must have run with its baseline's thread count
(every baseline runs at FTNAV_THREADS=2): throughput at another count
is not comparable, so a mismatch fails the gate.

Candidate records or sections with no committed baseline are reported
(with the exact refresh one-liner each record embeds) so new benches
cannot silently run ungated.

Refresh the baselines after an intentional perf change (one line per
bench, from the repo root, Release build):

    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 FTNAV_REPEATS=600 \
        ./build/bench/bench_fig5_inference
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 FTNAV_FULL=1 \
        ./build/bench/bench_overhead_micro
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig7a_drone_training
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig7b_environments
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig7c_fault_locations
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig7d_layer_sensitivity
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig7e_data_types
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_ablation_mitigations
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig2_training_heatmaps
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig4_convergence
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig8_mitigated_training
    FTNAV_PERF_DIR=bench/baselines FTNAV_THREADS=2 \
        ./build/bench/bench_fig10_anomaly_detection

then commit the rewritten bench/baselines/BENCH_*.json. The fig7b line
refreshes both of its rows: drone_env_trials (the rollout grid) and
drone_env_policy_training (the C3F2 policy training before it, one
"trial" per trained policy).
"""

import argparse
import json
import os
import sys
from pathlib import Path


def load_records(directory: Path) -> dict:
    """{artifact name: parsed record} for every BENCH_*.json in directory."""
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        records[record.get("artifact", path.stem)] = record
    return records


def sections_by_name(record: dict) -> dict:
    return {s["name"]: s for s in record.get("sections", [])}


def load_cost_predictions(candidate_dir: Path) -> dict:
    """{campaign label: predicted trials/sec} from an optional
    cost_report.json next to the candidate records (written by
    `fault_campaign describe --all --cost --json`; see src/cost/).
    Campaign labels reuse perf-section names where one exists, so the
    join is a plain name match. Absent or unreadable file = {} and the
    predicted column is omitted. Informational only: predictions never
    gate."""
    path = candidate_dir / "cost_report.json"
    if not path.is_file():
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"perf gate: ignoring unreadable {path}: {error}",
              file=sys.stderr)
        return {}
    predictions = {}
    for scenario in doc.get("scenarios", []):
        for campaign in scenario.get("campaigns", []):
            label = campaign.get("label")
            predicted = campaign.get("predicted_trials_per_sec")
            if isinstance(label, str) and isinstance(predicted, (int, float)):
                predictions[label] = float(predicted)
    return predictions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baselines",
                        help="directory of committed baseline records")
    parser.add_argument("--candidate", default="perf-json",
                        help="directory of this run's records")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fail when trials/sec drops by more than "
                             "this fraction (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.1,
                        help="baseline sections shorter than this are "
                             "informational only (default 0.1)")
    args = parser.parse_args()

    baseline_dir = Path(args.baseline)
    candidate_dir = Path(args.candidate)
    if not baseline_dir.is_dir() or not any(baseline_dir.glob("BENCH_*.json")):
        print(f"perf gate: no baselines under {baseline_dir} -- skipping "
              "(commit bench/baselines/BENCH_*.json to arm the gate)")
        return 0
    if not candidate_dir.is_dir():
        print(f"perf gate: candidate directory {candidate_dir} missing -- "
              "the bench step did not produce perf records", file=sys.stderr)
        return 1

    baselines = load_records(baseline_dir)
    candidates = load_records(candidate_dir)
    predictions = load_cost_predictions(candidate_dir)

    rows = []
    failures = []
    for artifact, base_record in sorted(baselines.items()):
        cand_record = candidates.get(artifact)
        if cand_record is None:
            failures.append(f"{artifact}: no candidate record "
                            f"(expected {candidate_dir}/BENCH_{artifact}.json)")
            continue
        if cand_record.get("threads") != base_record.get("threads"):
            failures.append(
                f"{artifact}: candidate ran with threads="
                f"{cand_record.get('threads')}, baseline with threads="
                f"{base_record.get('threads')} (rerun with FTNAV_THREADS="
                f"{base_record.get('threads')})")
            continue
        cand_sections = sections_by_name(cand_record)
        for name, base in sections_by_name(base_record).items():
            cand = cand_sections.get(name)
            if cand is None:
                failures.append(f"{artifact}/{name}: section missing from "
                                "candidate record")
                continue
            base_tps = float(base["trials_per_sec"])
            cand_tps = float(cand["trials_per_sec"])
            ratio = cand_tps / base_tps if base_tps > 0 else float("inf")
            gated = float(base["wall_seconds"]) >= args.min_seconds
            status = "ok"
            if not gated:
                status = "info"
            elif ratio < 1.0 - args.max_regression:
                status = "FAIL"
                failures.append(
                    f"{artifact}/{name}: {cand_tps:.0f} trials/sec is "
                    f"{(1.0 - ratio) * 100.0:.1f}% below the baseline "
                    f"{base_tps:.0f} (allowed {args.max_regression * 100:.0f}%)")
            rows.append((f"{artifact}/{name}", base_tps, cand_tps, ratio,
                         predictions.get(name), status))

    # Candidate records/sections with no committed baseline: not a
    # failure (the gate can't compare against nothing), but say exactly
    # how to create one instead of staying silent.
    unbaselined = []
    for artifact, cand_record in sorted(candidates.items()):
        base_record = baselines.get(artifact)
        missing = (sections_by_name(cand_record).keys()
                   if base_record is None
                   else sections_by_name(cand_record).keys()
                   - sections_by_name(base_record).keys())
        if not missing:
            continue
        refresh = cand_record.get(
            "refresh_command",
            f"FTNAV_PERF_DIR=bench/baselines ./build/bench/<{artifact} bench>")
        what = ("no baseline record" if base_record is None else
                "section(s) " + ", ".join(sorted(missing)) +
                " missing from baseline")
        unbaselined.append(
            f"{artifact}: {what} -- create it with:\n      {refresh}\n"
            f"    then commit bench/baselines/BENCH_{artifact}.json")
    if unbaselined:
        print("\nperf gate: candidate records without baselines "
              "(informational):")
        for note in unbaselined:
            print(f"  {note}")

    # The predicted column (cost-model trials/sec with the measured/
    # predicted ratio) only renders when a cost_report.json rode along
    # with the candidate records; it is informational and never gates.
    with_predictions = bool(predictions)
    header = (f"| section | baseline trials/s | candidate trials/s "
              f"| ratio |"
              + (" predicted trials/s |" if with_predictions else "")
              + " status |")
    rule = "|---|---|---|---|" + ("---|" if with_predictions else "") + "---|"
    lines = [header, rule]
    for name, base_tps, cand_tps, ratio, predicted, status in rows:
        predicted_cell = ""
        if with_predictions:
            if predicted is not None and predicted > 0:
                predicted_cell = (f" {predicted:.0f} "
                                  f"({cand_tps / predicted:.2f}x measured) |")
            else:
                predicted_cell = " - |"
        lines.append(f"| {name} | {base_tps:.0f} | {cand_tps:.0f} "
                     f"| {ratio:.2f}x |{predicted_cell} {status} |")
    table = "\n".join(lines)
    print(table)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write("## Perf trajectory\n\n" + table + "\n")
            if failures:
                summary.write("\n**Regressions:**\n")
                for failure in failures:
                    summary.write(f"- {failure}\n")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nIf this slowdown is intentional, refresh the baselines "
              "(see this script's docstring).", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
