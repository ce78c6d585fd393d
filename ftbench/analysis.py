"""Metric arithmetic for the ftnav benchmark (no I/O beyond reading files).

run.py drives the ftbench binary and hands its output here:

* run records: one dict per scenario run, as the binary prints them
  (pass, scenario, seed, campaign_s, trial_s, trials, cpu_s, result,
  optional error);
* a Chrome trace (trace.<pid>.json) whose probe spans are named after
  the per-layer metric they feed, with an integer arg "calls", and which
  holds the campaign's own "shard" spans (category "campaign") of the
  traced pass.
"""

import hashlib
import re
import statistics

# (name, unit, better) for every metric the benchmark emits. BENCHMARK.json
# lists the same names; test_analysis.py keeps the two in step.
END_TO_END = [
    ("campaign_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-call timings: the probe span of the same name, median per call.
TIMED_SPANS = [
    "experiments.train_drone_policy_s",
    "rl.mlp_episode_us",
    "rl.mlp_episode_stuck_us",
    "rl.dqn_episode_ms",
    "fixed.requantize_us",
    "core.fault_sample_us",
    "core.stuck_apply_us",
    "nn.mlp_fwd_us",
    "nn.mlp_bwd_us",
    "nn.c3f2_fwd_ms",
    "nn.c3f2_bwd_ms",
    "nn.engine_build_ms.mlp",
    "nn.engine_inject_us.mlp",
    "nn.engine_reset_us.mlp",
    "nn.engine_act_us.mlp",
    "nn.engine_build_ms.c3f2",
    "nn.engine_inject_us.c3f2",
    "nn.engine_reset_us.c3f2",
    "nn.engine_act_us.c3f2",
    "envs.grid_step_ns",
    "envs.drone_step_us",
    "envs.drone_observe_us",
]

_UNIT_SCALE = {"s": 1e-6, "ms": 1e-3, "us": 1.0, "ns": 1e3}  # from trace us
_UNIT_RE = re.compile(r"_(s|ms|us|ns)(?:\.|$)")


def unit_of(name):
    """Time unit encoded in a metric name's suffix (`_ms`, `_us`, ...)."""
    match = _UNIT_RE.search(name)
    if match is None:
        raise ValueError(f"no time unit in metric name {name!r}")
    return match.group(1)


def _per_layer_table():
    table = [
        ("experiments.trial_phase_s", "s", "lower"),
        ("experiments.trial_phase_s.calls", "count", "higher"),
    ]
    for name in TIMED_SPANS:
        table.append((name, unit_of(name), "lower"))
        table.append((name + ".calls", "count", "higher"))
    table += [
        ("campaign.shards", "count", "higher"),
        ("campaign.shard_busy_s", "s", "lower"),
        ("campaign.shard_max_s", "s", "lower"),
        ("campaign.parallel_eff", "ratio", "higher"),
        ("fixed.requantize_useful_frac", "ratio", "higher"),
        ("nn.kernel_conv_macs", "count", "lower"),
        ("nn.kernel_conv_gmac_s", "GMAC/s", "higher"),
        ("nn.kernel_conv_gmac_s.calls", "count", "higher"),
        ("obs.trace_overhead_frac", "ratio", "lower"),
    ]
    return table


PER_LAYER = _per_layer_table()


# ---- correctness -----------------------------------------------------------


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def digest_file(path):
    with open(path, "rb") as handle:
        return digest_bytes(handle.read())


def run_failed(run, expected_digest):
    """True when a scenario run threw, wrote no result, or its result
    bytes do not hash to the recorded digest."""
    if run.get("error") or not run.get("result"):
        return True
    if expected_digest is None:
        return True
    return digest_file(run["result"]) != expected_digest


def count_failed(runs, digests):
    """Failed runs among `runs`; digests maps a seed (as a string) to
    {scenario: recorded digest}. A run without a recorded digest is
    unverifiable and counts as failed."""
    return sum(
        run_failed(run, digests.get(str(run["seed"]), {}).get(run["scenario"]))
        for run in runs)


# ---- end-to-end ------------------------------------------------------------


def setup_seconds(run):
    """campaign_s minus the trial phase: the time outside the scenario's
    measured trial section. A scenario without a section counts entirely
    as trial phase, leaving only the front-door binding."""
    return run["campaign_s"] - run["trial_s"]


def group_passes(runs):
    """Runs grouped by pass label, in first-seen order."""
    passes = {}
    for run in runs:
        passes.setdefault(run["pass"], []).append(run)
    return list(passes.values())


def end_to_end(runs, peak_rss_mb):
    """End-to-end metrics of one timed invocation. Per-pass sums (a pass
    runs each of the workload's scenarios once) reported as the median
    over passes; trials_per_s is total trials over total trial phase."""
    passes = group_passes(runs)
    trial_seconds = sum(run["trial_s"] for run in runs)
    return {
        "campaign_s": statistics.median(
            sum(run["campaign_s"] for run in p) for p in passes),
        "setup_s": statistics.median(
            sum(setup_seconds(run) for run in p) for p in passes),
        "trials_per_s": (sum(run["trials"] for run in runs) / trial_seconds
                         if trial_seconds > 0 else 0.0),  # all runs threw
        "cpu_s": statistics.median(
            sum(run["cpu_s"] for run in p) for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


# ---- trace -----------------------------------------------------------------


def spans(events):
    """Completed spans from B/E events, which must be in record order per
    thread: dicts with name, cat, tid, start_us, dur_us, self_us, calls. Spans
    nest per thread; a span's self time is its duration minus the time
    its direct children cover."""
    stacks = {}
    done = []
    # The recorder writes each thread's events in record order.
    for event in (e for e in events if e["ph"] in "BE"):
        stack = stacks.setdefault(event["tid"], [])
        if event["ph"] == "B":
            stack.append({
                "name": event["name"],
                "cat": event.get("cat", ""),
                "tid": event["tid"],
                "start_us": event["ts"],
                "calls": event.get("args", {}).get("calls", 1),
                "child_us": 0.0,
            })
            continue
        if not stack or stack[-1]["name"] != event["name"]:
            raise ValueError(f"unbalanced trace span end: {event['name']}")
        span = stack.pop()
        span["dur_us"] = event["ts"] - span["start_us"]
        span["self_us"] = span["dur_us"] - span.pop("child_us")
        if stack:
            stack[-1]["child_us"] += span["dur_us"]
        done.append(span)
    return done


def self_times(all_spans):
    """Per span name: count, inclusive seconds and self seconds."""
    table = {}
    for span in all_spans:
        row = table.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span["dur_us"] * 1e-6
        row["self_s"] += span["self_us"] * 1e-6
    return table


def instant_counts(events):
    """Sum of each instant event's single arg, by name."""
    counts = {}
    for event in events:
        if event["ph"] == "i" and event.get("args"):
            (value,) = event["args"].values()
            counts[event["name"]] = counts.get(event["name"], 0) + value
    return counts


def median_per_call_us(named_spans):
    return statistics.median(s["dur_us"] / s["calls"] for s in named_spans)


def parallel_efficiency(busy_s, trial_phase_s, threads):
    """Shard busy time over the trial phase's thread capacity."""
    return busy_s / (trial_phase_s * threads)


def trace_overhead(untraced_passes, traced_runs):
    """Traced minus untraced campaign_s, over untraced, where untraced is
    the mean over the untraced passes (lists of runs) that bracket the
    traced one."""
    untraced = statistics.mean(
        sum(run["campaign_s"] for run in p) for p in untraced_passes)
    traced = sum(run["campaign_s"] for run in traced_runs)
    return (traced - untraced) / untraced


def campaign_shards(all_spans, traced_runs):
    """The campaign's "shard" spans that overlap a traced scenario run's
    trial phase, taken as the last trial_s of its experiments.scenario_run
    span (a scenario's perf section ends just before run() returns). That
    leaves out the shards of a scenario's setup (drone-environments
    trains its policies as shards) and any a probe ran."""
    runs = sorted((s for s in all_spans
                   if s["name"] == "experiments.scenario_run"),
                  key=lambda s: s["start_us"])
    if len(runs) != len(traced_runs):
        raise ValueError(f"{len(runs)} scenario_run spans for "
                         f"{len(traced_runs)} traced runs")
    windows = [(span["start_us"] + span["dur_us"] - run["trial_s"] * 1e6,
                span["start_us"] + span["dur_us"])
               for span, run in zip(runs, traced_runs)]
    return [s for s in all_spans
            if s["name"] == "shard" and s["cat"] == "campaign"
            and any(s["start_us"] < end and s["start_us"] + s["dur_us"] > begin
                    for begin, end in windows)]


def per_layer(events, untraced_passes, traced_runs, threads):
    """Every PER_LAYER metric from one traced invocation."""
    all_spans = spans(events)
    by_name = {}
    for span in all_spans:
        by_name.setdefault(span["name"], []).append(span)
    counts = instant_counts(events)
    trial_phase_s = sum(run["trial_s"] for run in traced_runs)
    shard_seconds = [s["dur_us"] * 1e-6
                     for s in campaign_shards(all_spans, traced_runs)]
    busy_s = sum(shard_seconds)

    metrics = {
        "experiments.trial_phase_s": statistics.median(
            run["trial_s"] for run in traced_runs),
        "experiments.trial_phase_s.calls": len(traced_runs),
    }
    for name in TIMED_SPANS:
        named = by_name.get(name)
        if not named:
            raise ValueError(f"trace has no {name} spans")
        scale = _UNIT_SCALE[unit_of(name)]
        metrics[name] = median_per_call_us(named) * scale
        metrics[name + ".calls"] = sum(s["calls"] for s in named)
    conv = by_name.get("nn.kernel_conv")
    if not conv:
        raise ValueError("trace has no nn.kernel_conv spans")
    macs = counts["nn.kernel_conv_macs"]
    metrics.update({
        "campaign.shards": len(shard_seconds),
        "campaign.shard_busy_s": busy_s,
        "campaign.shard_max_s": max(shard_seconds, default=0.0),
        "campaign.parallel_eff": parallel_efficiency(
            busy_s, trial_phase_s, threads),
        "fixed.requantize_useful_frac": (
            counts["fixed.requantize_changed_words"]
            / counts["fixed.requantize_encoded_words"]),
        "nn.kernel_conv_macs": macs,
        "nn.kernel_conv_gmac_s": macs / (median_per_call_us(conv) * 1e3),
        "nn.kernel_conv_gmac_s.calls": sum(s["calls"] for s in conv),
        "obs.trace_overhead_frac": trace_overhead(untraced_passes,
                                                  traced_runs),
    })
    return metrics
