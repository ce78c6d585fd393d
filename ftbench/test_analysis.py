"""Tests of the benchmark's own arithmetic and data files.

    python3 -m unittest discover -s ftbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import analysis
import run


def run_record(pass_label, campaign_s, trial_s, trials=10, cpu_s=1.0,
               scenario="s", result="", error=None):
    record = {"kind": "run", "pass": pass_label, "scenario": scenario,
              "seed": 7, "campaign_s": campaign_s, "trial_s": trial_s,
              "trials": trials, "cpu_s": cpu_s, "result": result}
    if error:
        record["error"] = error
    return record


def span_events(tid, spans, cat="probe"):
    """B/E events in record order for (name, start_us, end_us, calls)
    tuples listed in begin order; nesting follows the intervals."""
    events = []
    open_spans = []

    def close():
        name, _, end = open_spans.pop()
        events.append({"name": name, "cat": cat, "ph": "E", "tid": tid,
                       "ts": end})

    for name, start, end, calls in spans:
        while open_spans and open_spans[-1][2] <= start:
            close()
        events.append({"name": name, "cat": cat, "ph": "B", "tid": tid,
                       "ts": start, "args": {"calls": calls}})
        open_spans.append((name, start, end))
    while open_spans:
        close()
    return events


def instant(name, count):
    return {"name": name, "ph": "i", "tid": 1, "ts": 0.0,
            "args": {"count": count}}


def full_probe_trace():
    """A synthetic trace of a traced pass followed by every probe span and
    count. The pass is one 2.2 s scenario run whose 1.6 s trial phase ran
    shards of 1.0 and 1.4 s on two worker threads, after a setup shard;
    one probe runs a shard of its own."""
    run = span_events(1, [("experiments.scenario_run", 0.0, 2.2e6, 1)],
                      cat="ftbench")
    shards = (span_events(2, [("shard", 1e5, 5e5, 1),
                              ("shard", 7e5, 1.7e6, 1)], cat="campaign") +
              span_events(3, [("shard", 7.5e5, 2.15e6, 1)], cat="campaign"))
    spans = []
    t = 4e6
    for name in analysis.TIMED_SPANS + ["nn.kernel_conv"]:
        for calls in (1, 4):
            spans.append((name, t, t + 8.0 * calls, calls))
            t += 10.0 * calls
    probe_shard = span_events(2, [("shard", t, t + 5e6, 1)], cat="campaign")
    return run + shards + span_events(1, spans) + probe_shard + [
        instant("fixed.requantize_changed_words", 290),
        instant("fixed.requantize_encoded_words", 5044),
        instant("nn.kernel_conv_macs", 2_000_000),
    ]


class EndToEndTest(unittest.TestCase):
    def test_setup_is_campaign_minus_trial_phase(self):
        self.assertAlmostEqual(
            analysis.setup_seconds(run_record("0", 5.0, 2.0)), 3.0)

    def test_pass_sums_then_median_over_passes(self):
        runs = [
            run_record("0", 4.0, 1.0, trials=100, cpu_s=7.0),
            run_record("0", 2.0, 2.0, trials=8, cpu_s=4.0),
            run_record("1", 3.0, 1.0, trials=100, cpu_s=5.0),
            run_record("1", 2.0, 2.0, trials=8, cpu_s=4.0),
            run_record("2", 9.0, 1.0, trials=100, cpu_s=9.0),
            run_record("2", 2.0, 2.0, trials=8, cpu_s=4.0),
        ]
        metrics = analysis.end_to_end(runs, peak_rss_mb=12.5)
        self.assertAlmostEqual(metrics["campaign_s"], 6.0)  # 6, 5, 11
        self.assertAlmostEqual(metrics["setup_s"], 3.0)     # 3, 2, 8
        self.assertAlmostEqual(metrics["cpu_s"], 11.0)      # 11, 9, 13
        self.assertAlmostEqual(metrics["trials_per_s"], 324 / 9.0)
        self.assertEqual(metrics["peak_rss_mb"], 12.5)

    def test_every_end_to_end_metric_is_emitted(self):
        metrics = analysis.end_to_end([run_record("0", 2.0, 1.0)], 1.0)
        self.assertEqual(set(metrics),
                         {name for name, _, _ in analysis.END_TO_END})


class TraceTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        events = span_events(7, [
            ("a", 0.0, 100.0, 1),
            ("b", 10.0, 40.0, 1),
            ("d", 20.0, 30.0, 1),
            ("c", 50.0, 60.0, 1),
        ])
        table = analysis.self_times(analysis.spans(events))
        self.assertAlmostEqual(table["a"]["self_s"], 60e-6)
        self.assertAlmostEqual(table["a"]["total_s"], 100e-6)
        self.assertAlmostEqual(table["b"]["self_s"], 20e-6)
        self.assertAlmostEqual(table["d"]["self_s"], 10e-6)
        self.assertAlmostEqual(table["c"]["self_s"], 10e-6)

    def test_threads_nest_independently(self):
        events = (span_events(1, [("outer", 0.0, 50.0, 1)]) +
                  span_events(2, [("shard", 10.0, 40.0, 1)]))
        table = analysis.self_times(analysis.spans(events))
        self.assertAlmostEqual(table["outer"]["self_s"], 50e-6)
        self.assertAlmostEqual(table["shard"]["self_s"], 30e-6)

    def test_unbalanced_trace_is_an_error(self):
        events = [{"name": "a", "ph": "B", "tid": 1, "ts": 0.0},
                  {"name": "b", "ph": "E", "tid": 1, "ts": 1.0}]
        with self.assertRaises(ValueError):
            analysis.spans(events)

    def test_parallel_efficiency(self):
        self.assertAlmostEqual(analysis.parallel_efficiency(3.0, 2.0, 2),
                               0.75)

    def test_per_layer_emits_every_metric(self):
        untraced = [[run_record("untraced-before", 2.1, 1.5)],
                    [run_record("untraced-after", 1.9, 1.5)]]
        traced = [run_record("traced", 2.2, 1.6)]
        metrics = analysis.per_layer(full_probe_trace(), untraced, traced,
                                     threads=2)
        self.assertEqual(set(metrics),
                         {name for name, _, _ in analysis.PER_LAYER})
        self.assertAlmostEqual(metrics["campaign.parallel_eff"],
                               2.4 / (1.6 * 2))
        self.assertAlmostEqual(metrics["campaign.shard_max_s"], 1.4)
        self.assertEqual(metrics["campaign.shards"], 2)
        # Traced 2.2 s against the mean of the bracketing 2.1 and 1.9 s.
        self.assertAlmostEqual(metrics["obs.trace_overhead_frac"], 0.1)
        self.assertAlmostEqual(metrics["fixed.requantize_useful_frac"],
                               290 / 5044)
        # Spans of 8 us per call: the unit comes from the name suffix.
        self.assertAlmostEqual(metrics["nn.mlp_fwd_us"], 8.0)
        self.assertAlmostEqual(metrics["nn.c3f2_fwd_ms"], 8e-3)
        self.assertAlmostEqual(metrics["envs.grid_step_ns"], 8e3)
        self.assertEqual(metrics["nn.mlp_fwd_us.calls"], 5)
        # 2e6 MACs per 8 us call.
        self.assertAlmostEqual(metrics["nn.kernel_conv_gmac_s"], 250.0)

    def test_missing_probe_is_an_error(self):
        events = [e for e in full_probe_trace()
                  if e["name"] != "rl.dqn_episode_ms"]
        with self.assertRaises(ValueError):
            analysis.per_layer(events, [[run_record("u", 1.0, 1.0)]],
                               [run_record("t", 1.0, 1.0)], threads=2)


class DigestTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "result-0.bin")
        self.payload = b"success rate (%)\n{\"cells\": [100, 50]}"
        with open(self.path, "wb") as handle:
            handle.write(self.payload)
        self.expected = analysis.digest_bytes(self.payload)

    def tearDown(self):
        self.dir.cleanup()

    def test_matching_result_passes(self):
        record = run_record("0", 1.0, 1.0, result=self.path)
        self.assertFalse(analysis.run_failed(record, self.expected))

    def test_one_perturbed_byte_fails(self):
        perturbed = bytearray(self.payload)
        perturbed[len(perturbed) // 2] ^= 0x01
        with open(self.path, "wb") as handle:
            handle.write(perturbed)
        record = run_record("0", 1.0, 1.0, result=self.path)
        self.assertTrue(analysis.run_failed(record, self.expected))
        self.assertEqual(
            analysis.count_failed([record], {"7": {"s": self.expected}}), 1)

    def test_thrown_or_unrecorded_runs_fail(self):
        thrown = run_record("0", 1.0, 1.0, error="boom")
        self.assertTrue(analysis.run_failed(thrown, self.expected))
        record = run_record("0", 1.0, 1.0, result=self.path)
        self.assertEqual(
            analysis.count_failed([record], {"7": {"s": self.expected}}), 0)
        self.assertEqual(
            analysis.count_failed([record], {"8": {"s": self.expected}}), 1)


class DataFilesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            cls.benchmark = json.load(handle)
        cls.digests = run.load_digests()

    def test_metric_tables_match_benchmark_json(self):
        for key, table in (("end_to_end", analysis.END_TO_END),
                           ("per_layer", analysis.PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in self.benchmark[key]]
            self.assertEqual(declared, table, key)

    def test_every_workload_has_digests_for_every_seed(self):
        names = {w["name"] for w in self.benchmark["workloads"]}
        self.assertEqual(names, set(self.digests))
        for workload, seeds in self.digests.items():
            recorded = seeds["shipped_seeds"] + [seeds["held_out_seed"]]
            self.assertEqual(set(seeds["digests"]),
                             {str(s) for s in recorded}, workload)
            scenario_sets = {frozenset(d) for d in seeds["digests"].values()}
            self.assertEqual(len(scenario_sets), 1, workload)

    def test_digests_depend_on_the_seed(self):
        # Identical bytes at every shipped seed would mean a scenario's
        # result no longer depends on the work it does (a saturated
        # table), and its digest would check nothing.
        for workload, seeds in self.digests.items():
            per_seed = [seeds["digests"][str(s)]
                        for s in seeds["shipped_seeds"]]
            for scenario in per_seed[0]:
                distinct = {d[scenario] for d in per_seed}
                self.assertGreater(len(distinct), 1, (workload, scenario))

    def test_seed_mapping(self):
        entry = {"shipped_seeds": [3, 5, 8], "held_out_seed": 40}
        self.assertEqual(run.scenario_seeds(40, entry), [40])
        self.assertEqual(run.scenario_seeds(7, entry), [5, 8, 3])
        self.assertEqual(run.scenario_seeds(0, entry), [3, 5, 8])


if __name__ == "__main__":
    unittest.main()
