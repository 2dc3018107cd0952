#!/usr/bin/env python3
"""Self-test of the benchmark harness, at a tiny run count (about 20 s).

    python3 perfbench/selftest.py

Checks the metric-name grammar, the self-time arithmetic of the tracer,
that BENCHMARK.json lists exactly what the harness prints, and, on one-run
campaigns of the real program, that the traced run is transparent and that
the analog-only workload never reaches the digital canceller.
"""

import json
import re
import shutil
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench                                                    # noqa: E402
from tracer import Tracer, layer_totals, self_times            # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class MetricNames(unittest.TestCase):
    def test_names_and_units_follow_the_grammar(self):
        self.assertFalse(set(bench.END_TO_END) & set(bench.per_layer_specs()))
        specs = {**bench.END_TO_END, **bench.per_layer_specs()}
        for name, (unit, better) in specs.items():
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(UNIT.fullmatch(unit), unit)
            self.assertIn(better, ("higher", "lower"))

    def test_benchmark_json_lists_what_the_harness_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))
        for key, specs in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.per_layer_specs())):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(listed, specs)


class SelfTime(unittest.TestCase):
    def test_parent_minus_children(self):
        # clock readings in call order: outer, a, /a, b, c, /c, /b, /outer
        ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        box = types.SimpleNamespace(
            a=lambda: None, c=lambda: None,
            b=lambda: box.c(), outer=lambda: (box.a(), box.b()))
        originals = dict(vars(box))
        targets = [(box, f, f, None, f == "outer") for f in originals]
        with tracer.installed(targets):
            box.outer()
        self.assertTrue(tracer.restored())
        self.assertEqual(dict(vars(box)), originals)
        by_name = {s[0]: own for s, own in zip(tracer.spans,
                                               self_times(tracer.spans))}
        self.assertEqual(by_name, {"outer": 4.0, "a": 2.0, "b": 3.0, "c": 1.0})
        self.assertEqual(sum(by_name.values()), 10.0)
        self.assertEqual(layer_totals(tracer.spans)["b"], (1, 3.0))
        self.assertEqual({s[4] for s in tracer.spans}, {1})

    def test_restores_after_an_exception(self):
        box = types.SimpleNamespace(f=lambda: 1 / 0)
        original = box.f
        tracer = Tracer()
        with self.assertRaises(ZeroDivisionError):
            with tracer.installed([(box, "f", "f", None, True)]):
                box.f()
        self.assertIs(box.f, original)
        self.assertGreaterEqual(tracer.spans[0][2], tracer.spans[0][1])


class TinyCampaigns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fdlink = bench.import_fdlink()
        bench.OUT.mkdir(exist_ok=True)
        cls.work = bench.OUT / "selftest"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def traced(self, workload):
        b = bench.Bench(self.fdlink, workload, 7, self.work / workload, runs=1)
        result, _ = b.measure_traced(self.fdlink)
        self.assertEqual(b.problems, [])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(bench.per_layer_specs()))
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_analog_workload_never_reaches_the_digital_canceller(self):
        m = self.traced("wifi20-analog-taps")
        digital = {k: v for k, v in m.items()
                   if k.startswith("digital_canceller.")}
        self.assertTrue(digital)
        self.assertTrue(all(v == 0 for v in digital.values()), digital)
        self.assertEqual(m["simulator.run_frame.calls_per_frame"], 1.0)
        self.assertEqual(m["beamforming.solve_dl.calls_per_frame"], 1.0)

    def test_full_frame_self_times_add_up_to_the_frame(self):
        m = self.traced("wifi20-full")
        in_frame = sum(m[f"{mod}.{fn}.self_ms_per_frame"]
                       for mod, fn in bench.FRAME_LAYERS)
        self.assertAlmostEqual(in_frame, m["trace.frame_ms"], delta=1e-6)
        self.assertEqual(m["digital_canceller.tsvd_estimate.calls_per_frame"],
                         2.0)
        self.assertGreater(m["numerics.svd.gflop_per_frame"], 0)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        b = bench.Bench(self.fdlink, "wifi20-full", 7, self.work / "e2e",
                        runs=1)
        result, details = b.measure(seconds=0)
        self.assertTrue(result["correct"], b.problems)
        self.assertEqual(len(details["campaign_wall_s"]), 2)
        self.assertEqual(set(result["metrics"]), set(bench.END_TO_END))
        self.assertEqual(result["metrics"]["completed_frac"]["value"], 1.0)
        self.assertEqual(details["campaign_frames"], [3, 3])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
