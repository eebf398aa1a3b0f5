"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests -t .
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from binauralkit import dsp, geometry, interpolation, mixer  # noqa: E402
from binauralkit.interpolation import InterpolationPlan  # noqa: E402

from bench import checks, hostspeed, inputs, workloads  # noqa: E402
from bench.checks import CheckFailed  # noqa: E402
from bench.tracer import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="bench-test-"))
        self.addCleanup(shutil.rmtree, self.tmp, True)
        self.paths = inputs.Paths(self.tmp)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, -1, 1),
            Span("a", 1.0, 4.0, 0, 1),
            Span("b", 3.0, 6.0, 0, 1),     # overlaps a: the union counts once
            Span("a.x", 2.0, 3.0, 1, 1),
            Span("c", 8.0, 12.0, 0, 1),    # runs past its parent: clipped
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 1.0, 4.0])

    def test_sequential_children(self):
        spans = [Span("p", 0.0, 5.0, -1, None), Span("c", 0.5, 1.5, 0, None),
                 Span("c", 2.0, 2.25, 0, None)]
        self.assertAlmostEqual(self_times(spans)[0], 3.75)


class HostSpeedTest(unittest.TestCase):
    def test_rescale_uses_the_kernel_times_around_each_unit(self):
        ref = hostspeed.REF_S
        np.testing.assert_allclose(hostspeed.rescale([1.0, 2.0], [ref, ref, 3 * ref]),
                                   [1.0, 1.0])
        with self.assertRaises(ValueError):
            hostspeed.rescale([1.0], [ref])

    def test_sample_times_the_kernel(self):
        self.assertGreater(hostspeed.sample(), 0.0)


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        originals = (dsp.fft_convolve, mixer.fft_convolve, interpolation.plan, dsp.plan)
        ir = inputs.sparse_ir_set(3)
        t = Tracer()
        t.request = "r"
        t.install()
        try:
            self.assertIsNot(mixer.fft_convolve, originals[1])
            self.assertIs(mixer.fft_convolve, dsp.fft_convolve)
            p = interpolation.plan(ir, geometry.normalize_direction(10.0, 5.0), "three_point")
            dsp.fft_convolve(np.ones(100), np.ones(8))
        finally:
            t.uninstall()
        self.assertEqual((dsp.fft_convolve, mixer.fft_convolve, interpolation.plan, dsp.plan),
                         originals)
        names = [s.name for s in t.spans]
        self.assertEqual(names[0], "interpolation.plan")
        self.assertIn("geometry.triangulate", names)
        self.assertIn("geometry.locate", names)
        for s in t.spans[1:-1]:
            parent = t.spans[s.parent].name if s.parent >= 0 else None
            want = "geometry.locate" if s.name == "geometry.frame" else "interpolation.plan"
            self.assertEqual(parent, want, s.name)
        self.assertEqual(t.spans[-1].parent, -1)
        m = t.metrics()
        self.assertEqual(m["interpolation.plan_calls"], 1)
        self.assertEqual(m["dsp.convolve_macs"], 800)
        self.assertEqual(m["geometry.triangulate_points"], 50)
        self.assertGreater(m["interpolation.plan_s.three_point"], 0.0)
        self.assertEqual(len(p.entries), 3)
        names = {x["name"] for x in SPEC["per_layer"]}
        self.assertEqual(set(m) | {"dataset.scaling_eff", "trace.overhead_frac"}, names)


class PlanCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ir = inputs.sparse_ir_set(5)
        cls.checker = checks.PlanChecker(cls.ir.directions)

    def _plan(self, az, el):
        q = geometry.normalize_direction(az, el)
        p = interpolation.plan(self.ir, q, "three_point")
        enc = geometry.find_enclosing_triangle(self.ir.triangulation, q)
        return q, p, (enc.rotated_azimuth, enc.rotated_elevation)

    def test_library_plans_pass(self):
        for az, el in ((12.0, 7.0), (359.0, -40.0), (100.0, 88.0), (200.0, -89.0)):
            q, p, frame = self._plan(az, el)
            self.checker.check(q, p, frame)

    def test_perturbed_weight_fails(self):
        q, p, frame = self._plan(12.0, 7.0)
        (i, w), *rest = p.entries
        bad = dataclasses.replace(p, entries=((i, w + 1e-9), *rest))
        with self.assertRaisesRegex(CheckFailed, "sum"):
            self.checker.check(q, bad, frame)
        neg = dataclasses.replace(p, entries=((i, -w), *rest))
        with self.assertRaisesRegex(CheckFailed, "negative"):
            self.checker.check(q, neg, frame)

    def test_wrong_triangle_or_missed_snap_fails(self):
        q, p, frame = self._plan(12.0, 7.0)
        far = [k for k in range(len(self.ir.points)) if k not in dict(p.entries)][:3]
        moved = dataclasses.replace(p, entries=tuple((k, 1 / 3) for k in far))
        with self.assertRaisesRegex(CheckFailed, "enclose"):
            self.checker.check(q, moved, frame)
        stored = self.ir.directions[4]
        unsnapped = InterpolationPlan(p.mode_used, p.entries, stored, 0.0)
        with self.assertRaisesRegex(CheckFailed, "snap"):
            self.checker.check(stored, unsnapped)


class DatasetFaultTest(WorkDir):
    def _workload(self, **axes):
        inputs.write_dataset_inputs(self.paths, 4)
        w = workloads.DatasetGrid(self.paths, 4)
        w.setup()
        small = dict(w.grid.axes, azimuth=w.grid.axes["azimuth"][:2], elevation=(0.0,), **axes)
        w.grid = dataclasses.replace(w.grid, axes=small)
        return w

    def test_reference_passes_then_fails_on_perturbed_convolution(self):
        w = self._workload()
        out, report, _ = w._grid_run(1, "ok")
        w.check_reference(out, report)

        real = dsp.fft_convolve

        def perturbed(x, h):
            return real(x, h) + 1e-5

        with mock.patch.object(dsp, "fft_convolve", perturbed), \
                mock.patch.object(mixer, "fft_convolve", perturbed):
            out, report, _ = w._grid_run(1, "bad")
        with self.assertRaisesRegex(CheckFailed, "PCM24 quantum"):
            w.check_reference(out, report)

    def test_failing_job_counts_as_failed(self):
        w = self._workload(source=(self.paths.source.name, "missing.wav"))
        o = workloads.Outcome()
        out, report, _ = w._grid_run(1, "f")
        w._account(o, out, report, [])
        self.assertEqual(o.attempted, w.grid.job_count)
        self.assertEqual(o.failed, w.grid.job_count // 2)
        self.assertTrue(o.errors)

    def test_warm_cache_is_refused(self):
        w = self._workload()
        fake = mock.Mock()
        fake.cache_info.return_value.currsize = 1
        with self.assertRaisesRegex(CheckFailed, "warm"):
            workloads.start_cold(w.caches + [("fake", fake)])
        self.assertIn("binauralkit.dataset._cached_ir_set", [n for n, _ in w.caches])


class SurroundFaultTest(WorkDir):
    def test_failing_request_counts_and_bad_output_fails(self):
        inputs.write_surround_inputs(self.paths, 6)
        w = workloads.SurroundRender(self.paths, 6)
        w.setup()
        o = workloads.Outcome()
        w.measure(0.0, o, min_cycles=2)
        self.assertEqual((o.attempted, o.failed, o.errors), (4, 0, []))
        first = w._out("upmix", 0)
        rate, x = checks.decode_wav(first)
        from binauralkit.wavio import write_wav
        x[1000, 0] += 3 * checks.PCM24_QUANTUM
        write_wav(first, rate, x)
        with self.assertRaisesRegex(CheckFailed, "upmix output"):
            w.check_outputs(False)
        self.paths.scene.write_text("{}")
        with contextlib.redirect_stderr(io.StringIO()):
            w._request("mix", self.tmp / "x.wav", o)
        self.assertEqual(o.failed, 1)


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs(self):
        self.assertNotEqual(inputs.dataset_azimuths(1), inputs.dataset_azimuths(2))
        self.assertEqual(inputs.dataset_azimuths(1), inputs.dataset_azimuths(1))
        self.assertNotEqual(inputs.query_directions(1, 5), inputs.query_directions(2, 5))
        a, b = inputs.dense_ir_set(1), inputs.dense_ir_set(2)
        self.assertEqual(a.directions, b.directions)
        self.assertFalse(np.array_equal(a.points[0].left, b.points[0].left))

    def test_seed_changes_no_metric_names(self):
        want = [m["name"] for m in SPEC["end_to_end"]]
        for seed in ("1", "2"):
            proc = run_bench("--workload", "dense_plan", "--seed", seed, "--seconds", "0.3")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), want)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "bench", Path(d) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "dense_plan", "--seed", "1", "--seconds", "1",
                             cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
