"""The three closed-loop workloads: set-up, timed loop, traced run, checks.

Each workload runs in a fresh worker process (see worker.py). ``setup``
does what the process must do before its first timed operation; ``measure``
repeats one unit of work back to back, each operation awaited before the
next, for a given number of seconds; ``trace`` runs a fixed amount of the
same work with and without spans, so per-layer counts repeat exactly for a
seed.

On a shared host, other tenants slow every process by up to 2x for seconds
to minutes, which moves a median, and even the fastest repetition, by a
third or more between runs. Each workload therefore repeats an identical
unit (a grid run, a fifth of a pass over a fixed query set, a mix +
render-surround cycle), runs the host-speed kernel of hostspeed.py between
consecutive units, and takes its throughput from the median unit time in
reference seconds. Wall-clock medians, best times and percentiles go to the
run summary.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from binauralkit import cli, dataset, geometry, interpolation, ir_store

from . import checks, hostspeed, inputs
from .checks import CheckFailed, require

clock = time.perf_counter


def lru_caches() -> list:
    """Every module-level functools cache in the binauralkit package."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "binauralkit" or name.startswith("binauralkit."):
            for attr, value in vars(mod).items():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    found[id(value)] = (f"{name}.{attr}", value)
    return sorted(found.values(), key=lambda item: item[0])


def start_cold(caches) -> None:
    """Empty the package's caches, as a fresh CLI process would find them."""
    for name, fn in caches:
        fn.cache_clear()
        require(fn.cache_info().currsize == 0, f"cache {name} is still warm")


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def kernel_stats(kernel_s) -> dict:
    """Summary of the host-speed kernel times of a run, in ms."""
    return {"min": 1e3 * min(kernel_s), "median": 1e3 * statistics.median(kernel_s),
            "max": 1e3 * max(kernel_s), "samples": len(kernel_s)}


def alternate(unit, tracer) -> tuple[float, float]:
    """Run ``unit(traced)`` untraced, traced, untraced, traced, untraced.

    Returns the fastest untraced and the fastest traced seconds; the spans
    of both traced units stay in the tracer.
    """
    times = {False: [], True: []}
    for traced in (False, True, False, True, False):
        if traced:
            tracer.install()
        try:
            times[traced].append(unit(traced))
        finally:
            tracer.uninstall()
    return min(times[False]), min(times[True])


class Outcome:
    """Counts and check results shared by the workloads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.meta: dict = {}

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as e:
            self.errors.append(str(e))


# ---------------------------------------------------------------------------
# dataset_grid


class DatasetGrid:
    """run_dataset over a grid on lebedev50, with 1 and with 2 workers."""

    REFERENCE_JOBS = 4

    def __init__(self, paths: inputs.Paths, seed: int):
        self.paths, self.seed = paths, seed

    def setup(self) -> None:
        self.grid = dataset.parse_grid(self.paths.grid)
        self.caches = lru_caches()

    def _grid_run(self, workers: int, tag: str):
        out = self.paths.work / f"grid_{tag}"
        start_cold(self.caches)
        t0 = clock()
        report = dataset.run_dataset(self.grid, self.paths.data_root, out,
                                     jobs=workers, force=True)
        elapsed = clock() - t0
        return out, report, elapsed

    def _account(self, o: Outcome, out: Path, report, digests: list) -> None:
        o.attempted += len(report.rows)
        bad = [r for r in report.rows if r["status"] != "ok"]
        o.failed += len(bad)
        if bad:
            o.errors.append(f"{len(bad)} dataset rows failed, first: {bad[0]['error']}")
        files = [out / "manifest.tsv"] + [out / r["file"] for r in report.rows
                                          if r["status"] == "ok"]
        digests.append(checks.digest_files(files))
        o.meta["clipped_renders"] = o.meta.get("clipped_renders", 0) + sum(
            r["clipped"] == "1" for r in report.rows)

    def _require_identical(self, o: Outcome, digests: list) -> None:
        if len(set(digests)) != 1:
            o.errors.append(f"grid outputs differ between runs: {len(set(digests))} digests "
                            "over 1-worker, 2-worker and repeated runs")
        o.meta["output_sha256"] = digests[0]

    @staticmethod
    def _workers(run: int) -> int:
        """1, 2, 1, 1, 1, 2, 1, 1, 1, 2, ... workers."""
        return 2 if run % 4 == 1 else 1

    def measure(self, seconds: float, o: Outcome) -> dict:
        """Grid runs while the next one still fits in the time; the first
        run's outputs are checked against the reference after the loop."""
        runs = {1: [], 2: []}
        unit_s, kernel_s = [], [hostspeed.sample()]
        digests: list[str] = []
        start = clock()
        first = None
        while True:
            workers = self._workers(len(digests))
            out, report, elapsed = self._grid_run(workers, f"{len(digests)}_{workers}w")
            runs[workers].append(elapsed)
            unit_s.append(elapsed)
            kernel_s.append(hostspeed.sample())
            self._account(o, out, report, digests)
            if first is None:
                first = (out, report)
            else:
                shutil.rmtree(out)
            upcoming = self._workers(len(digests))
            guess = runs[upcoming][-1] if runs[upcoming] else elapsed / 2
            if len(digests) >= 3 and clock() - start + guess > seconds:
                break
        o.meta["peak_rss_mb"] = peak_rss_mb()
        o.check(self.check_reference, *first)
        self._require_identical(o, digests)
        jobs = self.grid.job_count
        ref = hostspeed.rescale(unit_s, kernel_s)
        one = [r for n, r in enumerate(ref) if self._workers(n) == 1]
        two = [r for n, r in enumerate(ref) if self._workers(n) == 2]
        o.meta.update(host_kernel_ms=kernel_stats(kernel_s), grid_s_1w=runs[1],
                      grid_s_2w=runs[2],
                      jobs_per_s_wall_median=jobs / float(np.median(runs[1])),
                      jobs_per_s_wall_best=jobs / min(runs[1]),
                      jobs_per_s_2w=jobs / float(np.median(two)),
                      scaling_eff=float(np.median(one)) / (2.0 * float(np.median(two))))
        o.meta["samples"] = {"ops_per_s": len(one), "jobs_per_s_2w": len(two)}
        return {"ops_per_s": jobs / float(np.median(one))}

    def trace(self, tracer, o: Outcome) -> dict:
        """Two traced 1-worker grid runs between untraced ones, then a
        2-worker run for the scaling efficiency."""
        digests: list[str] = []

        def unit(traced: bool, workers: int = 1) -> float:
            tag = f"{'traced' if traced else 'untraced'}{len(digests)}"
            tracer.request = tag
            out, report, elapsed = self._grid_run(workers, tag)
            self._account(o, out, report, digests)
            shutil.rmtree(out)
            return elapsed

        untraced, traced = alternate(unit, tracer)
        two = unit(False, workers=2)
        self._require_identical(o, digests)
        return {"dataset.scaling_eff": untraced / (2.0 * two),
                "trace.overhead_frac": traced / untraced - 1.0}

    def check_reference(self, out: Path, report) -> None:
        """Sampled jobs against plan -> numpy blend -> direct convolution."""
        ir = inputs.sparse_ir_set(self.seed)
        source = inputs.noise(self.seed, "source", inputs.DATASET_SOURCE_S,
                              inputs.DATASET_SOURCE_STD)
        reverb = checks.theatre_ir(inputs.RATE)
        ok = [k for k, r in enumerate(report.rows) if r["status"] == "ok"]
        pick = np.random.default_rng(self.seed).choice(
            ok, min(self.REFERENCE_JOBS, len(ok)), replace=False)
        decoded = []
        for k in sorted(int(i) for i in pick):
            row = report.rows[k]
            direction = geometry.normalize_direction(float(row["azimuth"]),
                                                     float(row["elevation"]))
            p = interpolation.plan(ir, direction, row["mode"])
            left, right = checks.blend_ref(ir.points, p.entries)
            dry = float(row["level"]) * source
            wet = checks.with_reverb(dry, float(row["reverb_amount"]), reverb)
            _, got = checks.decode_wav(out / row["file"])
            checks.require_pcm24_match(got, checks.binaural(wet, left, right),
                                       f"dataset job {k} ({row['file']})")
            decoded.append(got)
        self.sketch = checks.sketch(decoded)


# ---------------------------------------------------------------------------
# dense_plan


class DensePlan:
    """auto plan + blend per query over a 792-point set loaded from disk."""

    QUERIES = 1000  # a pass; p99 over it has 10 queries beyond
    CHUNK = 200  # queries per timed unit, so the host-speed kernel runs often
    # Pass k shifts every azimuth by k * JITTER_DEG, so a cache keyed on the
    # exact direction cannot turn repeated passes into hits.
    JITTER_DEG = 1e-4
    SKETCHED = 500

    def __init__(self, paths: inputs.Paths, seed: int):
        self.paths, self.seed = paths, seed

    def setup(self) -> None:
        self.ir = ir_store.load_ir_set(self.paths.data_root, inputs.SUBJECT_DENSE,
                                       "HRIR", inputs.RATE)
        tri = self.ir.triangulation
        for raz, rel in ((True, False), (False, True), (True, True)):
            geometry.rotated_frame(tri, raz, rel)

    def _pass(self, k: int, o: Outcome, kept: list | None = None,
              tracer=None, part: slice = slice(None)) -> np.ndarray:
        """Plan and blend the queries in ``part`` once; returns per-query
        seconds."""
        index = range(len(self.base))[part]
        qs = [geometry.normalize_direction(self.base[i].azimuth_deg + k * self.JITTER_DEG,
                                           self.base[i].elevation_deg) for i in index]
        lat = np.empty(len(qs))
        for j, (i, q) in enumerate(zip(index, qs)):
            if tracer is not None:
                tracer.request = (k, i)
            o.attempted += 1
            t0 = clock()
            try:
                p = interpolation.plan(self.ir, q, "auto")
                b = interpolation.blend(self.ir, p)
            except Exception as e:  # a failed query counts; the pass goes on
                o.failed += 1
                if len(o.errors) < 5:
                    o.errors.append(f"query ({q.azimuth_deg}, {q.elevation_deg}): {e!r}")
                p = b = None
            lat[j] = clock() - t0
            if kept is not None:
                kept.append((q, p, b if i < self.SKETCHED else None))
        return lat

    def measure(self, seconds: float, o: Outcome) -> dict:
        self.base = inputs.query_directions(self.seed, self.QUERIES)
        kept: list = []
        best = np.full(self.QUERIES, np.inf)
        parts = [slice(i, i + self.CHUNK) for i in range(0, self.QUERIES, self.CHUNK)]
        pass_s, unit_s, kernel_s = [], [], [hostspeed.sample()]
        start = clock()
        while len(pass_s) < 3 or clock() - start < seconds:
            k = len(pass_s)
            lat = np.empty(self.QUERIES)
            for part in parts:
                lat[part] = self._pass(k, o, kept if k == 0 else None, part=part)
                unit_s.append(float(lat[part].sum()))
                kernel_s.append(hostspeed.sample())
            pass_s.append(float(lat.sum()))
            np.minimum(best, lat, out=best)
        o.meta["peak_rss_mb"] = peak_rss_mb()
        o.check(self.check_plans, kept)
        us = 1e6 * best
        o.meta.update(passes=len(pass_s), queries_per_pass=self.QUERIES,
                      host_kernel_ms=kernel_stats(kernel_s),
                      queries_per_s_wall_median=self.QUERIES / float(np.median(pass_s)),
                      queries_per_s_wall_best=self.QUERIES / min(pass_s),
                      query_us_p50=percentile(us, 50), query_us_p90=percentile(us, 90),
                      query_us_p99=percentile(us, 99))
        o.meta["samples"] = {"ops_per_s": len(unit_s), "query_us_p99": self.QUERIES}
        ref = hostspeed.rescale(unit_s, kernel_s)
        return {"ops_per_s": self.CHUNK / float(np.median(ref))}

    def trace(self, tracer, o: Outcome) -> dict:
        """Two traced passes between untraced ones."""
        self.base = inputs.query_directions(self.seed, self.QUERIES)
        kept: list = []
        passes = iter(range(5))

        def unit(traced: bool) -> float:
            lat = self._pass(next(passes), o, kept if traced else None,
                             tracer if traced else None)
            return float(lat.sum())

        untraced, traced = alternate(unit, tracer)
        o.check(self.check_plans, kept)
        return {"trace.overhead_frac": traced / untraced - 1.0}

    def check_plans(self, kept) -> None:
        """Weights, snap and enclosure on every kept plan; blends and a sketch
        where a blend was kept."""
        checker = checks.PlanChecker(self.ir.directions)
        tri = self.ir.triangulation
        sketched = []
        for q, p, b in kept:
            if p is None:
                continue
            frame = None
            if len(p.entries) == 3:
                enc = geometry.find_enclosing_triangle(tri, q)
                require(sorted(enc.vertex_indices) == sorted(i for i, _ in p.entries),
                        f"3-point plan {p.entries} is not the enclosing triangle "
                        f"{enc.vertex_indices}")
                frame = (enc.rotated_azimuth, enc.rotated_elevation)
            checker.check(q, p, frame)
            if b is not None:
                left, right = checks.blend_ref(self.ir.points, p.entries)
                err = max(float(np.max(np.abs(b.left - left))),
                          float(np.max(np.abs(b.right - right))))
                require(err <= checks.BLEND_TOL, f"blend differs from reference by {err:.3g}")
                sketched += [np.array([w for _, w in p.entries]), b.left, b.right]
        self.sketch = checks.sketch(sketched)


# ---------------------------------------------------------------------------
# surround_render


class SurroundRender:
    """CLI mix of the quickstart scene, then render-surround 5.1 -> 7.1.4."""

    MIN_CYCLES = 100  # p90 of each request kind in the summary has 10 beyond
    TRACE_CYCLES = 2

    def __init__(self, paths: inputs.Paths, seed: int):
        self.paths, self.seed = paths, seed

    def setup(self) -> None:
        self.caches = lru_caches()

    def _argv(self, kind: str, out: Path) -> list[str]:
        p = self.paths
        if kind == "mix":
            return ["mix", str(p.scene), "--data-root", str(p.data_root), "-o", str(out)]
        return ["render-surround", str(p.program), "--input-layout", inputs.PROGRAM_IN_LAYOUT,
                "--output-layout", inputs.PROGRAM_OUT_LAYOUT, "--data-root",
                str(p.data_root), "--subject", inputs.SUBJECT_DENSE,
                "--rate", str(inputs.RATE), "-o", str(out)]

    def _request(self, kind: str, out: Path, o: Outcome) -> float:
        start_cold(self.caches)
        buf = io.StringIO()
        o.attempted += 1
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self._argv(kind, out))
        except Exception as e:  # the CLI lets non-library errors escape
            rc = repr(e)
        elapsed = clock() - t0
        if rc != 0:
            o.failed += 1
            if len(o.errors) < 5:
                o.errors.append(f"{kind} exited with {rc}")
        o.meta["clipped_renders"] = o.meta.get("clipped_renders", 0) + (
            "CLIPPED" in buf.getvalue())
        return elapsed

    def _out(self, kind: str, cycle: int) -> Path:
        return self.paths.work / f"{kind}_{'first' if cycle == 0 else 'last'}.wav"

    def _cycle(self, index: int, o: Outcome, tracer=None) -> tuple[float, float]:
        times = []
        for kind in ("mix", "upmix"):
            if tracer is not None:
                tracer.request = (index, kind)
            times.append(self._request(kind, self._out(kind, index), o))
        return times[0], times[1]

    def measure(self, seconds: float, o: Outcome, min_cycles: int | None = None) -> dict:
        min_cycles = self.MIN_CYCLES if min_cycles is None else min_cycles
        cycles: list[tuple[float, float]] = []
        kernel_s = [hostspeed.sample()]
        start = clock()
        while len(cycles) < min_cycles or clock() - start < seconds:
            cycles.append(self._cycle(len(cycles), o))
            kernel_s.append(hostspeed.sample())
        o.meta["peak_rss_mb"] = peak_rss_mb()
        o.check(self.check_outputs, len(cycles) > 1)
        mix, upmix = (1000.0 * np.array(c) for c in zip(*cycles))
        ref = hostspeed.rescale((mix + upmix) / 1000.0, kernel_s)
        o.meta.update(
            cycles=len(cycles), host_kernel_ms=kernel_stats(kernel_s),
            mix_ms_best=float(mix.min()), mix_ms_p50=percentile(mix, 50),
            mix_ms_p90=percentile(mix, 90),
            upmix_ms_best=float(upmix.min()), upmix_ms_p50=percentile(upmix, 50),
            upmix_ms_p90=percentile(upmix, 90),
            realtime_x=getattr(self, "audio_s", 0.0) / float(np.median(mix + upmix) / 1000.0),
        )
        o.meta["samples"] = dict.fromkeys(("ops_per_s", "mix_ms_p90", "upmix_ms_p90"),
                                          len(cycles))
        return {"ops_per_s": 1.0 / float(np.median(ref))}

    def trace(self, tracer, o: Outcome) -> dict:
        """Two traced units of TRACE_CYCLES cycles between untraced ones."""
        count = iter(range(5 * self.TRACE_CYCLES))

        def unit(traced: bool) -> float:
            return sum(sum(self._cycle(next(count), o, tracer if traced else None))
                       for _ in range(self.TRACE_CYCLES))

        untraced, traced = alternate(unit, tracer)
        o.check(self.check_outputs, True)
        return {"trace.overhead_frac": traced / untraced - 1.0}

    def check_outputs(self, repeated: bool) -> None:
        """First outputs against numpy references; later cycles byte-identical."""
        ir = inputs.dense_ir_set(self.seed)
        by_dir = {(p.direction.azimuth_deg, p.direction.elevation_deg): p for p in ir.points}
        speakers = [geometry.normalize_direction(az, el) for az, el in SPEAKERS_714]
        speaker_points = [by_dir[(d.azimuth_deg, d.elevation_deg)] for d in speakers]

        def over_speakers(signal, az, el):
            d = geometry.normalize_direction(az, el)
            p = interpolation.plan_over_directions(speakers, d, "auto")
            return checks.binaural(signal, *checks.blend_ref(speaker_points, p.entries))

        reverb = checks.theatre_ir(inputs.RATE)
        parts = []
        for t in inputs.SCENE_TRACKS:
            dry = t["level"] * inputs.noise(self.seed, t["name"], inputs.SURROUND_SIGNAL_S,
                                            inputs.SCENE_TRACK_STD)
            parts.append(over_speakers(checks.with_reverb(dry, t["reverb"], reverb),
                                       t["azimuth"], t["elevation"]))
        expected = {"mix": checks.sum_aligned(parts)}
        program = inputs.noise(self.seed, "program", inputs.SURROUND_SIGNAL_S,
                               inputs.PROGRAM_STD, channels=6)
        parts = []
        for ch, spec in enumerate(SPEAKERS_51):
            if spec is None:  # LFE: both ears at -3 dB
                feed = program[:, ch] * 2.0 ** -0.5
                parts.append(np.column_stack([feed, feed]))
            else:
                parts.append(over_speakers(program[:, ch], *spec))
        expected["upmix"] = checks.sum_aligned(parts)

        self.audio_s = 0.0
        decoded = []
        for kind in ("mix", "upmix"):
            first = self._out(kind, 0)
            rate, got = checks.decode_wav(first)
            checks.require_pcm24_match(got, expected[kind], f"{kind} output")
            self.audio_s += len(got) / rate
            decoded.append(got)
            if repeated:
                require(first.read_bytes() == self._out(kind, 1).read_bytes(),
                        f"{kind} output changed between identical requests")
        self.sketch = checks.sketch(decoded)


# Speaker angles restated from the layout table: 7.1.4 without LFE, in
# channel order, and 5.1 in channel order with None for LFE.
SPEAKERS_714 = ((30, 0), (330, 0), (0, 0), (90, 0), (270, 0), (135, 0), (225, 0),
                (45, 45), (315, 45), (135, 45), (225, 45))
SPEAKERS_51 = ((30, 0), (330, 0), (0, 0), None, (110, 0), (250, 0))

WORKLOADS = {
    "dataset_grid": DatasetGrid,
    "dense_plan": DensePlan,
    "surround_render": SurroundRender,
}
