"""Spans around calls into binauralkit's public functions, for traced runs only.

``Tracer.install`` replaces each traced function at every name it is bound
to inside the binauralkit package, which is the name its callers look it up
by: ``mixer`` imports ``fft_convolve`` by name, ``IRSet.triangulation``
calls ``ir_store.build_triangulation``, ``load_ir_set`` calls
``wavio.read_wav`` through the module. ``uninstall`` restores the originals.
Spans are kept in memory and turned into per-layer metrics at the end.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function) -> span name; the layer is the part before the dot.
TRACED = {
    ("wavio", "read_wav"): "wavio.read",
    ("wavio", "write_wav"): "wavio.write",
    ("ir_store", "load_ir_set"): "ir_store.load",
    ("ir_store", "nearest_point"): "ir_store.nearest",
    ("geometry", "build_triangulation"): "geometry.triangulate",
    ("geometry", "rotated_frame"): "geometry.frame",
    ("geometry", "find_enclosing_triangle"): "geometry.locate",
    ("interpolation", "plan"): "interpolation.plan",
    ("interpolation", "blend"): "interpolation.blend",
    ("dsp", "fft_convolve"): "dsp.convolve",
    ("dsp", "apply_reverb"): "dsp.reverb",
    ("dsp", "render_source_binaural"): "dsp.render",
    ("dsp", "resolve_speaker_ir_set"): "dsp.speaker_resolve",
    ("mixer", "mix_tracks_binaural"): "mixer.mix",
    ("mixer", "render_surround_to_binaural"): "mixer.surround",
    ("dataset", "run_dataset"): "dataset.run",
    ("cli", "main"): "cli.request",
}

PLAN_MODES = ("nearest", "two_point", "planar", "three_point", "auto")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: object
    error: bool = False
    build: bool = False  # geometry.frame: this call built a new frame

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # facts gathered at the boundaries, beside the spans
        self.read_bytes = 0
        self.write_bytes = 0
        self.convolve_macs = 0
        self.triangulated_points = 0
        self.plan_modes: dict[int, str] = {}
        self.snapped = 0
        self.clipped = 0
        self.jobs = 0
        self.jobs_failed = 0
        self.keys: dict[str, list] = defaultdict(list)  # per-layer dedupe keys
        self._frames: dict[int, tuple[object, set]] = {}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "binauralkit" or name.startswith("binauralkit.")}
        for (mod_name, fn_name), span_name in TRACED.items():
            original = getattr(modules[f"binauralkit.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.error = True
                raise
            finally:
                stack.pop()
            span.end = clock()
            if note is not None:
                note(idx, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- boundary facts ----------------------------------------------------

    def _note_wavio_read(self, idx, span, args, kwargs, result):
        self.read_bytes += os.path.getsize(args[0] if args else kwargs["path"])

    def _note_wavio_write(self, idx, span, args, kwargs, result):
        self.write_bytes += os.path.getsize(args[0] if args else kwargs["path"])

    def _note_dsp_convolve(self, idx, span, args, kwargs, result):
        self.convolve_macs += len(args[0]) * len(args[1])

    def _note_dsp_reverb(self, idx, span, args, kwargs, result):
        signal, model, amount = args[:3]
        if amount > 0.0:
            s = signal.samples
            key = (len(s), float(s[::97].sum()), float(s[1::89].sum()), model.id)
            self.keys["reverb"].append((self.request, key))

    def _note_dsp_speaker_resolve(self, idx, span, args, kwargs, result):
        ir_set, layout = args[0], args[1]
        mode = args[2] if len(args) > 2 else kwargs.get("mode")
        self.keys["speaker_resolve"].append(
            (self.request, (id(ir_set), layout.name, str(mode))))

    def _note_geometry_triangulate(self, idx, span, args, kwargs, result):
        self.triangulated_points += len(result.vertices)
        self.keys["triangulate"].append((self.request, hash(result.vertices)))

    def _note_geometry_frame(self, idx, span, args, kwargs, result):
        base = args[0]
        seen_base, seen = self._frames.get(id(base), (None, None))
        if seen_base is not base:
            seen = set()
            self._frames[id(base)] = (base, seen)
        key = (bool(args[1]), bool(args[2]))
        if result is not base and key not in seen:
            span.build = True
        seen.add(key)

    def _note_interpolation_plan(self, idx, span, args, kwargs, result):
        mode = args[2] if len(args) > 2 else kwargs["mode"]
        self.plan_modes[idx] = str(getattr(mode, "value", mode)).lower()
        threshold = args[3] if len(args) > 3 else kwargs.get("snap_threshold_deg", 2.0)
        if len(result.entries) == 1 and result.achieved_error_deg <= threshold:
            self.snapped += 1

    def _note_mixer_mix(self, idx, span, args, kwargs, result):
        self.clipped += bool(result.clipped)

    _note_mixer_surround = _note_mixer_mix

    def _note_dataset_run(self, idx, span, args, kwargs, result):
        self.jobs += len(result.rows)
        self.jobs_failed += result.n_failed

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        own = self_times(self.spans)
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        plan_s = dict.fromkeys(PLAN_MODES, 0.0)
        frame_builds, frame_s = 0, 0.0
        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            total[s.name] += s.duration
            self_s[s.name] += own[i]
            if i in self.plan_modes:
                plan_s[self.plan_modes[i]] = plan_s.get(self.plan_modes[i], 0.0) + s.duration
            if s.build:
                frame_builds += 1
                frame_s += s.duration

        def unique_ratio(kind):
            keys = self.keys.get(kind, [])
            return len(set(keys)) / len(keys) if keys else 0.0

        mb = 1024.0 * 1024.0
        m = {
            "wavio.read_calls": calls["wavio.read"],
            "wavio.read_s": total["wavio.read"],
            "wavio.read_mb": self.read_bytes / mb,
            "wavio.write_calls": calls["wavio.write"],
            "wavio.write_s": total["wavio.write"],
            "wavio.write_mb": self.write_bytes / mb,
            "ir_store.load_calls": calls["ir_store.load"],
            "ir_store.load_s": total["ir_store.load"],
            "ir_store.load_self_s": self_s["ir_store.load"],
            "ir_store.nearest_calls": calls["ir_store.nearest"],
            "ir_store.nearest_s": total["ir_store.nearest"],
            "geometry.triangulate_calls": calls["geometry.triangulate"],
            "geometry.triangulate_points": self.triangulated_points,
            "geometry.triangulate_s": total["geometry.triangulate"],
            "geometry.frame_builds": frame_builds,
            "geometry.frame_s": frame_s,
            "geometry.locate_calls": calls["geometry.locate"],
            "geometry.locate_s": self_s["geometry.locate"],
            "geometry.triangulate_unique_ratio": unique_ratio("triangulate"),
            "interpolation.plan_calls": calls["interpolation.plan"],
            "interpolation.plan_s": total["interpolation.plan"],
        }
        for mode in PLAN_MODES:
            m[f"interpolation.plan_s.{mode}"] = plan_s[mode]
        n_plans = calls["interpolation.plan"]
        m.update({
            "interpolation.snap_ratio": self.snapped / n_plans if n_plans else 0.0,
            "interpolation.blend_calls": calls["interpolation.blend"],
            "interpolation.blend_s": total["interpolation.blend"],
            "dsp.convolve_calls": calls["dsp.convolve"],
            "dsp.convolve_s": total["dsp.convolve"],
            "dsp.convolve_macs": self.convolve_macs,
            "dsp.reverb_calls": calls["dsp.reverb"],
            "dsp.reverb_s": total["dsp.reverb"],
            "dsp.reverb_unique_ratio": unique_ratio("reverb"),
            "dsp.render_calls": calls["dsp.render"],
            "dsp.render_s": total["dsp.render"],
            "dsp.speaker_resolve_calls": calls["dsp.speaker_resolve"],
            "dsp.speaker_resolve_s": total["dsp.speaker_resolve"],
            "dsp.speaker_resolve_unique_ratio": unique_ratio("speaker_resolve"),
            "mixer.mix_calls": calls["mixer.mix"],
            "mixer.mix_s": total["mixer.mix"],
            "mixer.mix_self_s": self_s["mixer.mix"],
            "mixer.surround_calls": calls["mixer.surround"],
            "mixer.surround_s": total["mixer.surround"],
            "mixer.surround_self_s": self_s["mixer.surround"],
            "mixer.clipped": self.clipped,
            "dataset.run_s": total["dataset.run"],
            "dataset.run_self_s": self_s["dataset.run"],
            "dataset.jobs": self.jobs,
            "dataset.jobs_failed": self.jobs_failed,
            "cli.request_s": total["cli.request"],
            "cli.request_self_s": self_s["cli.request"],
        })
        return m

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, "error": s.error} for s in self.spans]
