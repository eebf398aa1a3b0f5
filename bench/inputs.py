"""Seeded benchmark inputs written under a work directory.

Every input is a pure function of the seed, so a seed reproduces its inputs
exactly. The library is used only to synthesize the stand-in IR sets and to
write the WAVs; the workloads then read them back like a user's files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from binauralkit import geometry, ir_store, wavio

RATE = 48000
IR_TAPS = 256
SUBJECT_SPARSE = "LEB50"
SUBJECT_DENSE = "RING5"
# 5 degree rings every 15 degrees from -75 to 75: 11 x 72 = 792 points. The
# rings hold 0 and 45 degrees, so every 7.1.4 speaker is a stored point.
DENSE_STEP_DEG = 5.0
DENSE_ELEVATIONS = tuple(float(e) for e in range(-75, 76, 15))

DATASET_SOURCE_S = 2.0
DATASET_SOURCE_STD = 0.1
DATASET_AZIMUTHS = 2
DATASET_ELEVATIONS = (-30.0, 0.0, 30.0)
DATASET_MODES = ("auto", "three_point")
DATASET_REVERB_AMOUNTS = (0.0, 0.3)
DATASET_REVERB_TYPE = 1  # Theatre, 2 s decay

SURROUND_SIGNAL_S = 2.0
SCENE_TRACK_STD = 0.1
PROGRAM_STD = 0.05
# The README quickstart scene, rendered over a 7.1.4 layout.
SCENE_TRACKS = (
    {"name": "vocals", "level": 0.9, "reverb": 0.2, "azimuth": 0, "elevation": 0},
    {"name": "guitar", "level": 0.7, "reverb": 0.1, "azimuth": 45, "elevation": 0},
    {"name": "keys", "level": 0.6, "reverb": 0.3, "azimuth": 315, "elevation": 10},
    {"name": "drums", "level": 0.8, "reverb": 0.0, "azimuth": 180, "elevation": -10},
)
SCENE_LAYOUT = "7.1.4"
PROGRAM_IN_LAYOUT = "5.1"
PROGRAM_OUT_LAYOUT = "7.1.4"


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, named stream)."""
    return np.random.default_rng([int(seed), *stream.encode()])


def noise(seed: int, stream: str, seconds: float, std: float, channels: int = 1) -> np.ndarray:
    """Seeded Gaussian noise rounded to float32, the precision it is stored at."""
    n = int(round(seconds * RATE))
    shape = (n,) if channels == 1 else (n, channels)
    x = std * _rng(seed, stream).standard_normal(shape)
    return x.astype(np.float32).astype(np.float64)


def sparse_ir_set(seed: int) -> ir_store.IRSet:
    return ir_store.synthesize_ir_set(
        "lebedev50", RATE, IR_TAPS, seed=seed, subject_id=SUBJECT_SPARSE
    )


def dense_ir_set(seed: int) -> ir_store.IRSet:
    return ir_store.synthesize_ir_set(
        "ring_az_step", RATE, IR_TAPS, seed=seed, step_deg=DENSE_STEP_DEG,
        elevations=DENSE_ELEVATIONS, subject_id=SUBJECT_DENSE,
    )


def dataset_azimuths(seed: int) -> list[float]:
    """Distinct seeded azimuths at 0.1 degree resolution."""
    rng = _rng(seed, "azimuths")
    picks = rng.choice(3600, size=DATASET_AZIMUTHS, replace=False)
    return sorted(float(p) / 10.0 for p in picks)


def query_directions(seed: int, count: int) -> list[geometry.Direction]:
    """Directions drawn uniformly on the sphere."""
    v = _rng(seed, "queries").standard_normal((count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    az = np.degrees(np.arctan2(v[:, 1], v[:, 0]))
    el = np.degrees(np.arcsin(np.clip(v[:, 2], -1.0, 1.0)))
    return [geometry.normalize_direction(float(a), float(e)) for a, e in zip(az, el)]


@dataclass(frozen=True)
class Paths:
    """Where one workload's generated inputs live."""

    work: Path

    @property
    def data_root(self) -> Path:
        return self.work / "irdata"

    @property
    def grid(self) -> Path:
        return self.work / "grid.json"

    @property
    def source(self) -> Path:
        return self.work / "source.wav"

    @property
    def scene(self) -> Path:
        return self.work / "scene" / "scene.json"

    @property
    def program(self) -> Path:
        return self.work / "program_5_1.wav"


def write_dataset_inputs(paths: Paths, seed: int) -> dict:
    ir_store.save_ir_set(sparse_ir_set(seed), paths.data_root)
    wavio.write_wav(paths.source, RATE,
                    noise(seed, "source", DATASET_SOURCE_S, DATASET_SOURCE_STD), "float32")
    axes = {
        "subject": [SUBJECT_SPARSE],
        "ir_type": ["HRIR"],
        "sample_rate": [RATE],
        "mode": list(DATASET_MODES),
        "azimuth": dataset_azimuths(seed),
        "elevation": list(DATASET_ELEVATIONS),
        "reverb_amount": list(DATASET_REVERB_AMOUNTS),
        "reverb_type": [DATASET_REVERB_TYPE],
        "source": [paths.source.name],
    }
    paths.grid.write_text(json.dumps({"schema": 1, "seed": seed, "axes": axes}))
    jobs = math.prod(len(v) for v in axes.values())
    return {"ir_points": 50, "ir_taps": IR_TAPS, "signal_s": DATASET_SOURCE_S,
            "source_std": DATASET_SOURCE_STD, "grid_jobs": jobs}


def write_dense_inputs(paths: Paths, seed: int) -> dict:
    ir = dense_ir_set(seed)
    ir_store.save_ir_set(ir, paths.data_root)
    return {"ir_points": len(ir.points), "ir_taps": IR_TAPS}


def write_surround_inputs(paths: Paths, seed: int) -> dict:
    info = write_dense_inputs(paths, seed)
    tracks = []
    for t in SCENE_TRACKS:
        wav = paths.scene.parent / f"{t['name']}.wav"
        wavio.write_wav(wav, RATE, noise(seed, t["name"], SURROUND_SIGNAL_S, SCENE_TRACK_STD),
                        "float32")
        tracks.append({**t, "file": wav.name})
    scene = {
        "schema": 1,
        "config": {"subject": SUBJECT_DENSE, "sample_rate": RATE, "ir_type": "HRIR",
                   "layout": SCENE_LAYOUT, "mode": "auto", "reverb_type": 1,
                   "keep_tail": True, "normalize": "off"},
        "tracks": tracks,
    }
    paths.scene.write_text(json.dumps(scene))
    wavio.write_wav(paths.program, RATE,
                    noise(seed, "program", SURROUND_SIGNAL_S, PROGRAM_STD, channels=6),
                    "float32")
    info.update(signal_s=SURROUND_SIGNAL_S, track_std=SCENE_TRACK_STD, program_std=PROGRAM_STD)
    return info


WRITERS = {
    "dataset_grid": write_dataset_inputs,
    "dense_plan": write_dense_inputs,
    "surround_render": write_surround_inputs,
}
