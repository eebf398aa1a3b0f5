"""Output checks that restate the expected result with plain numpy.

Nothing here calls the binauralkit code path under test to produce an
expected value: WAVs are decoded by a reader of our own, convolutions are
direct (np.convolve) or single full-length FFTs, reverb IRs are rebuilt
from their documented recipe, and projection frames and barycentric
containment are recomputed from the stored angles. The planner's choice of
points is taken from the library where a check needs it, because the
dense_plan checks verify plans on their own terms.
"""

from __future__ import annotations

import hashlib
import math
import struct
from functools import lru_cache
from pathlib import Path

import numpy as np

PCM24_QUANTUM = 1.0 / (1 << 23)
SNAP_DEG = 2.0
WEIGHT_SUM_TOL = 1e-12
BLEND_TOL = 1e-12
BARY_SLACK = 1e-9
SKETCH_SEED = 20250501
SKETCH_DIM = 4


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# WAV decoding and digests


def decode_wav(path) -> tuple[int, np.ndarray]:
    """Decode a 24-bit PCM or 32-bit float WAV to (rate, float64 frames x channels)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckFailed(f"cannot read output {path}: {e}") from None
    require(raw[:4] == b"RIFF" and raw[8:12] == b"WAVE", f"{path}: not RIFF/WAVE")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        require(len(body) == size, f"{path}: chunk {cid!r} runs past the end")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    require(fmt is not None and data is not None, f"{path}: missing fmt or data")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == 1 and bits == 24:
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        samples = ints * PCM24_QUANTUM
    elif tag == 3 and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise CheckFailed(f"{path}: unexpected encoding tag={tag} bits={bits}")
    return int(rate), samples.reshape(-1, channels)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _sketch_basis(n: int) -> np.ndarray:
    base = np.random.default_rng(SKETCH_SEED).standard_normal((SKETCH_DIM, 4096))
    return np.resize(base, (SKETCH_DIM, n)) if n > 4096 else base[:, :n]


def sketch(arrays) -> list[float]:
    """Fixed seeded projections of a sequence of float arrays.

    Two versions whose outputs agree within 1e-12 give sketches that agree
    to about the same relative precision, without storing the outputs.
    """
    acc = np.zeros(SKETCH_DIM)
    for a in arrays:
        a = np.ravel(np.asarray(a, dtype=np.float64))
        if a.size:
            acc += _sketch_basis(a.size) @ a
    return [float(v) for v in acc]


# ---------------------------------------------------------------------------
# signal references


def theatre_ir(rate: int) -> np.ndarray:
    """Reverb 1 (Theatre) as documented: seeded noise, 2 s exponential decay,
    unit energy."""
    decay = 2.0
    n = int(round(decay * rate))
    t = np.arange(n) / rate
    ir = np.random.default_rng(1001).standard_normal(n) * np.exp(-6.91 * t / decay)
    return ir / math.sqrt(float(np.sum(ir ** 2)))


def fft_full(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Linear convolution with one FFT of the whole output length."""
    n = len(x) + len(h) - 1
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)[:n]


def with_reverb(dry: np.ndarray, amount: float, ir: np.ndarray) -> np.ndarray:
    """Wet/dry blend; a dry track (amount 0) keeps its length."""
    if amount <= 0.0:
        return dry
    out = amount * fft_full(dry, ir)
    out[:len(dry)] += (1.0 - amount) * dry
    return out


def binaural(signal: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Direct convolution of a mono signal with an IR pair, shape (n, 2)."""
    return np.column_stack([np.convolve(signal, left), np.convolve(signal, right)])


def blend_ref(points, entries) -> tuple[np.ndarray, np.ndarray]:
    """Weighted IR pair for plan entries [(index, weight), ...]."""
    left = sum(w * points[i].left for i, w in entries)
    right = sum(w * points[i].right for i, w in entries)
    return np.asarray(left), np.asarray(right)


def sum_aligned(parts) -> np.ndarray:
    out = np.zeros((max(len(p) for p in parts), 2))
    for p in parts:
        out[:len(p)] += p
    return out


def require_pcm24_match(decoded: np.ndarray, expected: np.ndarray, what: str) -> float:
    """Decoded PCM24 samples within one quantum of the float reference."""
    require(decoded.shape == expected.shape,
            f"{what}: shape {decoded.shape} != reference {expected.shape}")
    clipped = np.clip(expected, -1.0, 1.0 - PCM24_QUANTUM)
    err = float(np.max(np.abs(decoded - clipped)))
    require(err <= PCM24_QUANTUM, f"{what}: max error {err:.3g} exceeds one PCM24 quantum")
    return err


# ---------------------------------------------------------------------------
# plan references


def cartesian(az_deg, el_deg) -> np.ndarray:
    az = np.radians(np.asarray(az_deg, dtype=np.float64))
    el = np.radians(np.asarray(el_deg, dtype=np.float64))
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)


def frame_angles(az: float, el: float, rotated_azimuth: bool, rotated_elevation: bool):
    """(azimuth, elevation) in a fallback frame: a 180 degree azimuth shift,
    then a half turn about the (0, 1, 1) axis, (x, y, z) -> (-x, z, y)."""
    if rotated_azimuth:
        az = (az + 180.0) % 360.0
    if rotated_elevation:
        x, y, z = cartesian(az, el)
        x, y, z = -x, z, y
        az = math.degrees(math.atan2(y, x)) % 360.0
        el = math.degrees(math.asin(max(-1.0, min(1.0, z))))
        if abs(el) == 90.0:
            az = 0.0
    return az, el


def encloses(tri_coords, q, slack: float = BARY_SLACK) -> bool:
    """Planar barycentric containment of q in the triangle with the given corners."""
    (ax, ay), (bx, by), (cx, cy) = tri_coords
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    if det == 0.0:
        return False
    u = ((q[0] - ax) * (cy - ay) - (cx - ax) * (q[1] - ay)) / det
    v = ((bx - ax) * (q[1] - ay) - (q[0] - ax) * (by - ay)) / det
    return u >= -slack and v >= -slack and u + v <= 1.0 + slack


class PlanChecker:
    """Checks plans over one stored direction set."""

    def __init__(self, directions):
        self.az = np.array([d.azimuth_deg for d in directions])
        self.el = np.array([d.elevation_deg for d in directions])
        self.carts = cartesian(self.az, self.el)

    def check(self, query, plan, frame=None) -> None:
        """Weights, 2 degree snap, and (with frame flags) 3-point enclosure."""
        idx = [i for i, _ in plan.entries]
        w = np.array([w for _, w in plan.entries])
        require(len(idx) > 0, "plan has no entries")
        require(bool(np.all(w >= 0.0)), f"negative weight in {plan.entries}")
        require(abs(float(w.sum()) - 1.0) <= WEIGHT_SUM_TOL,
                f"weights sum to {float(w.sum())!r}")
        require(len(set(idx)) == len(idx), f"repeated point in {plan.entries}")
        dots = self.carts @ cartesian(query.azimuth_deg, query.elevation_deg)
        near = int(np.argmax(dots))
        dist = math.degrees(math.acos(max(-1.0, min(1.0, float(dots[near])))))
        if dist < SNAP_DEG - 1e-9:
            require(idx == [near],
                    f"query within {dist:.3f} deg of point {near} did not snap: {plan.entries}")
        if frame is not None and len(idx) == 3:
            raz, rel = frame
            corners = [frame_angles(self.az[i], self.el[i], raz, rel) for i in idx]
            q = frame_angles(query.azimuth_deg, query.elevation_deg, raz, rel)
            require(encloses(corners, q),
                    f"points {idx} do not enclose ({query.azimuth_deg}, "
                    f"{query.elevation_deg}) in frame az180={raz} elrot={rel}")
