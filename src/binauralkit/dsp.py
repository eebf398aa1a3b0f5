"""Rendering primitives: FFT convolution, constant-power panning, reverb,
and binaural rendering of one source or a bus of sources, with optional
speaker-layout simulation.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BinauralKitError, FormatError, InvalidArgumentError, as_rate, read_utf8
from .geometry import Direction
from .interpolation import InterpolationMode, InterpolationPlan, blend, plan
from .ir_store import IRPoint, IRSet
from .layouts import SpeakerLayout
from .wavio import decode_into, expect_format, read_bytes, read_wav


@dataclass(eq=False)
class AudioBuffer:
    """Samples (frames,) for mono or (frames, channels) plus a sample rate,
    a positive integer. One-column samples (frames, 1) are kept as mono
    (frames,). Buffers compare and hash by identity, not by their samples."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim == 2 and self.samples.shape[1] == 1:
            self.samples = self.samples[:, 0]
        if self.samples.ndim not in (1, 2):
            raise InvalidArgumentError(
                f"samples must be 1-D or 2-D, got shape {self.samples.shape}"
            )
        if self.samples.size == 0:
            raise InvalidArgumentError("audio buffer is empty")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidArgumentError("audio buffer contains non-finite samples")
        self.sample_rate_hz = as_rate(self.sample_rate_hz, "sample rate", InvalidArgumentError)

    @classmethod
    def _finite(cls, samples: np.ndarray, sample_rate_hz: int) -> "AudioBuffer":
        """A buffer over non-empty, finite float64 ``samples`` at a positive
        integer rate, skipping ``__post_init__``'s pass over every sample."""
        buf = cls.__new__(cls)
        buf.samples, buf.sample_rate_hz = samples, sample_rate_hz
        return buf

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]


def load_audio(path) -> AudioBuffer:
    """A WAV file as an AudioBuffer, mono files as (frames,); errors name
    the file."""
    rate, samples = read_wav(path)
    try:
        return AudioBuffer(samples, rate)
    except BinauralKitError as e:
        raise type(e)(f"{path}: {e}") from None


# Each batch of blocks is transformed at once; the cap keeps a batch's
# spectra near this many samples, so a long signal never holds every block
# spectrum in memory at the same time.
_BATCH_SAMPLES = 1 << 15


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution by uniformly partitioned FFT overlap-add.

    ``x`` is a 1-D signal. ``h`` is one IR ``(taps,)``, giving an output of
    shape ``(n_out,)``, or a stack ``(taps, k)`` with one IR per column (e.g.
    left and right ear), giving ``(n_out, k)`` whose column j is x convolved
    with ``h[:, j]``; x is transformed once for the whole stack. n_out is
    len(x) + len(h) - 1.

    The shorter operand is the filter. The FFT size is the next power of
    two at or above four times the filter length, trading a little memory
    for throughput on long signals. The longer operand is cut into blocks
    of nfft - len(filter) + 1 samples, which are transformed in batches and
    overlap-added. Every output sample sums at most two block outputs, so
    the result is the same however the blocks are batched.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 1 or h.ndim not in (1, 2) or x.size == 0 or h.size == 0:
        raise InvalidArgumentError(
            "convolution operands must be a non-empty 1-D signal and a "
            "non-empty (taps,) IR or (taps, k) IR stack"
        )
    stack = h if h.ndim == 2 else h[:, None]
    long, short = (stack, x[:, None]) if len(stack) > len(x) else (x[:, None], stack)
    if len(short) == 1:
        y = long * short[0]
    else:
        nfft = _partition_nfft(len(short))
        y = _overlap_add([(long, np.fft.rfft(short, nfft, axis=0).T)], len(short), nfft)
    return y if h.ndim == 2 else y[:, 0]


def _partition_nfft(m: int) -> int:
    """fft_convolve's transform size for an m-tap filter: the next power of
    two at or above 4 * m."""
    return 1 << max(2, (4 * m - 1).bit_length())


def _smooth_nfft(n: int) -> int:
    """The smallest 2·3·5-smooth length >= n (n >= 1), a fast rfft size."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two p with p35 * p >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _overlap_add(pairs, m: int, nfft: int) -> np.ndarray:
    """The sum over ``pairs`` of ``(long, spectra)``: each ``long`` (n, a)
    convolved with an m-tap filter (m, b) whose rfft at ``nfft`` is
    ``spectra``, held as (b, F), where a and b are equal or one of them is 1.

    Blocks of nfft - m + 1 samples are transformed in batches along the last
    axis, as (blocks, a, F). The first pair's products fill an accumulator
    and each later pair's are added in list order through a second buffer,
    both allocated once per call; one inverse transform per column and batch
    serves every pair. A pair is skipped once a batch starts past its end.
    A block must be at least m - 1 samples, so that each output sample sums
    at most two blocks, unless one block holds every long operand. Returns
    (max(n) + m - 1, max(a, b)).
    """
    n = max(len(long) for long, _ in pairs)
    k = max(max(long.shape[1], len(spectra)) for long, spectra in pairs)
    block = nfft - m + 1
    n_blocks = -(-n // block)
    per_batch = min(max(1, _BATCH_SAMPLES // nfft), n_blocks)
    y = np.zeros((n_blocks * block + m - 1, k))
    acc = np.empty((per_batch, k, nfft // 2 + 1), complex)
    prod = np.empty_like(acc) if len(pairs) > 1 else None
    for first in range(0, n_blocks, per_batch):
        nb = min(per_batch, n_blocks - first)
        start, end = first * block, (first + nb) * block
        dst = acc
        for long, spectra in pairs:
            seg = long[start:end]
            if not len(seg):
                continue
            if len(seg) % block:  # the last, partial block, zero-padded
                seg = np.pad(seg, ((0, block - len(seg) % block), (0, 0)))
            rows = len(seg) // block
            blocks = seg.reshape(rows, block, seg.shape[1]).transpose(0, 2, 1)
            np.multiply(np.fft.rfft(blocks, nfft), spectra, out=dst[:rows])
            if dst is acc:  # blocks past a short first pair's end start at zero
                acc[rows:nb], dst = 0.0, prod
            else:
                acc[:rows] += prod[:rows]
        for j in range(k):  # one column at a time holds a k-th of the batch's output
            out = np.fft.irfft(acc[:nb, j], nfft)
            heads = y[start:end, j].reshape(nb, block)
            heads += out[:, :block]
            if nb > 1:
                # block i's tail lands on the head of block i + 1
                tails = y[start + block:end, j].reshape(nb - 1, block)[:, :m - 1]
                tails += out[:-1, block:]
            y[end:end + m - 1, j] += out[-1, block:]
    return y[:n + m - 1]


def pan_constant_power(pan: float) -> tuple[float, float]:
    """Constant-power stereo gains for pan in [-1 (left), +1 (right)]."""
    if not math.isfinite(pan):
        raise InvalidArgumentError(f"pan must be finite, got {pan}")
    if pan < -1.0 or pan > 1.0:
        warnings.warn(f"pan {pan} outside [-1, 1]; clamping", stacklevel=2)
        pan = max(-1.0, min(1.0, pan))
    theta = (pan + 1.0) * math.pi / 4.0
    return math.cos(theta), math.sin(theta)


# ---------------------------------------------------------------------------
# reverb

REVERB_NAMES = {1: "Theatre", 2: "Office", 3: "Small Room", 4: "Meeting Room"}
_REVERB_DECAY_S = {1: 2.0, 2: 0.5, 3: 0.3, 4: 0.7}


@dataclass(eq=False)
class ReverbModel:
    """A mono reverb IR, energy-normalized so sum(ir**2) == 1, at a
    positive integer sample rate. Models compare and hash by identity, not
    by their IRs."""

    id: int
    name: str
    sample_rate_hz: int
    ir: np.ndarray

    def __post_init__(self):
        self.sample_rate_hz = as_rate(self.sample_rate_hz, "sample rate", InvalidArgumentError)
        self.ir = np.asarray(self.ir, dtype=np.float64)
        if self.ir.ndim != 1 or len(self.ir) == 0:
            raise InvalidArgumentError("reverb IR must be non-empty mono")
        if not np.isfinite(self.ir).all():
            raise InvalidArgumentError(
                f"reverb IR {self.id} contains non-finite samples"
            )
        energy = float(np.sum(self.ir**2))
        if energy <= 0.0 or not math.isfinite(energy):
            raise InvalidArgumentError(f"reverb IR {self.id} has no energy")
        self.ir = self.ir / math.sqrt(energy)
        self.ir.flags.writeable = False


def _default_reverb(rate: int, rid: int) -> ReverbModel:
    """The synthetic default reverb ``rid`` at ``rate`` (see default_reverbs)."""
    decay = _REVERB_DECAY_S[rid]  # a KeyError for an id outside 1..4
    n = int(round(decay * rate))
    rng = np.random.default_rng(1000 + rid)
    t = np.arange(n) / rate
    ir = rng.standard_normal(n) * np.exp(-6.91 * t / decay)
    return ReverbModel(rid, REVERB_NAMES[rid], rate, ir)


class _Reverbs(Mapping):
    """Reverb models by id, always the ids 1..4: the given models, and for
    every other id the synthetic default, built on its first lookup and
    kept."""

    def __init__(self, sample_rate_hz: int, models: dict[int, ReverbModel]):
        self._rate, self._models = sample_rate_hz, models

    def __getitem__(self, rid: int) -> ReverbModel:
        model = self._models.get(rid)
        if model is None:
            model = self._models[rid] = _default_reverb(self._rate, rid)
        return model

    def __iter__(self):
        return iter(REVERB_NAMES)

    def __len__(self) -> int:
        return len(REVERB_NAMES)


def default_reverbs(sample_rate_hz: int) -> Mapping[int, ReverbModel]:
    """Synthetic stand-in reverbs: exponentially decaying seeded noise.

    Decay times: Theatre 2.0 s, Office 0.5 s, Small Room 0.3 s,
    Meeting Room 0.7 s. Deterministic per (id, sample rate). The mapping
    always holds ids 1..4; each model is built on its first lookup, so a
    caller pays only for the reverbs it uses. A script that mixes over and
    over at one rate can pass one mapping as every call's ``reverbs``, so
    each default is synthesized once. A rate that is not a positive integer
    raises InvalidArgumentError.
    """
    return _Reverbs(as_rate(sample_rate_hz, "sample rate", InvalidArgumentError), {})


def load_reverbs(data_root, sample_rate_hz: int) -> Mapping[int, ReverbModel]:
    """Reverbs from <root>/reverb/manifest.tsv when present, else defaults.

    Manifest rows are id<TAB>path with mono WAV paths relative to the
    manifest; ids must be in 1..4 (names are fixed), each on one row. The
    manifest and every file it lists are read and checked here, and an
    error about a row names the manifest and its line. Ids the manifest
    leaves out are ``default_reverbs``', each built on its first lookup. A
    rate that is not a positive integer raises InvalidArgumentError before
    anything is read.
    """
    sample_rate_hz = as_rate(sample_rate_hz, "sample rate", InvalidArgumentError)
    models: dict[int, ReverbModel] = {}
    mpath = Path(data_root) / "reverb" / "manifest.tsv"
    if not mpath.is_file():
        return _Reverbs(sample_rate_hz, models)
    lines = {}
    for i, line in enumerate(read_utf8(mpath).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise FormatError(f"{mpath}:{i}: expected id<TAB>path")
        try:
            rid = int(cols[0])
        except ValueError:
            raise FormatError(f"{mpath}:{i}: bad reverb id {cols[0]!r}") from None
        if rid not in REVERB_NAMES:
            raise FormatError(f"{mpath}:{i}: reverb id must be 1..4, got {rid}")
        if rid in lines:
            raise FormatError(f"{mpath}:{i}: reverb id {rid} is already on line {lines[rid]}")
        lines[rid] = i
        try:
            path = str(mpath.parent / cols[1])
            raw = read_bytes(path)
            head = expect_format(raw, path, 1, sample_rate_hz)
            ir = np.empty(head.frames)
            decode_into(raw, head, ir)
            models[rid] = ReverbModel(rid, REVERB_NAMES[rid], sample_rate_hz, ir)
        except BinauralKitError as e:
            raise type(e)(f"{mpath}:{i}: {e}") from None
    return _Reverbs(sample_rate_hz, models)


def _reverb_nfft(n: int, taps: int) -> int | None:
    """The reverb rule for an n-sample signal and a taps-sample IR: the
    smallest 2·3·5-smooth length holding the whole output when that output
    fits the transform ``fft_convolve`` would use, else None, for
    ``fft_convolve`` itself."""
    n_out = n + taps - 1
    return _smooth_nfft(n_out) if n_out <= _partition_nfft(min(n, taps)) else None


def _reverb_wet(x: np.ndarray, ir: np.ndarray) -> np.ndarray:
    """A signal ``x`` (n,), or each column of ``x`` (n, k), convolved with
    the reverb IR as a fresh buffer of x's rank, by ``_reverb_nfft``'s rule:
    ``fft_convolve``, or one whole-output transform of the IR per call and of
    each column in turn, forward and back into its own row of a (k, n_out)
    buffer returned transposed: a row's pages are first touched when written."""
    n_out, nfft = len(x) + len(ir) - 1, _reverb_nfft(len(x), len(ir))
    cols = x.reshape(len(x), -1).T
    if nfft is None:
        wets = [fft_convolve(col, ir) for col in cols]
        return wets[0] if x.ndim == 1 else np.column_stack(wets)
    spectrum = np.fft.rfft(ir, nfft)
    out = np.empty((len(cols), n_out))
    for col, wet in zip(cols, out):
        spec = np.fft.rfft(col, nfft)
        spec *= spectrum
        # + 0.0 turns -0.0 into +0.0, as fft_convolve's sum into zeros does
        np.add(np.fft.irfft(spec, nfft)[:n_out], 0.0, out=wet)
    return out.T if x.ndim == 2 else out[0]


def _check_reverb_rate(sample_rate_hz: int, model: ReverbModel):
    if sample_rate_hz != model.sample_rate_hz:
        raise InvalidArgumentError(
            f"sample rate mismatch: signal {sample_rate_hz} != "
            f"reverb {model.sample_rate_hz}"
        )


def apply_reverb(signal: AudioBuffer, model: ReverbModel, amount: float) -> AudioBuffer:
    """Wet/dry blend: (1 - amount) * dry + amount * (dry (*) ir).

    The dry path is zero-padded to the convolved length, so the output
    length is always len(signal) + len(ir) - 1, including at amount 0,
    where the output is that padded copy. Otherwise the wet convolution's
    own buffer is scaled by amount in place and the scaled dry signal is
    added to its head, so no output-sized temporary is made.

    The wet path is ``_reverb_wet``.
    """
    if signal.n_channels != 1:
        raise InvalidArgumentError("apply_reverb expects a mono buffer")
    _check_reverb_rate(signal.sample_rate_hz, model)
    if not math.isfinite(amount):
        raise InvalidArgumentError(f"reverb amount must be finite, got {amount}")
    if amount < 0.0 or amount > 1.0:
        warnings.warn(f"reverb amount {amount} outside [0, 1]; clamping", stacklevel=2)
        amount = max(0.0, min(1.0, amount))
    x = signal.samples
    if amount == 0.0:
        return AudioBuffer(np.pad(x, (0, len(model.ir) - 1)), signal.sample_rate_hz)
    out = _reverb_wet(x, model.ir)
    # amount * wet + (1 - amount) * dry rounds as the dry-first sum, element
    # by element; the tail's + 0.0 turns a -0.0 the product may round to
    # into +0.0, as adding it to a zeroed dry tail did
    out *= amount
    out[len(x):] += 0.0
    out[:len(x)] += (1.0 - amount) * x
    return AudioBuffer(out, signal.sample_rate_hz)


# ---------------------------------------------------------------------------
# source rendering


@dataclass
class RenderedSource:
    """A rendered stereo buffer plus the plan that produced it."""

    audio: AudioBuffer
    plan: InterpolationPlan


def resolve_speaker_ir_set(ir_set: IRSet, layout: SpeakerLayout, mode) -> IRSet:
    """An IR set holding one IR per layout speaker, at the speaker directions.

    Each speaker IR is planned over the full set with the requested mode,
    so a speaker within ``interpolation.SNAP_THRESHOLD_DEG`` (2 degrees) of
    a stored point takes that point's IR unchanged.
    """
    dirs = layout.speaker_directions()
    irs = np.stack([blend(ir_set, plan(ir_set, d, mode)).pair for d in dirs])
    return IRSet._stacked(f"{ir_set.subject_id}:{layout.name}", ir_set.ir_type,
                          ir_set.sample_rate_hz, dirs, irs)


def source_ir(
    direction: Direction,
    ir_set: IRSet,
    mode=InterpolationMode.AUTO,
    layout: SpeakerLayout | None = None,
) -> tuple[InterpolationPlan, IRPoint]:
    """The plan for a source at a direction and the IR it blends to.

    Without a layout, the IR is interpolated at the requested direction.
    With a layout, candidates are restricted to the layout's speaker
    positions (amplitude-panning simulation): the plan spreads the source
    over up to three speakers and their IRs are blended. The speaker IR set
    is resolved once per layout and mode and kept in ``ir_set.speaker_sets``.
    """
    if layout is not None:
        key = (layout, InterpolationMode.parse(mode))
        speaker_set = ir_set.speaker_sets.get(key)
        if speaker_set is None:
            speaker_set = resolve_speaker_ir_set(ir_set, layout, mode)
            ir_set.speaker_sets[key] = speaker_set
        ir_set = speaker_set
    p = plan(ir_set, direction, mode)
    return p, blend(ir_set, p)


def render_source_binaural(
    source: AudioBuffer,
    direction: Direction,
    ir_set: IRSet,
    mode=InterpolationMode.AUTO,
    layout: SpeakerLayout | None = None,
) -> RenderedSource:
    """Render a mono source at a direction to stereo: the source convolved
    with the IR ``source_ir`` picks (free-field without a layout, over the
    layout's speakers with one)."""
    if source.n_channels != 1:
        raise InvalidArgumentError("render_source_binaural expects a mono source")
    if source.sample_rate_hz != ir_set.sample_rate_hz:
        raise InvalidArgumentError(
            f"sample rate mismatch: source {source.sample_rate_hz} != "
            f"IR set {ir_set.sample_rate_hz}"
        )
    p, ir = source_ir(direction, ir_set, mode, layout)
    stereo = binaural_sum([(source.samples, ir)])
    return RenderedSource(AudioBuffer(stereo, source.sample_rate_hz), p)


def binaural_sum(sources, gains=None) -> np.ndarray:
    """The sum over ``(signal, IRPoint)`` pairs of each 1-D signal convolved
    with its IR's ``(taps, 2)`` ``pair``, as ``(max len(signal) + taps - 1,
    2)``; every IR must have the same length.

    A lone source is one ``fft_convolve`` of its IR's ``pair``, bit for
    bit, whichever of signal and IR is longer. Two or more sources form a
    bus: the IR length sets the partition, as in ``fft_convolve``, each
    ``pair`` is transformed once, uncopied, to (2, F), and every source's
    products are added in list order before one inverse transform per batch.

    ``gains``, one ``(dry, send)`` pair per source, renders two such sums
    as one bus of four columns: the first pair takes each source's IR
    scaled by its dry gain, the second by its send gain. The gains scale
    the IR spectra, (4, F), so no scaled copy of a signal is made.
    """
    pairs = [(np.asarray(x, dtype=np.float64), ir.pair) for x, ir in sources]
    taps = {len(h) for _, h in pairs}
    if len(taps) != 1 or any(x.ndim != 1 or x.size == 0 for x, _ in pairs):
        raise InvalidArgumentError(
            "binaural_sum needs non-empty 1-D signals with IRs of one length"
        )
    if len(pairs) == 1 and gains is None:
        return fft_convolve(*pairs[0])
    (m,) = taps
    # fft_convolve's size, but one tap is a gain: a length-1 transform is exact
    nfft = _partition_nfft(m) if m > 1 else 1
    spectra = [np.fft.rfft(h, nfft, axis=0).T for _, h in pairs]
    if gains is not None:
        spectra = [np.vstack([dry * s, send * s]) for s, (dry, send) in zip(spectra, gains)]
    return _overlap_add([(x[:, None], s) for (x, _), s in zip(pairs, spectra)], m, nfft)
