"""Multi-track binaural/stereo mixing and surround-program rendering."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dsp import (
    AudioBuffer,
    REVERB_NAMES,
    ReverbModel,
    apply_reverb,
    binaural_sum,
    default_reverbs,
    fft_convolve,  # unused here; bench/tests patches and asserts mixer.fft_convolve
    pan_constant_power,
    source_ir,
)
from .errors import (BinauralKitError, FormatError, InvalidArgumentError, NotFoundError,
                     as_number)
from .geometry import Direction, normalize_direction
from .interpolation import SNAP_THRESHOLD_DEG, InterpolationMode, InterpolationPlan
from .ir_store import IRSet, IRType
from .layouts import get_layout

_LFE_GAIN = 2.0 ** -0.5  # diotic LFE feed, -3 dB into each ear

NORMALIZE_MODES = ("off", "peak")
# each mix setting's scene config key (also its grid axis, if it has one) -> MixConfig field
CONFIG_FIELDS = {
    "subject": "subject_id",
    "sample_rate": "sample_rate_hz",
    "ir_type": "ir_type",
    "layout": "speaker_layout",
    "mode": "interpolation_mode",
    "reverb_type": "reverb_type",
    "keep_tail": "keep_tail",
    "normalize": "normalize",
}


def _keyed(key: str, parse, value):
    """``parse(value)``; its error gains the prefix ``key: ``."""
    try:
        return parse(value)
    except BinauralKitError as e:
        raise type(e)(f"{key}: {e}") from None


def _clamp01(value: float, what: str, track: str) -> float:
    if math.isnan(value):
        # NaN fails every comparison, so min/max below would make it 1.0
        raise InvalidArgumentError(f"track {track!r}: {what} is NaN")
    if not (0.0 <= value <= 1.0):
        # names the caller of the dataclass-generated TrackObject.__init__
        warnings.warn(
            f"track {track!r}: {what} {value} outside [0, 1]; clamping",
            stacklevel=4,
        )
        value = max(0.0, min(1.0, value))
    return float(value)


@dataclass
class TrackObject:
    """One mono source with placement and per-track processing amounts."""

    name: str
    audio: AudioBuffer
    level: float = 1.0
    reverb: float = 0.0
    azimuth_deg: float = 0.0
    elevation_deg: float = 0.0

    def __post_init__(self):
        if self.audio.n_channels != 1:
            raise InvalidArgumentError(f"track {self.name!r}: audio must be mono")
        self.level, self.reverb, self.azimuth_deg, self.elevation_deg = (
            as_number(getattr(self, f), f"track {self.name!r}: {f}", float,
                      InvalidArgumentError)
            for f in ("level", "reverb", "azimuth_deg", "elevation_deg")
        )
        self.level = _clamp01(self.level, "level", self.name)
        self.reverb = _clamp01(self.reverb, "reverb", self.name)

    @property
    def direction(self) -> Direction:
        return normalize_direction(self.azimuth_deg, self.elevation_deg)


@dataclass
class MixConfig:
    """Shared mix settings; azimuth/elevation live on the tracks."""

    subject_id: str
    sample_rate_hz: int
    ir_type: IRType = IRType.HRIR
    speaker_layout: str | None = None
    interpolation_mode: InterpolationMode = InterpolationMode.AUTO
    reverb_type: int = 1
    keep_tail: bool = True
    normalize: str = "off"

    def __post_init__(self):
        """Converts and checks every setting; each error starts with the
        setting's key in CONFIG_FIELDS."""
        self.subject_id = str(self.subject_id)
        self.sample_rate_hz, self.reverb_type = (
            as_number(value, key, int, InvalidArgumentError)
            for key, value in (("sample_rate", self.sample_rate_hz),
                               ("reverb_type", self.reverb_type))
        )
        if not isinstance(self.keep_tail, bool):
            raise InvalidArgumentError(
                f"keep_tail must be true or false, got {self.keep_tail!r}"
            )
        self.ir_type = _keyed("ir_type", IRType.parse, self.ir_type)
        if self.speaker_layout is not None:
            _keyed("layout", get_layout, self.speaker_layout)
        self.interpolation_mode = _keyed("mode", InterpolationMode.parse,
                                         self.interpolation_mode)
        if self.normalize not in NORMALIZE_MODES:
            raise InvalidArgumentError(
                f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}"
            )
        if self.reverb_type not in REVERB_NAMES:
            raise InvalidArgumentError(
                f"reverb_type must be one of {sorted(REVERB_NAMES)}, "
                f"got {self.reverb_type}"
            )


@dataclass(frozen=True)
class MixResult:
    """A rendered stereo program plus bookkeeping for manifests and logs.

    peak_level/clipped describe the returned audio; with normalize="peak"
    the peak is 1 and clipped is False even if the raw sum exceeded 1.
    """

    audio: AudioBuffer
    peak_level: float
    clipped: bool
    track_plans: tuple[tuple[str, InterpolationPlan], ...] = field(default=())


def _check_ir_set(cfg: MixConfig, ir_set: IRSet):
    if (
        ir_set.subject_id != cfg.subject_id
        or ir_set.ir_type != cfg.ir_type
        or ir_set.sample_rate_hz != cfg.sample_rate_hz
    ):
        raise InvalidArgumentError(
            "IR set does not match config: set is "
            f"({ir_set.subject_id}, {ir_set.ir_type.value}, {ir_set.sample_rate_hz}), "
            f"config wants ({cfg.subject_id}, {cfg.ir_type.value}, "
            f"{cfg.sample_rate_hz})"
        )


def _track_source(
    track: TrackObject, sample_rate_hz: int, reverb_type: int, reverbs
) -> AudioBuffer:
    """Level gain then reverb, as a read-only buffer that jobs differing
    only in direction, layout or mode may share. Reverb at amount 0 is
    skipped entirely so dry tracks keep their natural length (no silent
    multi-second tails)."""
    if track.audio.sample_rate_hz != sample_rate_hz:
        raise InvalidArgumentError(
            f"track {track.name!r}: sample rate {track.audio.sample_rate_hz} "
            f"!= config rate {sample_rate_hz}"
        )
    sig = AudioBuffer(track.audio.samples * track.level, sample_rate_hz)
    if track.reverb > 0.0:
        sig = apply_reverb(sig, reverbs[reverb_type], track.reverb)
    sig.samples.flags.writeable = False
    return sig


def _finish(rendered, n_input: int, cfg: MixConfig, plans=()) -> MixResult:
    """The stereo arrays in ``rendered`` summed aligned at sample 0, in list
    order, and cut to ``n_input`` samples (the longest input) unless
    cfg.keep_tail; then peak-measured and normalized as cfg says.

    The arrays are the caller's to overwrite. Three or more are summed into
    a zeroed buffer. One or two are summed in the longest (the last of equal
    lengths), after adding 0.0 to it: ``b + 0.0 + a`` rounds as the zeroed
    buffer's ``0.0 + a + b``, -0.0 becoming +0.0 as it did, so a lone render
    is finished in its own buffer with the same bits. Normalizing divides
    the sum in place.
    """
    target = max(len(r) for r in rendered)
    if not cfg.keep_tail:
        target = min(target, n_input)
    if len(rendered) > 2:
        out, rest = np.zeros((target, 2)), rendered
    else:
        *rest, out = sorted(rendered, key=len)
        out = out[:target]
        out += 0.0
    for r in rest:
        n = min(len(r), target)
        out[:n] += r[:n]
    # a NaN anywhere makes both extremes, and so the peak, NaN; a finite
    # peak proves every sample finite
    peak = float(max(out.max(), -out.min()))
    finite, clipped = math.isfinite(peak), peak > 1.0
    if cfg.normalize == "peak" and peak > 0.0:
        out /= peak
        peak, clipped = 1.0, False
    elif clipped:
        warnings.warn(
            f"mix peak {peak:.4f} exceeds 1.0; output left unclamped",
            stacklevel=3,
        )
    if not finite:
        raise InvalidArgumentError("audio buffer contains non-finite samples")
    return MixResult(AudioBuffer._finite(out, cfg.sample_rate_hz), peak, clipped, tuple(plans))


def mix_tracks_binaural(
    tracks,
    cfg: MixConfig,
    ir_set: IRSet,
    reverbs: dict[int, ReverbModel] | None = None,
) -> MixResult:
    """Render each track at its direction and sum to one stereo program.

    Per track: level gain, reverb, then the IR ``source_ir`` picks
    (free-field when cfg.speaker_layout is None, otherwise amplitude-panned
    over that layout's speakers). Tracks are aligned at sample 0 and
    rendered by one ``binaural_sum`` call: two or more tracks form a bus
    sharing each inverse transform, and a lone track renders exactly as
    its dataset row does. keep_tail=False trims the output to the longest
    input track.
    """
    tracks = list(tracks)
    if not tracks:
        raise InvalidArgumentError("mix_tracks_binaural needs at least one track")
    _check_ir_set(cfg, ir_set)
    if reverbs is None:
        reverbs = default_reverbs(cfg.sample_rate_hz)
    layout = None
    if cfg.speaker_layout is not None:
        layout = get_layout(cfg.speaker_layout)

    sources, plans = [], []
    for track in tracks:
        sig = _track_source(track, cfg.sample_rate_hz, cfg.reverb_type, reverbs)
        p, ir = source_ir(track.direction, ir_set, cfg.interpolation_mode, layout)
        sources.append((sig.samples, ir))
        plans.append((track.name, p))

    n_input = max(t.audio.n_samples for t in tracks)
    return _finish([binaural_sum(sources)], n_input, cfg, plans)


def mix_tracks_stereo(
    tracks,
    pan_map: dict[str, float],
    cfg: MixConfig,
    reverbs: dict[int, ReverbModel] | None = None,
) -> MixResult:
    """Constant-power stereo mix; pan_map maps track name to pan in [-1, 1].

    Track directions are ignored; level and reverb apply as in the
    binaural mixer.
    """
    tracks = list(tracks)
    if not tracks:
        raise InvalidArgumentError("mix_tracks_stereo needs at least one track")
    missing = [t.name for t in tracks if t.name not in pan_map]
    if missing:
        raise InvalidArgumentError(f"pan_map missing tracks: {', '.join(missing)}")
    if reverbs is None:
        reverbs = default_reverbs(cfg.sample_rate_hz)

    rendered = []
    for track in tracks:
        sig = _track_source(track, cfg.sample_rate_hz, cfg.reverb_type, reverbs)
        gl, gr = pan_constant_power(pan_map[track.name])
        rendered.append(np.column_stack([sig.samples * gl, sig.samples * gr]))

    return _finish(rendered, max(t.audio.n_samples for t in tracks), cfg)


def render_surround_to_binaural(
    program: AudioBuffer,
    input_layout: str,
    output_layout: str,
    cfg: MixConfig,
    ir_set: IRSet,
) -> MixResult:
    """Render a channel-encoded surround program to binaural stereo.

    Every non-LFE channel is convolved with the IR ``source_ir`` picks at
    its input-layout direction. Same input and output layout: the plan is
    ``nearest`` over the stored points, and a speaker farther than
    ``SNAP_THRESHOLD_DEG`` (2 degrees) from every point is an error,
    surfacing coverage gaps. Each channel is its own one-source
    ``binaural_sum`` (one ``fft_convolve``) and the results are summed in
    channel order, so a pass-through render is exactly the time-domain sum
    of its speaker IRs. Different layouts: the plan uses
    cfg.interpolation_mode over the output layout's speakers, these plans
    are returned in track_plans, and the channels are rendered as one
    ``binaural_sum`` bus, which rounds differently from that sum.
    LFE channels feed both ears equally at -3 dB with no spatialization.
    """
    _check_ir_set(cfg, ir_set)
    in_l = get_layout(input_layout)
    out_l = get_layout(output_layout)
    if program.sample_rate_hz != cfg.sample_rate_hz:
        raise InvalidArgumentError(
            f"program sample rate {program.sample_rate_hz} != "
            f"config rate {cfg.sample_rate_hz}"
        )
    if program.n_channels != in_l.channel_count:
        raise FormatError(
            f"channel count mismatch for layout {in_l.name}: "
            f"expected {in_l.channel_count}, got {program.n_channels}"
        )

    same = in_l.name == out_l.name
    mode = InterpolationMode.NEAREST if same else cfg.interpolation_mode
    layout = None if same else out_l
    rendered, sources, plans = [], [], []
    for i, channel in enumerate(in_l.channels):
        chan = program.samples[:, i]
        if channel.is_lfe:
            feed = chan * _LFE_GAIN
            rendered.append(np.column_stack([feed, feed]))
            continue
        p, ir = source_ir(channel.direction, ir_set, mode, layout)
        if same and p.achieved_error_deg > SNAP_THRESHOLD_DEG:
            d = channel.direction
            raise NotFoundError(
                f"no stored IR within {SNAP_THRESHOLD_DEG:g} degrees of speaker "
                f"{channel.label} at ({d.azimuth_deg:g}, {d.elevation_deg:g}); "
                f"nearest is {p.achieved_error_deg:.2f} degrees away"
            )
        if same:
            rendered.append(binaural_sum([(chan, ir)]))
        else:
            sources.append((chan, ir))
            plans.append((channel.label, p))
    if sources:
        rendered.append(binaural_sum(sources))

    return _finish(rendered, program.n_samples, cfg, plans)
