import warnings

import numpy as np
import pytest

from binauralkit.dsp import (AudioBuffer, binaural_sum, default_reverbs, fft_convolve,
                             pan_constant_power)
from binauralkit.errors import (
    FormatError,
    InvalidArgumentError,
    NotFoundError,
    UnsupportedLayoutError,
)
from binauralkit.geometry import Direction
from binauralkit.interpolation import InterpolationMode
from binauralkit.ir_store import IRPoint, IRType, nearest_point
from binauralkit.layouts import get_layout
from binauralkit.mixer import (
    MixConfig,
    TrackObject,
    _finish,
    mix_tracks_binaural,
    mix_tracks_stereo,
    render_surround_to_binaural,
)
from binauralkit.wavio import write_wav


def _cfg(**kw):
    base = dict(subject_id="SYN1", sample_rate_hz=48000)
    base.update(kw)
    return MixConfig(**base)


def _noise_track(name, n, seed, **kw):
    rng = np.random.default_rng(seed)
    return TrackObject(name, AudioBuffer(0.2 * rng.standard_normal(n), 48000), **kw)


def test_finalize_peak_is_the_largest_magnitude():
    rng = np.random.default_rng(22)
    for out in (rng.standard_normal((40, 2)), -np.abs(rng.standard_normal((40, 2))),
                np.abs(rng.standard_normal((40, 2))), np.zeros((4, 2))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = _finish([out], len(out), _cfg(), [])
        assert result.peak_level == float(np.max(np.abs(out)))
        assert result.clipped == (result.peak_level > 1.0)
    out = rng.standard_normal((40, 2))
    out[17, 1] = np.nan
    for normalize in ("off", "peak"):
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            _finish([out], len(out), _cfg(normalize=normalize), [])


@pytest.mark.parametrize("normalize", ["off", "peak"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_rendered", [1, 3])
def test_finish_of_a_non_finite_mix_warns_then_raises(bad, normalize, n_rendered):
    """A NaN peak clips nothing; an infinite one is a clip, warned of
    unless normalizing, where dividing by it makes a NaN; either way the mix
    fails."""
    rendered = [0.1 * np.ones((40, 2)) for _ in range(n_rendered)]
    rendered[-1][17, 1] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidArgumentError) as e:
            _finish(rendered, 40, _cfg(normalize=normalize), [])
    assert str(e.value) == "audio buffer contains non-finite samples"
    want = {"off": [(UserWarning, "mix peak inf exceeds 1.0; output left unclamped")],
            "peak": [(RuntimeWarning, "invalid value encountered in divide")]}
    assert [(w.category, str(w.message)) for w in caught] == (
        want[normalize] if np.isinf(bad) else [])


def _zeroed_finish(rendered, n_input, keep_tail, normalize):
    """_finish's samples as it made them before it summed in a rendered
    buffer: every array added, in list order, into a zeroed buffer, which is
    then divided by its peak when normalizing."""
    target = max(len(r) for r in rendered)
    if not keep_tail:
        target = min(target, n_input)
    out = np.zeros((target, 2))
    for r in rendered:
        n = min(len(r), target)
        out[:n] += r[:n]
    peak = np.max(np.abs(out))
    if normalize == "peak" and peak > 0.0:
        out = out / peak
    return out


def _signed_zeros(rng, n):
    """0.1-scale noise (n, 2) with +0.0 and -0.0 samples among it."""
    r = 0.1 * rng.standard_normal((n, 2))
    r[::7] = 0.0
    r[3::7] = -0.0
    r[5::11, 1] = -0.0
    return r


@pytest.mark.parametrize("lengths", [(300,), (300, 200), (200, 300), (250, 250),
                                     (300, 120, 200), (120, 300, 120)])
@pytest.mark.parametrize("keep_tail", [True, False])
@pytest.mark.parametrize("normalize", ["off", "peak"])
def test_finish_rounds_as_a_zeroed_buffer(lengths, keep_tail, normalize):
    rng = np.random.default_rng(len(lengths) * 1000 + lengths[0])
    rendered = [_signed_zeros(rng, n) for n in lengths]
    if len(lengths) > 1:
        # sums that cancel exactly, and -0.0 met by -0.0
        rendered[1][10] = -rendered[0][10]
        rendered[0][14] = rendered[1][14] = -0.0
    want = _zeroed_finish([r.copy() for r in rendered], 160, keep_tail, normalize)
    result = _finish(rendered, 160, _cfg(keep_tail=keep_tail, normalize=normalize))
    got = result.audio.samples
    assert got.shape == want.shape == ((max(lengths) if keep_tail else 160), 2)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()
    if normalize == "off":
        assert result.peak_level == float(np.max(np.abs(want)))


@pytest.mark.parametrize("keep_tail", [True, False])
@pytest.mark.parametrize("normalize", ["off", "peak"])
def test_finish_of_one_render_keeps_its_buffer(keep_tail, normalize):
    # a dataset row or a mix_tracks_binaural call finishes in the array its
    # convolution returned: no zeroed copy, and no copy to normalize
    r = _signed_zeros(np.random.default_rng(26), 300)
    want = _zeroed_finish([r.copy()], 200, keep_tail, normalize)
    result = _finish([r], 200, _cfg(keep_tail=keep_tail, normalize=normalize))
    assert np.shares_memory(result.audio.samples, r)
    assert result.audio.samples.tobytes() == want.tobytes()


def test_stereo_mix_hard_pan_writes_positive_zeros(tmp_path):
    # a hard pan's silent side is 0.0 * x, which is -0.0 where x < 0; the
    # zeroed buffer made it +0.0, and a float32 WAV would write the sign
    a = _noise_track("a", 256, 27)
    b = _noise_track("b", 128, 28)
    for tracks, pans in (([a], {"a": -1.0}), ([a, b], {"a": -1.0, "b": -1.0}),
                         ([a, b], {"a": -1.0, "b": 0.5})):
        rendered = []
        for t in tracks:
            gl, gr = pan_constant_power(pans[t.name])
            rendered.append(np.column_stack([t.audio.samples * gl, t.audio.samples * gr]))
        assert np.signbit(rendered[0][rendered[0] == 0.0]).any()
        want = _zeroed_finish(rendered, 256, True, "off")
        got = mix_tracks_stereo(tracks, pans, _cfg()).audio.samples
        assert got.tobytes() == want.tobytes()
        write_wav(tmp_path / "got.wav", 48000, got, "float32")
        write_wav(tmp_path / "want.wav", 48000, want, "float32")
        assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_one_tap_render_of_zeros_writes_positive_zeros(tmp_path):
    # through a 1-tap IR, fft_convolve is the product x * h[0]: 0.0 times a
    # negative tap is -0.0, which a dataset row must still write as +0.0
    x = np.array([0.0, 0.25, -0.0, -0.5, 0.0, 0.125])
    ir = IRPoint(Direction(0.0, 0.0), np.array([-0.5]), np.array([0.25]))
    render = binaural_sum([(x, ir)])
    assert np.signbit(render[render == 0.0]).any()
    want = _zeroed_finish([render.copy()], len(x), True, "off")
    got = _finish([render], len(x), _cfg()).audio.samples
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()
    write_wav(tmp_path / "row.wav", 48000, got, "float32")
    write_wav(tmp_path / "want.wav", 48000, want, "float32")
    assert (tmp_path / "row.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_track_object_validation():
    with pytest.raises(InvalidArgumentError):
        TrackObject("st", AudioBuffer(np.ones((8, 2)), 48000))
    with pytest.warns(UserWarning, match="level") as hot:
        t = TrackObject("hot", AudioBuffer(np.ones(8), 48000), level=1.5)
    assert t.level == 1.0
    with pytest.warns(UserWarning, match="reverb") as wet:
        t = TrackObject("wet", AudioBuffer(np.ones(8), 48000), reverb=-0.2)
    assert t.reverb == 0.0
    # the warning names the line that built the track
    assert [w.filename for w in [*hot, *wet]] == [__file__] * 2
    t = TrackObject("back", AudioBuffer(np.ones(8), 48000), azimuth_deg=-90.0)
    assert t.direction.azimuth_deg == 270.0


@pytest.mark.parametrize("field", ["level", "reverb"])
def test_track_object_rejects_nan_amounts(field):
    # NaN fails every comparison, so clamping would have made it 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=f"track 'n': {field} is NaN"):
            TrackObject("n", AudioBuffer(np.ones(8), 48000), **{field: float("nan")})


@pytest.mark.parametrize("field", ["level", "reverb", "azimuth_deg", "elevation_deg"])
@pytest.mark.parametrize("value", ["x", None, True])
def test_track_object_rejects_non_numeric_settings(field, value):
    with pytest.raises(InvalidArgumentError) as e:
        TrackObject("a", AudioBuffer(np.ones(8), 48000), **{field: value})
    assert str(e.value) == f"track 'a': {field} must be a number, got {value!r}"


def test_mix_config_validation():
    cfg = _cfg(ir_type="hrir", interpolation_mode="three_point")
    assert cfg.ir_type is IRType.HRIR
    assert cfg.interpolation_mode is InterpolationMode.THREE_POINT
    with pytest.raises(InvalidArgumentError):
        _cfg(reverb_type=5)
    with pytest.raises(InvalidArgumentError):
        _cfg(normalize="loudness")
    with pytest.raises(UnsupportedLayoutError):
        _cfg(speaker_layout="6.1")
    with pytest.raises(InvalidArgumentError):
        _cfg(ir_type="hrtf")
    # int() would truncate these to Office and 48000
    with pytest.raises(InvalidArgumentError, match="reverb_type must be an integer, got 2.9"):
        _cfg(reverb_type=2.9)
    with pytest.raises(InvalidArgumentError, match="sample_rate must be an integer"):
        _cfg(sample_rate_hz=48000.5)
    assert _cfg(sample_rate_hz=48000.0, reverb_type=2.0).reverb_type == 2


def test_mix_rejects_mismatched_ir_set(lebedev_set):
    t = _noise_track("a", 64, 1)
    with pytest.raises(InvalidArgumentError, match="does not match"):
        mix_tracks_binaural([t], _cfg(subject_id="OTHER"), lebedev_set)
    with pytest.raises(InvalidArgumentError, match="does not match"):
        mix_tracks_binaural([t], _cfg(sample_rate_hz=44100), lebedev_set)


def test_mix_rejects_a_track_at_another_rate(lebedev_set):
    t = TrackObject("a", AudioBuffer(np.ones(64), 44100))
    with pytest.raises(InvalidArgumentError) as e:
        mix_tracks_binaural([t], _cfg(), lebedev_set)
    assert str(e.value) == "track 'a': sample rate 44100 != config rate 48000"


@pytest.mark.parametrize("n_wet", [1, 2, 3])
def test_mix_rejects_reverbs_at_another_rate(lebedev_set, n_wet):
    # checked before the path is chosen: three wet tracks would share the
    # send, fewer reverb one by one
    from binauralkit import mixer

    tracks = [_noise_track(f"w{i}", 64, i, reverb=0.5) for i in range(n_wet)]
    assert mixer._shares_send(tracks, 128, 96_000) == (n_wet == 3)
    with pytest.raises(InvalidArgumentError) as e:
        mix_tracks_binaural(tracks, _cfg(), lebedev_set, default_reverbs(44100))
    assert str(e.value) == "sample rate mismatch: signal 48000 != reverb 44100"


def test_mix_requires_tracks(lebedev_set):
    with pytest.raises(InvalidArgumentError):
        mix_tracks_binaural([], _cfg(), lebedev_set)


def test_single_track_matches_direct_render(lebedev_set):
    t = _noise_track("solo", 256, 2, azimuth_deg=70.0, elevation_deg=10.0)
    res = mix_tracks_binaural([t], _cfg(), lebedev_set)
    from binauralkit.dsp import render_source_binaural

    ref = render_source_binaural(
        t.audio, t.direction, lebedev_set, InterpolationMode.AUTO
    )
    assert np.array_equal(res.audio.samples, ref.audio.samples)
    assert res.track_plans[0][0] == "solo"
    assert res.track_plans[0][1] == ref.plan
    assert res.peak_level == float(np.max(np.abs(ref.audio.samples)))
    assert not res.clipped


def test_superposition(lebedev_set):
    a = _noise_track("a", 300, 3, azimuth_deg=30.0)
    b = _noise_track("b", 200, 4, azimuth_deg=300.0, elevation_deg=40.0)
    both = mix_tracks_binaural([a, b], _cfg(), lebedev_set)
    only_a = mix_tracks_binaural([a], _cfg(), lebedev_set)
    only_b = mix_tracks_binaural([b], _cfg(), lebedev_set)
    n = both.audio.n_samples
    acc = np.zeros((n, 2))
    acc[: only_a.audio.n_samples] += only_a.audio.samples
    acc[: only_b.audio.n_samples] += only_b.audio.samples
    assert np.allclose(both.audio.samples, acc, atol=1e-12)


def test_level_scales_linearly(lebedev_set):
    full = _noise_track("x", 128, 5, azimuth_deg=45.0, level=1.0)
    half = _noise_track("x", 128, 5, azimuth_deg=45.0, level=0.5)
    r_full = mix_tracks_binaural([full], _cfg(), lebedev_set)
    r_half = mix_tracks_binaural([half], _cfg(), lebedev_set)
    assert np.allclose(r_half.audio.samples, 0.5 * r_full.audio.samples, atol=1e-15)

    two_halves = mix_tracks_binaural([half, half], _cfg(), lebedev_set)
    assert np.allclose(two_halves.audio.samples, r_full.audio.samples, atol=1e-12)


def test_reverb_lengthens_and_keep_tail_trims(lebedev_set):
    dry = _noise_track("d", 100, 6)
    wet = _noise_track("d", 100, 6, reverb=0.4)
    cfg = _cfg()
    r_dry = mix_tracks_binaural([dry], cfg, lebedev_set)
    r_wet = mix_tracks_binaural([wet], cfg, lebedev_set)
    ir_n = len(default_reverbs(48000)[1].ir)
    assert r_dry.audio.n_samples == 100 + lebedev_set.ir_length - 1
    assert r_wet.audio.n_samples == 100 + ir_n - 1 + lebedev_set.ir_length - 1

    trimmed = mix_tracks_binaural([wet], _cfg(keep_tail=False), lebedev_set)
    assert trimmed.audio.n_samples == 100
    assert np.array_equal(trimmed.audio.samples, r_wet.audio.samples[:100])


# seconds of each track (vocals, guitar, keys, drums; drums is dry) and
# the mix settings of each case
SCIPY_CASES = {
    "quickstart": ((1.0, 1.0, 1.0, 1.0), {}),
    "longest_dry": ((1.0, 0.5, 1.0, 3.5), {}),  # outlasts every wet tail
    "wet_shorter_than_reverb": ((1.0, 1.0, 0.1, 1.0), {}),
    "longest_wet": ((3.0, 1.0, 1.0, 0.5), {}),
    "7.1.4": ((1.0, 1.0, 1.0, 1.0), {"speaker_layout": "7.1.4"}),
    "peak": ((1.0, 1.0, 1.0, 1.0), {"normalize": "peak"}),
    "one_tap": ((1.0, 1.0, 1.0, 1.0), {}),  # binaural_sum's length-1 transforms
}


@pytest.mark.parametrize("case, reverb_type, keep_tail", [
    # 2 s and 0.3 s reverbs; the quickstart cases keep their ids
    pytest.param(case, reverb_type, keep_tail, id="-".join(
        [str(keep_tail), str(reverb_type)] + [case] * (case != "quickstart")))
    for case in SCIPY_CASES for reverb_type in (1, 3) for keep_tail in (True, False)
])
def test_quickstart_sized_mix_matches_scipy(lebedev_set, case, reverb_type, keep_tail):
    # four tracks, three of them wet, like the Quickstart scene; each is
    # levelled, reverbed and convolved with its blended IR by scipy
    signal = pytest.importorskip("scipy.signal")
    from binauralkit.dsp import source_ir
    from binauralkit.ir_store import IRSet

    seconds, settings = SCIPY_CASES[case]
    ir_set = lebedev_set
    if case == "one_tap":  # each stored IR's first tap
        ir_set = IRSet("SYN1", IRType.HRIR, 48000, [
            IRPoint(p.direction, p.left[:1], p.right[:1]) for p in lebedev_set.points])
    specs = [("vocals", 220, 0.9, 0.2, 0, 0), ("guitar", 330, 0.7, 0.1, 45, 0),
             ("keys", 440, 0.6, 0.3, 315, 10), ("drums", 110, 0.8, 0.0, 180, -10)]
    tracks = []
    for (name, f, level, reverb, az, el), secs in zip(specs, seconds):
        t = np.arange(int(secs * 48000)) / 48000
        tracks.append(TrackObject(
            name, AudioBuffer(0.4 * np.sin(2 * np.pi * f * t) * np.exp(-1.5 * t), 48000),
            level, reverb, az, el))
    cfg = _cfg(reverb_type=reverb_type, keep_tail=keep_tail, **settings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a peak over 1 is compared, not clipped
        res = mix_tracks_binaural(tracks, cfg, ir_set)
    reverb_ir = default_reverbs(48000)[reverb_type].ir
    layout = get_layout(cfg.speaker_layout) if cfg.speaker_layout else None
    parts = []
    for track in tracks:
        x = track.level * track.audio.samples
        if track.reverb > 0.0:
            dry = np.concatenate([x, np.zeros(len(reverb_ir) - 1)])
            x = (1.0 - track.reverb) * dry + track.reverb * signal.fftconvolve(x, reverb_ir)
        _, ir = source_ir(track.direction, ir_set, layout=layout)
        parts.append(signal.fftconvolve(x[:, None], np.column_stack([ir.left, ir.right]),
                                        axes=0))
    want = np.zeros((max(len(p) for p in parts), 2))
    for p in parts:
        want[:len(p)] += p
    if not keep_tail:
        want = want[:max(t.audio.n_samples for t in tracks)]
    if cfg.normalize == "peak":
        want /= np.max(np.abs(want))
    assert res.audio.samples.shape == want.shape
    assert np.max(np.abs(res.audio.samples - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n_wet", [1, 2, 3, 5])
def test_wet_tracks_share_one_reverb_send(lebedev_set, monkeypatch, n_wet):
    # a mix of three or more wet tracks transforms the reverb IR once and
    # each ear of the send once forward and once back: 5 long transforms,
    # where reverbing each track takes 2 per track and an IR spectrum per
    # length; one or two wet tracks keep that path, which takes no more
    from binauralkit import dsp, mixer

    reverbs = default_reverbs(48000)
    model = reverbs[3]  # 0.3 s: every longer transform is the reverb's
    tracks = [_noise_track(f"w{i}", 5000 + 900 * i, 60 + i, azimuth_deg=40.0 * i,
                           level=0.3, reverb=0.2 + 0.1 * i) for i in range(n_wet)]
    tracks.append(_noise_track("dry", 9000, 59, azimuth_deg=200.0, level=0.3))
    rfft, irfft = np.fft.rfft, np.fft.irfft
    seen = {"ir": 0, "forward": 0, "inverse": 0, "sends": 0, "reverbs": 0}

    def counting_rfft(a, n=None, *args, **kwargs):
        if np.shares_memory(a, model.ir):
            seen["ir"] += 1
        elif n is not None and n >= len(model.ir):
            seen["forward"] += 1
        return rfft(a, n, *args, **kwargs)

    def counting_irfft(a, n=None, *args, **kwargs):
        seen["inverse"] += n is not None and n >= len(model.ir)
        return irfft(a, n, *args, **kwargs)

    def counting(name, real):
        def spy(*args):
            seen[name] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    monkeypatch.setattr(mixer, "_send_mix", counting("sends", mixer._send_mix))
    monkeypatch.setattr(mixer, "apply_reverb", counting("reverbs", dsp.apply_reverb))
    res = mix_tracks_binaural(tracks, _cfg(reverb_type=3), lebedev_set, reverbs)
    monkeypatch.undo()
    if n_wet < 3:
        assert seen == {"ir": n_wet, "forward": n_wet, "inverse": n_wet, "sends": 0,
                        "reverbs": n_wet}
    else:
        assert seen == {"ir": 1, "forward": 2, "inverse": 2, "sends": 1, "reverbs": 0}
    # the same mix as the sum of its one-track mixes
    want = np.zeros_like(res.audio.samples)
    for t in tracks:
        one = mix_tracks_binaural([t], _cfg(reverb_type=3), lebedev_set, reverbs).audio.samples
        want[:len(one)] += one
    assert np.max(np.abs(res.audio.samples - want)) <= 1e-12 * np.max(np.abs(want))


def test_send_is_kept_off_where_it_transforms_more():
    from binauralkit import mixer

    def shares(*specs):  # (seconds, reverb) per track; 256-tap IRs, 2 s reverb
        tracks = [TrackObject(str(i), AudioBuffer(np.ones(int(secs * 48000)), 48000),
                              reverb=r) for i, (secs, r) in enumerate(specs)]
        return mixer._shares_send(tracks, 256, 96_000)

    # the bench scene and the Quickstart's lengths take the send
    assert shares(*[(2, 0.2)] * 3, (2, 0.0))
    assert shares(*[(1, 0.3)] * 3, (1, 0.0))
    # two wet tracks: the send saves no long transform
    assert not shares((2, 0.3), (2, 0.3), (2, 0.0))
    assert not shares((60, 0.3), (0.1, 0.3))
    # a long wet track beside short ones, and short wet tracks over a long
    # dry bed: the send would transform the long track once per ear, or
    # its bus back in four columns
    assert not shares((30, 0.3), (1, 0.3), (1, 0.3))
    assert not shares(*[(1, 0.2)] * 3, (30, 0.0))


def test_reverb_type_selects_model(lebedev_set):
    wet = _noise_track("w", 80, 7, reverb=1.0)
    a = mix_tracks_binaural([wet], _cfg(reverb_type=1), lebedev_set)
    b = mix_tracks_binaural([wet], _cfg(reverb_type=3), lebedev_set)
    assert a.audio.n_samples != b.audio.n_samples


def test_normalize_peak(lebedev_set):
    hot = TrackObject("hot", AudioBuffer(np.ones(64), 48000), azimuth_deg=90.0)
    tracks = [hot] * 6
    with pytest.warns(UserWarning, match="peak"):
        raw = mix_tracks_binaural(tracks, _cfg(), lebedev_set)
    assert raw.clipped and raw.peak_level > 1.0

    norm = mix_tracks_binaural(tracks, _cfg(normalize="peak"), lebedev_set)
    assert norm.peak_level == 1.0
    assert not norm.clipped
    assert float(np.max(np.abs(norm.audio.samples))) == 1.0
    assert np.allclose(
        norm.audio.samples, raw.audio.samples / raw.peak_level, atol=1e-15
    )


def test_mix_determinism(lebedev_set):
    tracks = [
        _noise_track("a", 150, 8, azimuth_deg=10.0, reverb=0.3),
        _noise_track("b", 90, 9, azimuth_deg=200.0, elevation_deg=-20.0, level=0.7),
    ]
    r1 = mix_tracks_binaural(tracks, _cfg(), lebedev_set)
    r2 = mix_tracks_binaural(tracks, _cfg(), lebedev_set)
    assert np.array_equal(r1.audio.samples, r2.audio.samples)
    assert r1.track_plans == r2.track_plans


def test_stereo_mix_hard_and_center_pans():
    a = _noise_track("a", 256, 10)
    b = _noise_track("b", 256, 11)
    cfg = _cfg()
    res = mix_tracks_stereo([a, b], {"a": -1.0, "b": 1.0}, cfg)
    assert np.allclose(res.audio.samples[:, 0], a.audio.samples, atol=1e-12)
    assert np.allclose(res.audio.samples[:, 1], b.audio.samples, atol=1e-12)

    center = mix_tracks_stereo([a, b], {"a": 0.0, "b": 0.0}, cfg)
    want = (a.audio.samples + b.audio.samples) * 2 ** -0.5
    assert np.allclose(center.audio.samples[:, 0], want, atol=1e-12)
    assert np.allclose(center.audio.samples[:, 1], want, atol=1e-12)


def test_stereo_mix_needs_a_track():
    with pytest.raises(InvalidArgumentError) as e:
        mix_tracks_stereo([], {}, _cfg())
    assert str(e.value) == "mix_tracks_stereo needs at least one track"


def test_stereo_mix_requires_pan_entries():
    a = _noise_track("a", 32, 12)
    with pytest.raises(InvalidArgumentError, match="a"):
        mix_tracks_stereo([a], {}, _cfg())


def test_stereo_mix_constant_power_preserves_energy():
    a = _noise_track("a", 256, 13)
    e_in = float(np.sum(a.audio.samples ** 2))
    for pan in (-1.0, -0.3, 0.0, 0.7, 1.0):
        res = mix_tracks_stereo([a], {"a": pan}, _cfg())
        e_out = float(np.sum(res.audio.samples ** 2))
        assert e_out == pytest.approx(e_in, rel=1e-12)


def test_stereo_mix_uncorrelated_energy_sums():
    # uncorrelated noise tracks: mixed energy matches the per-track sum
    # (cross terms average out; fixed seeds keep this deterministic)
    a = _noise_track("a", 20000, 15)
    b = _noise_track("b", 20000, 16)
    res = mix_tracks_stereo([a, b], {"a": 0.3, "b": -0.6}, _cfg())
    e_mix = float(np.sum(res.audio.samples ** 2))
    e_tracks = float(np.sum(a.audio.samples ** 2) + np.sum(b.audio.samples ** 2))
    assert e_mix == pytest.approx(e_tracks, rel=0.01)


def test_surround_channel_count_mismatch(speaker_set):
    prog = AudioBuffer(np.zeros((64, 6)) + 0.1, 48000)
    with pytest.raises(FormatError, match="expected 8, got 6"):
        render_surround_to_binaural(
            prog, "7.1", "7.1", _cfg(subject_id="RING5"), speaker_set
        )


def test_surround_rejects_a_program_at_another_rate(speaker_set):
    prog = AudioBuffer(np.zeros((64, 8)) + 0.1, 44100)
    with pytest.raises(InvalidArgumentError) as e:
        render_surround_to_binaural(prog, "7.1", "7.1", _cfg(subject_id="RING5"), speaker_set)
    assert str(e.value) == "program sample rate 44100 != config rate 48000"


def test_surround_same_layout_requires_stored_points(lebedev_set):
    prog = AudioBuffer(np.zeros((32, 6)) + 0.1, 48000)
    with pytest.raises(NotFoundError) as err:
        render_surround_to_binaural(prog, "5.1", "5.1", _cfg(), lebedev_set)
    assert str(err.value) == (
        "no stored IR within 2 degrees of speaker L at (30, 0); "
        "nearest is 15.00 degrees away"
    )


def test_surround_same_layout_matches_nearest_point_oracle(speaker_set):
    # each speaker channel convolved with its stored IR, plus the LFE feed,
    # summed in channel order: computed here without the mixer's planning
    rng = np.random.default_rng(41)
    layout = get_layout("7.1.4")
    prog = 0.05 * rng.standard_normal((700, layout.channel_count))
    res = render_surround_to_binaural(
        AudioBuffer(prog, 48000), "7.1.4", "7.1.4", _cfg(subject_id="RING5"),
        speaker_set,
    )
    parts = []
    for i, channel in enumerate(layout.channels):
        if channel.is_lfe:
            feed = prog[:, i] * 2.0 ** -0.5
            parts.append(np.column_stack([feed, feed]))
            continue
        idx, dist = nearest_point(speaker_set, channel.direction)
        assert dist <= 2.0
        point = speaker_set.points[idx]
        parts.append(fft_convolve(prog[:, i], np.column_stack([point.left, point.right])))
    want = np.zeros((max(len(r) for r in parts), 2))
    for r in parts:
        want[:len(r)] += r
    assert np.array_equal(res.audio.samples, want)
    assert res.track_plans == ()


@pytest.mark.filterwarnings("ignore:mix peak")
def test_surround_one_hot_impulse_reproduces_speaker_ir(speaker_set):
    cfg = _cfg(subject_id="RING5")
    layout = get_layout("7.1.4")
    for i, channel in enumerate(layout.channels):
        if channel.is_lfe:
            continue
        prog = np.zeros((1, layout.channel_count))
        prog[0, i] = 1.0
        res = render_surround_to_binaural(
            AudioBuffer(prog, 48000), "7.1.4", "7.1.4", cfg, speaker_set
        )
        idx, dist = nearest_point(speaker_set, channel.direction)
        assert dist <= 2.0
        point = speaker_set.points[idx]
        assert np.array_equal(res.audio.samples[:, 0], point.left)
        assert np.array_equal(res.audio.samples[:, 1], point.right)


def test_surround_lfe_is_diotic_minus_3db(speaker_set):
    cfg = _cfg(subject_id="RING5")
    layout = get_layout("5.1")
    lfe_idx = next(i for i, c in enumerate(layout.channels) if c.is_lfe)
    prog = np.zeros((4, layout.channel_count))
    prog[0, lfe_idx] = 1.0
    prog[2, lfe_idx] = -0.5
    res = render_surround_to_binaural(
        AudioBuffer(prog, 48000), "5.1", "5.1", cfg, speaker_set
    )
    g = 2.0 ** -0.5
    assert res.audio.samples[0, 0] == g and res.audio.samples[0, 1] == g
    assert res.audio.samples[2, 0] == -0.5 * g
    mask = np.ones(res.audio.n_samples, dtype=bool)
    mask[[0, 2]] = False
    assert np.all(res.audio.samples[mask] == 0.0)


def test_surround_cross_layout_plans(speaker_set):
    rng = np.random.default_rng(14)
    cfg = _cfg(subject_id="RING5")
    prog = AudioBuffer(0.1 * rng.standard_normal((128, 6)), 48000)
    res = render_surround_to_binaural(prog, "5.1", "7.1.4", cfg, speaker_set)
    labels = [name for name, _ in res.track_plans]
    assert labels == ["L", "R", "C", "Ls", "Rs"]  # every non-LFE input channel
    for _, p in res.track_plans:
        assert 1 <= len(p.entries) <= 3
        assert sum(w for _, w in p.entries) == pytest.approx(1.0, abs=1e-9)


def test_surround_silent_program_is_silent(speaker_set):
    cfg = _cfg(subject_id="RING5", keep_tail=False)
    prog = AudioBuffer(np.zeros((64, 12)), 48000)
    res = render_surround_to_binaural(prog, "7.1.4", "7.1.4", cfg, speaker_set)
    assert res.audio.n_samples == 64
    assert np.all(res.audio.samples == 0.0)
    assert res.peak_level == 0.0
    assert not res.clipped


@pytest.mark.parametrize("reverb", [0.0, 0.4])
def test_track_source_is_read_only(reverb):
    # dataset jobs that differ only in direction, layout or mode share it
    from binauralkit.mixer import _track_source

    track = _noise_track("a", 256, 23, level=0.5, reverb=reverb)
    sig = _track_source(track, 48000, 3, default_reverbs(48000))
    assert not sig.samples.flags.writeable
    assert len(sig.samples) == (256 if reverb == 0.0 else 256 + int(0.3 * 48000) - 1)
    with pytest.raises(ValueError, match="read-only"):
        sig.samples[0] = 1.0
    assert track.audio.samples.flags.writeable  # the track's own samples stay


def test_array_holders_compare_by_identity(lebedev_set):
    # equal fields, but two objects: == must not compare sample arrays,
    # whose elementwise result has no one truth value
    from binauralkit.dsp import ReverbModel, render_source_binaural

    a, b = AudioBuffer(np.zeros(8), 48000), AudioBuffer(np.zeros(8), 48000)
    assert (a == b) is False and (a == a) is True and a != b
    assert len({a, b, a}) == 2
    shared = np.zeros(8)  # one samples array still makes two buffers
    assert AudioBuffer(shared, 48000) != AudioBuffer(shared, 48000)
    m, n = (ReverbModel(9, "Test", 48000, np.ones(4)) for _ in range(2))
    assert (m == n) is False and (m == m) is True and len({m, n, m}) == 2
    t = TrackObject("t", a)
    assert t == TrackObject("t", a) and t != TrackObject("t", b)
    assert TrackObject("t", b) not in [t]
    r, s = (render_source_binaural(a, Direction(0.0, 0.0), lebedev_set) for _ in range(2))
    assert r == r and r != s
    x, y = (mix_tracks_binaural([t], _cfg(), lebedev_set) for _ in range(2))
    assert x == x and x != y and y not in [x]
    assert len({x, y, x}) == 2
