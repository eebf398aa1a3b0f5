import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit import dsp
from binauralkit.dsp import (
    AudioBuffer,
    ReverbModel,
    apply_reverb,
    binaural_sum,
    default_reverbs,
    fft_convolve,
    load_audio,
    load_reverbs,
    pan_constant_power,
    render_source_binaural,
    resolve_speaker_ir_set,
)
from binauralkit.errors import FormatError, InvalidArgumentError
from binauralkit.geometry import Direction
from binauralkit.interpolation import InterpolationMode, blend, plan
from binauralkit.ir_store import IRPoint
from binauralkit.layouts import get_layout
from binauralkit.wavio import write_wav


def test_audio_buffer_validation():
    AudioBuffer(np.zeros(8), 48000)
    AudioBuffer(np.zeros((8, 2)), 44100)
    with pytest.raises(InvalidArgumentError):
        AudioBuffer(np.zeros((2, 2, 2)), 48000)
    with pytest.raises(InvalidArgumentError):
        AudioBuffer(np.zeros(0), 48000)
    with pytest.raises(InvalidArgumentError):
        AudioBuffer(np.array([1.0, np.nan]), 48000)
    with pytest.raises(InvalidArgumentError):
        AudioBuffer(np.zeros(8), 0)
    buf = AudioBuffer(np.zeros((16, 6)), 48000)
    assert buf.n_samples == 16 and buf.n_channels == 6
    assert AudioBuffer(np.zeros(16), 48000).n_channels == 1


@pytest.mark.parametrize("rate, message", [
    (48000.5, "sample rate must be an integer, got 48000.5"),
    (np.float32(44100.5), f"sample rate must be an integer, got {np.float32(44100.5)!r}"),
    (True, "sample rate must be an integer, got True"),
    (np.True_, f"sample rate must be an integer, got {np.True_!r}"),
    (float("nan"), "sample rate must be an integer, got nan"),
    (float("inf"), "sample rate must be an integer, got inf"),
    ("x", "sample rate must be an integer, got 'x'"),
    (0, "sample rate must be positive, got 0"),
    (-1, "sample rate must be positive, got -1"),
])
def test_audio_buffer_rejects_a_rate_that_is_not_a_positive_integer(rate, message):
    with pytest.raises(InvalidArgumentError) as e:
        AudioBuffer(np.zeros(8), rate)
    assert str(e.value) == message


@pytest.mark.parametrize("rate", [48000, 48000.0, np.int64(48000)])
def test_audio_buffer_keeps_an_integral_rate_as_int(rate):
    buf = AudioBuffer(np.zeros(8), rate)
    assert type(buf.sample_rate_hz) is int and buf.sample_rate_hz == 48000


def test_audio_buffer_keeps_one_column_as_mono():
    column = np.arange(6.0)[:, None]
    buf = AudioBuffer(column, 48000)
    assert buf.samples.shape == (6,) and buf.n_channels == 1
    assert np.array_equal(buf.samples, column[:, 0])


def test_load_audio_squeezes_mono(tmp_path):
    p = tmp_path / "m.wav"
    write_wav(p, 48000, np.arange(10.0)[:, None] / 10.0, encoding="float32")
    buf = load_audio(p)
    assert buf.samples.ndim == 1
    assert buf.sample_rate_hz == 48000


def test_fft_convolve_matches_numpy():
    rng = np.random.default_rng(31)
    for _ in range(60):
        nx = int(rng.integers(1, 400))
        nh = int(rng.integers(1, 90))
        x = rng.standard_normal(nx)
        h = rng.standard_normal(nh)
        ref = np.convolve(x, h)
        out = fft_convolve(x, h)
        assert out.shape == ref.shape
        assert np.allclose(out, ref, atol=1e-9)


def _block_loop_convolve(x, h):
    """The per-block overlap-add loop fft_convolve used to run, one rfft and
    one irfft per block: the bit-exact reference for the batched engine."""
    if len(h) > len(x):
        x, h = h, x
    if len(h) == 1:
        return x * h[0]
    n_out = len(x) + len(h) - 1
    nfft = 1 << max(2, (4 * len(h) - 1).bit_length())
    block = nfft - len(h) + 1
    hf = np.fft.rfft(h, nfft)
    y = np.zeros(n_out)
    for start in range(0, len(x), block):
        seg = x[start:start + block]
        yf = np.fft.irfft(np.fft.rfft(seg, nfft) * hf, nfft)
        stop = min(start + len(seg) + len(h) - 1, n_out)
        y[start:stop] += yf[:stop - start]
    return y


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _edge_lengths(nh):
    """Signal lengths around the block and FFT sizes used for an nh-tap IR,
    plus lengths that fill several batches of blocks."""
    nfft = 1 << max(2, (4 * nh - 1).bit_length())
    block = nfft - nh + 1
    lengths = {1, 2, nh - 1, nh, nh + 1, block - 1, block, block + 1,
               nfft - 1, nfft, nfft + 1, 2 * block, 2 * block + 1,
               64 * block - 1, 64 * block + 5, 130 * block + 3}
    return sorted(n for n in lengths if n >= 1)


@pytest.mark.parametrize("nh", [1, 2, 3, 7, 64, 256])
def test_fft_convolve_bit_identical_to_block_loop(nh):
    rng = np.random.default_rng(nh)
    for nx in _edge_lengths(nh):
        x = rng.standard_normal(nx)
        x[::5] = 0.0  # exact zeros keep their sign through the sums
        hs = rng.standard_normal((nh, 2))
        # mono IR, with the operands in both orders (len(h) > len(x) too)
        assert _same_bits(fft_convolve(x, hs[:, 0]), _block_loop_convolve(x, hs[:, 0]))
        assert _same_bits(fft_convolve(hs[:, 0], x), _block_loop_convolve(hs[:, 0], x))
        # stacks of one and two IRs: each column matches its own mono loop
        for k in (1, 2):
            out = fft_convolve(x, hs[:, :k])
            assert out.shape == (nx + nh - 1, k)
            for j in range(k):
                assert _same_bits(out[:, j], _block_loop_convolve(x, hs[:, j]))


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 3000),
    nh=st.integers(1, 300),
    k=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_convolve_matches_direct_convolution(nx, nh, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nx)
    h = rng.standard_normal(nh if k is None else (nh, k))
    out = fft_convolve(x, h)
    cols = [h] if k is None else [h[:, j] for j in range(k)]
    ref = np.column_stack([np.convolve(x, c) for c in cols])
    if k is None:
        ref = ref[:, 0]
    assert out.shape == ref.shape
    # float64 FFT round-off grows with the norms of the operands
    tol = 1e-12 * np.linalg.norm(x) * np.max(np.linalg.norm(np.atleast_2d(h.T), axis=1))
    assert np.max(np.abs(out - ref)) <= max(tol, 1e-15)


def test_fft_convolve_rejects_bad_shapes():
    for x, h in (
        (np.ones((4, 2)), np.ones(3)),
        (np.ones(4), np.ones((3, 2, 1))),
        (np.ones(0), np.ones(3)),
        (np.ones(4), np.ones((0, 2))),
        (np.ones(4), np.ones((3, 0))),
    ):
        with pytest.raises(InvalidArgumentError):
            fft_convolve(x, h)


def test_fft_convolve_length_one_is_exact_scale():
    x = np.array([0.25, -1.5, 3.0])
    out = fft_convolve(x, np.array([0.5]))
    assert np.array_equal(out, x * 0.5)
    out = fft_convolve(np.array([2.0]), x)
    assert np.array_equal(out, x * 2.0)


def _ir_point(rng, taps):
    return IRPoint(Direction(0.0, 0.0), rng.standard_normal(taps), rng.standard_normal(taps))


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 3000), min_size=1, max_size=5),
    taps=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_binaural_sum_matches_summed_direct_convolutions(lengths, taps, seed):
    rng = np.random.default_rng(seed)
    sources = [(rng.standard_normal(n), _ir_point(rng, taps)) for n in lengths]
    out = binaural_sum(sources)
    ref = np.zeros((max(lengths) + taps - 1, 2))
    for x, ir in sources:
        ref[:len(x) + taps - 1] += np.column_stack(
            [np.convolve(x, ir.left), np.convolve(x, ir.right)]
        )
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_binaural_sum_of_one_source_is_fft_convolve():
    # sources shorter than the IR included: there fft_convolve filters the
    # IR pair by the source
    rng = np.random.default_rng(44)
    for n, taps in ((1, 1), (5, 1), (2, 2), (100, 256), (256, 256), (257, 256),
                    (1000, 3), (2400, 4800), (24_000, 128), (96_000, 256),
                    (100_003, 300)):
        x, ir = rng.standard_normal(n), _ir_point(rng, taps)
        ref = fft_convolve(x, np.column_stack([ir.left, ir.right]))
        assert binaural_sum([(x, ir)]).tobytes() == ref.tobytes()


def _block_loop_bus(sources, gains=None):
    """binaural_sum's bus one block at a time: each block's spectra of the
    sources still running, times their IR spectra, summed in list order, then
    one irfft per block, overlap-added; the bit-exact reference for the
    batched bus, as _block_loop_convolve is for one source."""
    m = len(sources[0][1].pair)
    nfft = 1 << max(2, (4 * m - 1).bit_length())
    block = nfft - m + 1
    spectra = [np.fft.rfft(ir.pair, nfft, axis=0) for _, ir in sources]
    if gains is not None:
        spectra = [np.hstack([dry * s, send * s]) for s, (dry, send) in zip(spectra, gains)]
    n_out = max(len(x) for x, _ in sources) + m - 1
    y = np.zeros((n_out, spectra[0].shape[1]))
    for start in range(0, n_out - m + 1, block):
        acc = None
        for (x, _), s in zip(sources, spectra):
            if start < len(x):
                prod = np.fft.rfft(x[start:start + block], nfft)[:, None] * s
                acc = prod if acc is None else acc + prod
        out = np.fft.irfft(acc, nfft, axis=0)
        stop = min(start + nfft, n_out)
        y[start:stop] += out[:stop - start]
    return y


@pytest.mark.parametrize("batch_samples", [1, dsp._BATCH_SAMPLES, 1 << 40],
                         ids=["block_per_batch", "default", "one_batch"])
def test_convolution_is_the_same_however_blocks_are_batched(monkeypatch, batch_samples):
    # one block per batch, the default cap, and every block in one batch;
    # the signals span several default batches, and the bus's shortest
    # source comes first, so a later, taller one outlasts it
    rng = np.random.default_rng(47)
    monkeypatch.setattr(dsp, "_BATCH_SAMPLES", batch_samples)
    x, hs = rng.standard_normal(30_011), rng.standard_normal((64, 2))
    x[::7] = 0.0
    # mono and stacked IRs, each as the filter and as the longer operand
    for a, b in ((x, hs[:, 0]), (hs[:, 0], x), (x, hs), (hs[:, 0], np.column_stack([x, -x]))):
        out = fft_convolve(a, b)
        cols = [b] if b.ndim == 1 else b.T
        ref = np.column_stack([_block_loop_convolve(a, c) for c in cols])
        assert _same_bits(out, ref if b.ndim == 2 else ref[:, 0])
    sources = [(rng.standard_normal(n), _ir_point(rng, 64)) for n in (5_003, 61_007, 30_011)]
    gains = [(0.7, 0.3), (0.25, 0.5), (1.0, 0.0)]
    assert _same_bits(binaural_sum(sources), _block_loop_bus(sources))
    assert _same_bits(binaural_sum(sources, gains), _block_loop_bus(sources, gains))


@pytest.mark.parametrize("n_sources", [1, 2])
def test_binaural_sum_transforms_each_pair_uncopied(monkeypatch, n_sources):
    """The filter transform reads each IR's own ``pair``, not a re-stacked
    copy, for a lone source and for a bus."""
    rng = np.random.default_rng(46)
    sources = [(rng.standard_normal(2400), _ir_point(rng, 256)) for _ in range(n_sources)]
    want = binaural_sum(sources)
    real_rfft, read = np.fft.rfft, []

    def spy(a, *args, **kwargs):
        read.append(a)
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    assert binaural_sum(sources).tobytes() == want.tobytes()
    for _, ir in sources:
        assert any(a is ir.pair for a in read)


def test_binaural_sum_rejects_mixed_ir_lengths_and_bad_signals():
    rng = np.random.default_rng(45)
    ir8, ir9 = _ir_point(rng, 8), _ir_point(rng, 9)
    for sources in ([], [(np.ones(10), ir8), (np.ones(10), ir9)],
                    [(np.ones((10, 2)), ir8)], [(np.zeros(0), ir8)]):
        with pytest.raises(InvalidArgumentError):
            binaural_sum(sources)


def test_pan_constant_power():
    gl, gr = pan_constant_power(0.0)
    assert gl == pytest.approx(2 ** -0.5, abs=1e-12)
    assert gr == pytest.approx(2 ** -0.5, abs=1e-12)
    gl, gr = pan_constant_power(-1.0)
    assert gl == pytest.approx(1.0, abs=1e-12) and gr == pytest.approx(0.0, abs=1e-12)
    gl, gr = pan_constant_power(1.0)
    assert gl == pytest.approx(0.0, abs=1e-12) and gr == pytest.approx(1.0, abs=1e-12)
    for p in np.linspace(-1, 1, 41):
        gl, gr = pan_constant_power(float(p))
        assert gl * gl + gr * gr == pytest.approx(1.0, abs=1e-12)


def test_pan_clamps_with_warning():
    with pytest.warns(UserWarning, match="pan"):
        assert pan_constant_power(1.7) == pan_constant_power(1.0)
    with pytest.warns(UserWarning):
        assert pan_constant_power(-9.0) == pan_constant_power(-1.0)
    with pytest.raises(InvalidArgumentError):
        pan_constant_power(float("nan"))


def test_default_reverbs_energy_and_names():
    revs = default_reverbs(48000)
    assert set(revs) == {1, 2, 3, 4}
    assert revs[1].name == "Theatre"
    assert revs[2].name == "Office"
    assert revs[3].name == "Small Room"
    assert revs[4].name == "Meeting Room"
    for model in revs.values():
        assert np.sum(model.ir ** 2) == pytest.approx(1.0, abs=1e-9)
    # longest decay time gives the longest response
    assert len(revs[1].ir) > len(revs[4].ir) > len(revs[3].ir)
    again = default_reverbs(48000)
    assert np.array_equal(revs[2].ir, again[2].ir)


def test_reverb_model_normalizes():
    m = ReverbModel(7, "Custom", 48000, np.array([3.0, 4.0]))
    assert np.sum(m.ir ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        m.ir[0] = 9.0
    with pytest.raises(InvalidArgumentError):
        ReverbModel(8, "Silent", 48000, np.zeros(10))


@pytest.mark.parametrize("ir", [np.ones((4, 2)), np.zeros(0)])
def test_reverb_model_needs_a_non_empty_mono_ir(ir):
    with pytest.raises(InvalidArgumentError) as e:
        ReverbModel(8, "Bad", 48000, ir)
    assert str(e.value) == "reverb IR must be non-empty mono"


def test_apply_reverb_extremes_and_midpoint():
    rng = np.random.default_rng(32)
    dry = AudioBuffer(rng.standard_normal(400), 48000)
    model = default_reverbs(48000)[3]

    out0 = apply_reverb(dry, model, 0.0)
    n_wet = dry.n_samples + len(model.ir) - 1
    assert out0.n_samples == n_wet
    assert np.array_equal(out0.samples[: dry.n_samples], dry.samples)
    assert np.all(out0.samples[dry.n_samples:] == 0.0)

    out1 = apply_reverb(dry, model, 1.0)
    ref = np.convolve(dry.samples, model.ir)
    assert np.allclose(out1.samples, ref, atol=1e-9)

    half = apply_reverb(dry, model, 0.5)
    assert np.allclose(half.samples, 0.5 * out0.samples + 0.5 * out1.samples,
                       atol=1e-12)


def test_apply_reverb_clamps_amount():
    dry = AudioBuffer(np.ones(16), 48000)
    model = default_reverbs(48000)[3]
    with pytest.warns(UserWarning, match="reverb"):
        hi = apply_reverb(dry, model, 1.5)
    assert np.allclose(hi.samples, apply_reverb(dry, model, 1.0).samples)


@pytest.mark.parametrize("samples, rate, amount, message", [
    (np.ones((16, 2)), 48000, 0.5, "apply_reverb expects a mono buffer"),
    (np.ones(16), 44100, 0.5, "sample rate mismatch: signal 44100 != reverb 48000"),
    (np.ones(16), 48000, float("nan"), "reverb amount must be finite, got nan"),
])
def test_apply_reverb_rejects_bad_arguments(samples, rate, amount, message):
    with pytest.raises(InvalidArgumentError) as e:
        apply_reverb(AudioBuffer(samples, rate), default_reverbs(48000)[3], amount)
    assert str(e.value) == message


def _reverb_reference(x, ir, amount):
    out = np.zeros(len(x) + len(ir) - 1)
    out[:len(x)] = (1.0 - amount) * x
    return out + amount * np.convolve(x, ir)


# (signal length, IR length, whether the output fits one transform)
_REVERB_SHAPES = [
    (1, 1, True), (4, 1, True), (300, 1, False),  # 1-tap IRs
    (3, 7, True), (150, 400, True), (10, 400, False),  # signals shorter than the IR
    (400, 150, True), (5000, 30, False), (2, 1, True),  # signals longer than the IR
    (257, 257, True),
]


@pytest.mark.parametrize("nx,nh,one_transform", _REVERB_SHAPES)
@pytest.mark.parametrize("amount", [0.0, 0.37, 1.0])
def test_apply_reverb_matches_direct_convolution(nx, nh, one_transform, amount):
    rng = np.random.default_rng(nx * 1000 + nh)
    model = ReverbModel(9, "Test", 48000, rng.standard_normal(nh))
    x = rng.standard_normal(nx)
    out = apply_reverb(AudioBuffer(x, 48000), model, amount).samples
    ref = _reverb_reference(x, model.ir, amount)
    assert out.shape == ref.shape
    if amount == 0.0:
        assert np.array_equal(out, ref)
    else:
        # the tolerance of test_fft_convolve_matches_direct_convolution;
        # the IR is energy-normalized, so its norm is 1
        assert np.max(np.abs(out - ref)) <= max(1e-12 * np.linalg.norm(x), 1e-15)
        assert (dsp._reverb_nfft(nx, nh) is not None) == one_transform


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 3000),
    nh=st.integers(1, 600),
    amount=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_reverb_matches_direct_convolution_property(nx, nh, amount, seed):
    rng = np.random.default_rng(seed)
    model = ReverbModel(9, "Test", 48000, rng.standard_normal(nh))
    x = rng.standard_normal(nx)
    out = apply_reverb(AudioBuffer(x, 48000), model, amount).samples
    ref = _reverb_reference(x, model.ir, amount)
    assert np.max(np.abs(out - ref)) <= max(1e-12 * np.linalg.norm(x), 1e-15)


def _is_235_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_smooth_nfft_is_the_smallest_235_smooth_length():
    smooth = [n for n in range(1, 4200) if _is_235_smooth(n)]
    for n in range(1, 4097):
        got = dsp._smooth_nfft(n)
        assert got == min(s for s in smooth if s >= n), n
    # the benchmark's 2 s signal with the 2 s Theatre IR at 48 kHz
    assert dsp._smooth_nfft(191_999) == 192_000 == 2**9 * 3 * 5**3
    for n in (2**20, 2**20 + 1, 3**13, 5**9 + 1):
        got = dsp._smooth_nfft(n)
        assert got >= n and _is_235_smooth(got)


@pytest.mark.parametrize("nx,nh", [(5000, 30), (10, 400), (300, 1), (70_000, 4_000)])
def test_apply_reverb_fallback_is_fft_convolve(nx, nh):
    rng = np.random.default_rng(nx + nh)
    model = ReverbModel(9, "Test", 48000, rng.standard_normal(nh))
    x = rng.standard_normal(nx)
    out = apply_reverb(AudioBuffer(x, 48000), model, 0.3).samples
    ref = np.zeros(nx + nh - 1)
    ref[:nx] = 0.7 * x
    ref += 0.3 * fft_convolve(x, model.ir)
    assert out.tobytes() == ref.tobytes()
    assert dsp._reverb_nfft(nx, nh) is None


def _dry_first_reverb(x, model, amount):
    """apply_reverb as it was before it scaled the wet buffer in place: the
    scaled dry signal written into a zeroed buffer, then amount * wet added,
    the wet path taken on the same branch apply_reverb takes."""
    n_out = len(x) + len(model.ir) - 1
    out = np.zeros(n_out)
    out[:len(x)] = (1.0 - amount) * x
    if amount > 0.0:
        if n_out <= dsp._partition_nfft(min(len(x), len(model.ir))):
            nfft = dsp._smooth_nfft(n_out)
            spectrum = np.fft.rfft(model.ir, nfft)[None]
            wet = dsp._overlap_add([(x[:, None], spectrum)], len(model.ir), nfft)[:, 0]
        else:
            wet = fft_convolve(x, model.ir)
        out += amount * wet
    return out


def test_apply_reverb_follows_a_write_into_a_used_models_ir():
    # a model keeps nothing derived from its IR: reused, it gives a fresh
    # model's bytes, and a write into its IR shows at the length it was last
    # applied at as at any other, on both branches of _reverb_nfft
    model = default_reverbs(48000)[3]
    rng = np.random.default_rng(48)
    signals = [rng.standard_normal(n) for n in (4_800, 9_000, 96_000)]
    assert [dsp._reverb_nfft(len(x), len(model.ir)) for x in signals] == [19_200, 24_000, None]
    first = AudioBuffer(signals[0], 48000)
    before = apply_reverb(first, model, 0.5).samples
    again = apply_reverb(first, model, 0.5).samples
    fresh = apply_reverb(first, default_reverbs(48000)[3], 0.5).samples
    assert again.tobytes() == fresh.tobytes() == before.tobytes()
    model.ir.flags.writeable = True
    model.ir[0] += 5.0
    for x in signals:
        got = apply_reverb(AudioBuffer(x, 48000), model, 0.5).samples
        assert got.tobytes() == _dry_first_reverb(x, model, 0.5).tobytes()
    assert not np.array_equal(apply_reverb(first, model, 0.5).samples, before)


# (signal length, IR length): the smooth-transform branch, then the
# fft_convolve branch (a short signal with a long IR, and the reverse), and
# its one-sample product (a 1-sample signal, and a 1-tap IR)
@pytest.mark.parametrize("nx,nh", [(400, 150), (150, 400), (10, 4000), (5000, 30),
                                   (1, 300), (300, 1)])
@pytest.mark.parametrize("amount", [0.0, 0.3, 1.0])
def test_apply_reverb_rounds_as_the_dry_first_sum(nx, nh, amount):
    rng = np.random.default_rng(nx * 7 + nh)
    ir = rng.standard_normal(nh)
    ir[1::9] = 0.0
    model = ReverbModel(9, "Test", 48000, ir)
    x = rng.standard_normal(nx)
    x[::5] = 0.0
    x[2::5] = -0.0
    want = _dry_first_reverb(x, model, amount)
    got = apply_reverb(AudioBuffer(x, 48000), model, amount).samples
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("amount", [0.3, 1.0])
def test_reverbed_silent_sample_writes_positive_zeros(tmp_path, amount):
    # a 1-sample 0.0 source convolves as the product ir * 0.0, -0.0 at every
    # negative tap; the zeroed dry tail made those +0.0, and a float32 WAV
    # would write the sign
    model = ReverbModel(9, "Test", 48000, np.random.default_rng(46).standard_normal(300))
    assert np.signbit(fft_convolve(np.array([0.0]), model.ir)).any()
    want = _dry_first_reverb(np.array([0.0]), model, amount)
    got = apply_reverb(AudioBuffer(np.array([0.0]), 48000), model, amount).samples
    assert got.tobytes() == want.tobytes() == bytes(8 * 300)
    write_wav(tmp_path / "got.wav", 48000, got, "float32")
    write_wav(tmp_path / "want.wav", 48000, want, "float32")
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_apply_reverb_makes_no_output_sized_temporary():
    # a 2 s source with the 2 s Theatre IR: the dry-first sum held its zeroed
    # output through the convolution, whose own buffers set the peak, so the
    # peak falls by that one array (give or take a few small objects)
    tracemalloc = pytest.importorskip("tracemalloc")
    model = default_reverbs(48000)[1]
    signal = AudioBuffer(np.random.default_rng(47).standard_normal(96_000), 48000)
    n_out = signal.n_samples + len(model.ir) - 1

    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    old = peak_bytes(lambda: _dry_first_reverb(signal.samples, model, 0.3))
    new = peak_bytes(lambda: apply_reverb(signal, model, 0.3))
    assert old - new >= 8 * n_out - 1024


def test_fft_convolve_matches_scipy():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(40)
    for nx, nh, k in ((1, 1, None), (777, 64, None), (20, 500, None),
                      (9000, 256, 2), (3000, 17, 3), (40, 300, 2)):
        x = rng.standard_normal(nx)
        h = rng.standard_normal(nh if k is None else (nh, k))
        ref = signal.fftconvolve(x if k is None else x[:, None], h, axes=0)
        out = fft_convolve(x, h)
        assert out.shape == ref.shape
        tol = 1e-12 * np.linalg.norm(x) * np.max(np.linalg.norm(np.atleast_2d(h.T), axis=1))
        assert np.max(np.abs(out - ref)) <= max(tol, 1e-15)


def test_apply_reverb_theatre_matches_scipy():
    signal = pytest.importorskip("scipy.signal")
    model = default_reverbs(48000)[1]
    assert len(model.ir) == 96_000  # 2 s
    x = np.random.default_rng(41).standard_normal(96_000)
    out = apply_reverb(AudioBuffer(x, 48000), model, 1.0).samples
    assert dsp._reverb_nfft(96_000, 96_000) == 192_000  # one transform of the whole output
    ref = signal.fftconvolve(x, model.ir)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.linalg.norm(x)


def test_load_reverbs_manifest_overrides_and_falls_back(tmp_path):
    rng = np.random.default_rng(33)
    ir = rng.standard_normal(600)
    (tmp_path / "reverb").mkdir()
    write_wav(tmp_path / "reverb" / "hall.wav", 48000, ir[:, None],
              encoding="float32")
    (tmp_path / "reverb" / "manifest.tsv").write_text("2\thall.wav\n")

    revs = load_reverbs(tmp_path, 48000)
    assert set(revs) == {1, 2, 3, 4}
    want = ir / np.sqrt(np.sum(ir ** 2))
    assert np.allclose(revs[2].ir, want, atol=1e-9)
    assert revs[1].name == "Theatre"  # untouched default

    # no manifest at all: pure defaults
    plain = load_reverbs(tmp_path / "nowhere", 48000)
    assert np.array_equal(plain[4].ir, default_reverbs(48000)[4].ir)


@pytest.mark.parametrize("rate, message", [
    (-5, "sample rate must be positive, got -5"),
    (0, "sample rate must be positive, got 0"),
    (48000.5, "sample rate must be an integer, got 48000.5"),
    (True, "sample rate must be an integer, got True"),
    (np.True_, f"sample rate must be an integer, got {np.True_!r}"),
    ("x", "sample rate must be an integer, got 'x'"),
])
def test_reverbs_reject_a_rate_that_is_not_a_positive_integer(tmp_path, rate, message):
    # before anything is built or read: the manifest lists a file that is
    # not there
    (tmp_path / "reverb").mkdir()
    (tmp_path / "reverb" / "manifest.tsv").write_text("2\tmissing.wav\n")
    for make in (lambda: default_reverbs(rate), lambda: load_reverbs(tmp_path, rate),
                 lambda: ReverbModel(1, "Theatre", rate, np.ones(4))):
        with pytest.raises(InvalidArgumentError) as e:
            make()
        assert str(e.value) == message


def test_load_reverbs_rejects_bad_rows(tmp_path):
    (tmp_path / "reverb").mkdir()
    (tmp_path / "reverb" / "manifest.tsv").write_text("5\tx.wav\n")
    with pytest.raises(FormatError, match="1..4"):
        load_reverbs(tmp_path, 48000)

    (tmp_path / "reverb" / "manifest.tsv").write_text("2\tmissing.wav\n")
    with pytest.raises(FormatError, match="cannot read"):
        load_reverbs(tmp_path, 48000)

    mpath = tmp_path / "reverb" / "manifest.tsv"
    for name, rate, channels, got in [("slow.wav", 44100, 1, "1 at 44100"),
                                      ("wide.wav", 48000, 2, "2 at 48000")]:
        write_wav(tmp_path / "reverb" / name, rate, np.ones((32, channels)),
                  encoding="float32")
        mpath.write_text(f"2\t{name}\n")
        with pytest.raises(FormatError, match="rate") as e:
            load_reverbs(tmp_path, 48000)
        assert str(e.value) == (f"{mpath}:1: {mpath.parent / name}: expected 1 "
                                f"channel(s) at sample rate 48000, got {got}")


def test_load_reverbs_rejects_a_repeated_id(tmp_path):
    (tmp_path / "reverb").mkdir()
    for name in ("a.wav", "b.wav"):
        write_wav(tmp_path / "reverb" / name, 48000, np.ones((32, 1)), encoding="float32")
    mpath = tmp_path / "reverb" / "manifest.tsv"
    mpath.write_text("2\ta.wav\n# a comment\n3\ta.wav\n2\tb.wav\n")
    with pytest.raises(FormatError) as e:
        load_reverbs(tmp_path, 48000)
    assert str(e.value) == f"{mpath}:4: reverb id 2 is already on line 1"


def _eager_default(rid, rate):
    """A default reverb as every model was built before models were built
    on first lookup: seeded noise with its decay."""
    decay = {1: 2.0, 2: 0.5, 3: 0.3, 4: 0.7}[rid]
    n = int(round(decay * rate))
    t = np.arange(n) / rate
    ir = np.random.default_rng(1000 + rid).standard_normal(n) * np.exp(-6.91 * t / decay)
    return ReverbModel(rid, dsp.REVERB_NAMES[rid], rate, ir)


@pytest.mark.parametrize("manifest", [False, True])
def test_reverbs_build_each_default_on_first_lookup(tmp_path, monkeypatch, manifest):
    built = []
    real = dsp.ReverbModel

    def counting(rid, *args):
        built.append(rid)
        return real(rid, *args)

    if manifest:
        (tmp_path / "reverb").mkdir()
        write_wav(tmp_path / "reverb" / "hall.wav", 48000, np.ones((32, 1)), encoding="float32")
        (tmp_path / "reverb" / "manifest.tsv").write_text("2\thall.wav\n")
    monkeypatch.setattr(dsp, "ReverbModel", counting)
    revs = load_reverbs(tmp_path, 48000)
    # the manifest's rows are read and checked up front
    assert built == ([2] if manifest else [])
    assert set(revs) == {1, 2, 3, 4} and len(revs) == 4
    theatre = revs[1]
    assert revs[1] is theatre
    assert built == ([2, 1] if manifest else [1])
    for rid in (3, 4):
        assert revs[rid].ir.tobytes() == _eager_default(rid, 48000).ir.tobytes()
    assert theatre.ir.tobytes() == _eager_default(1, 48000).ir.tobytes()
    assert (revs[2].name, len(revs[2].ir)) == (("Office", 32) if manifest else ("Office", 24000))
    with pytest.raises(KeyError):
        revs[5]


def test_a_mix_builds_only_the_reverb_its_wet_tracks_use(lebedev_set, monkeypatch):
    from binauralkit.mixer import MixConfig, TrackObject, mix_tracks_binaural

    built = []
    real = dsp.ReverbModel
    monkeypatch.setattr(dsp, "ReverbModel", lambda rid, *a: built.append(rid) or real(rid, *a))
    cfg = MixConfig("SYN1", 48000, reverb_type=3)
    rng = np.random.default_rng(40)
    dry = TrackObject("dry", AudioBuffer(0.1 * rng.standard_normal(500), 48000))
    mix_tracks_binaural([dry], cfg, lebedev_set)
    assert built == []
    wet = TrackObject("wet", AudioBuffer(0.1 * rng.standard_normal(500), 48000), reverb=0.5)
    mix_tracks_binaural([dry, wet], cfg, lebedev_set)
    assert built == [3]


@pytest.mark.parametrize("bad, message", [
    (np.inf, "reverb IR 2 contains non-finite samples"),
    (np.nan, "reverb IR 2 contains non-finite samples"),
    (0.0, "reverb IR 2 has no energy"),
])
def test_load_reverbs_names_line_of_unusable_ir(tmp_path, bad, message):
    ir = np.zeros(64) if bad == 0.0 else np.ones(64)
    ir[7] = bad
    (tmp_path / "reverb").mkdir()
    write_wav(tmp_path / "reverb" / "bad.wav", 48000, ir[:, None], encoding="float32")
    mpath = tmp_path / "reverb" / "manifest.tsv"
    mpath.write_text("# id, file\n2\tbad.wav\n")
    with pytest.raises(InvalidArgumentError) as e:
        load_reverbs(tmp_path, 48000)
    assert str(e.value) == f"{mpath}:2: {message}"


def test_render_at_stored_point_is_direct_convolution(lebedev_set):
    rng = np.random.default_rng(34)
    sig = AudioBuffer(rng.standard_normal(256), 48000)
    d = lebedev_set.points[7].direction
    rendered = render_source_binaural(sig, d, lebedev_set)
    assert rendered.plan.entries == ((7, 1.0),)
    ref_l = np.convolve(sig.samples, lebedev_set.points[7].left)
    ref_r = np.convolve(sig.samples, lebedev_set.points[7].right)
    assert np.allclose(rendered.audio.samples[:, 0], ref_l, atol=1e-9)
    assert np.allclose(rendered.audio.samples[:, 1], ref_r, atol=1e-9)
    assert rendered.audio.n_channels == 2


def test_render_blend_equals_post_convolution_mix(lebedev_set):
    rng = np.random.default_rng(35)
    sig = AudioBuffer(rng.standard_normal(200), 48000)
    q = Direction(101.0, 8.0)
    rendered = render_source_binaural(sig, q, lebedev_set, mode="three_point")
    acc = np.zeros((sig.n_samples + lebedev_set.ir_length - 1, 2))
    for i, w in rendered.plan.entries:
        acc[:, 0] += w * np.convolve(sig.samples, lebedev_set.points[i].left)
        acc[:, 1] += w * np.convolve(sig.samples, lebedev_set.points[i].right)
    assert np.allclose(rendered.audio.samples, acc, atol=1e-9)


def test_render_rejects_rate_mismatch(lebedev_set):
    sig = AudioBuffer(np.zeros(32) + 0.5, 44100)
    with pytest.raises(InvalidArgumentError) as e:
        render_source_binaural(sig, Direction(0, 0), lebedev_set)
    assert str(e.value) == "sample rate mismatch: source 44100 != IR set 48000"
    stereo = AudioBuffer(np.zeros((32, 2)) + 0.5, 48000)
    with pytest.raises(InvalidArgumentError) as e:
        render_source_binaural(stereo, Direction(0, 0), lebedev_set)
    assert str(e.value) == "render_source_binaural expects a mono source"


def test_resolve_speaker_ir_set_snaps_stored_points(speaker_set):
    layout = get_layout("7.1.4")
    mini = resolve_speaker_ir_set(speaker_set, layout, InterpolationMode.AUTO)
    dirs = layout.speaker_directions()
    assert len(mini.points) == len(dirs) == 11
    assert mini.subject_id == f"{speaker_set.subject_id}:7.1.4"
    for point, want in zip(mini.points, dirs):
        assert point.direction == want
        from binauralkit.ir_store import nearest_point

        idx, dist = nearest_point(speaker_set, want)
        assert dist <= 1e-5  # arccos floor; direction match is exact
        stored = speaker_set.points[idx]
        assert np.array_equal(point.left, stored.left)
        assert np.array_equal(point.right, stored.right)


def test_resolve_speaker_ir_set_blends_off_grid(lebedev_set):
    layout = get_layout("5.1")
    mini = resolve_speaker_ir_set(lebedev_set, layout, InterpolationMode.AUTO)
    assert len(mini.points) == 5  # LFE is not rendered through HRIRs
    for point in mini.points:
        p = plan(lebedev_set, point.direction, InterpolationMode.AUTO)
        want = blend(lebedev_set, p)
        assert np.allclose(point.left, want.left, atol=1e-12)


def test_render_with_layout_at_speaker_is_one_hot(speaker_set):
    rng = np.random.default_rng(36)
    sig = AudioBuffer(rng.standard_normal(128), 48000)
    layout = get_layout("5.1")
    rendered = render_source_binaural(
        sig, Direction(30, 0), speaker_set, layout=layout
    )
    labels = [c.label for c in layout.channels if not c.is_lfe]
    weights = dict(rendered.plan.entries)
    assert len(weights) == 1
    (idx,) = weights
    assert labels[idx] == "L"
    assert weights[idx] == 1.0


def test_render_with_layout_blends_between_speakers(speaker_set):
    rng = np.random.default_rng(37)
    sig = AudioBuffer(rng.standard_normal(64), 48000)
    layout = get_layout("5.1")
    rendered = render_source_binaural(
        sig, Direction(15, 0), speaker_set, layout=layout, mode="two_point"
    )
    names = [c.label for c in layout.channels if not c.is_lfe]
    labels = {names[i] for i, _ in rendered.plan.entries}
    assert labels == {"L", "C"}
    assert sum(w for _, w in rendered.plan.entries) == pytest.approx(1.0, abs=1e-9)


def test_render_resolves_each_speaker_set_once(monkeypatch):
    from binauralkit import dsp
    from binauralkit.ir_store import synthesize_ir_set

    ir_set = synthesize_ir_set("lebedev50", 48000, 64, seed=38)
    calls = []

    def counting_resolve(*args):
        calls.append(args[1:])
        return resolve_speaker_ir_set(*args)

    monkeypatch.setattr(dsp, "resolve_speaker_ir_set", counting_resolve)
    rng = np.random.default_rng(38)
    sig = AudioBuffer(rng.standard_normal(64), 48000)
    l51, l714 = get_layout("5.1"), get_layout("7.1.4")
    renders = {}
    for az in (10.0, 100.0, 200.0):
        for layout, mode in ((l51, "auto"), (l51, InterpolationMode.AUTO),
                             (l51, "planar"), (l714, "auto")):
            r = render_source_binaural(sig, Direction(az, 5.0), ir_set, mode, layout)
            renders[az, layout.name, mode] = r.audio.samples
    # "auto" and InterpolationMode.AUTO share one entry
    assert calls == [(l51, "auto"), (l51, "planar"), (l714, "auto")]
    assert set(ir_set.speaker_sets) == {
        (l51, InterpolationMode.AUTO), (l51, InterpolationMode.PLANAR),
        (l714, InterpolationMode.AUTO),
    }
    # the kept sets render the same bytes as a fresh resolution
    monkeypatch.undo()
    fresh = synthesize_ir_set("lebedev50", 48000, 64, seed=38)
    for (az, name, mode), samples in renders.items():
        r = render_source_binaural(sig, Direction(az, 5.0), fresh, mode, get_layout(name))
        assert r.audio.samples.tobytes() == samples.tobytes()
        fresh.speaker_sets.clear()
