import os
import re
import struct
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit.errors import FormatError
from binauralkit.wavio import _CHUNK, read_wav, write_wav


def test_float32_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((333, 2)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    write_wav(path, 48000, samples, "float32")
    rate, back = read_wav(path)
    assert rate == 48000
    assert back.shape == (333, 2)
    assert np.array_equal(back, samples)


def test_pcm_round_trip_integer_grid(tmp_path):
    for encoding, bits in (("pcm16", 16), ("pcm24", 24)):
        scale = 2 ** (bits - 1)
        codes = np.array([0, 1, -1, 1000, -1000, scale - 1, -scale])
        samples = codes / scale
        path = tmp_path / f"{encoding}.wav"
        write_wav(path, 44100, samples, encoding)
        rate, back = read_wav(path)
        assert rate == 44100
        assert np.array_equal(back[:, 0], samples)


def test_pcm_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, 48000, np.array([2.0, -2.0]), "pcm16")
    _, back = read_wav(path)
    assert back[0, 0] == pytest.approx(1.0, abs=1e-4)
    assert back[1, 0] == -1.0


def test_pcm24_bytes_match_per_sample_packing(tmp_path):
    full = 1 << 23
    samples = np.array([
        [1.0, -1.0], [(full - 1) / full, -(full - 1) / full],
        [0.0, -0.0], [1.0 / full, -1.0 / full], [0.4 / full, -0.6 / full],
        [1.5, -1.5], [123.0, -1e9], [0.123456789, -0.987654321],
    ])
    path = tmp_path / "p24.wav"
    write_wav(path, 48000, samples, "pcm24")
    expected = b"".join(
        max(-full, min(full - 1, round(v * full))).to_bytes(3, "little", signed=True)
        for v in samples.ravel()
    )
    assert path.read_bytes().endswith(expected)
    assert len(path.read_bytes()) == 44 + len(expected)


def test_multichannel_order_preserved(tmp_path):
    samples = np.zeros((10, 6))
    for c in range(6):
        samples[c, c] = 0.5
    path = tmp_path / "six.wav"
    write_wav(path, 48000, samples, "float32")
    _, back = read_wav(path)
    assert back.shape == (10, 6)
    assert np.array_equal(back, samples)


def test_rates_preserved(tmp_path):
    for rate in (44100, 48000, 96000):
        path = tmp_path / f"r{rate}.wav"
        write_wav(path, rate, np.zeros(8), "pcm16")
        got, _ = read_wav(path)
        assert got == rate


def _wav_bytes(fmt_tag, channels, rate, bits, frames, extensible=False):
    """Hand-rolled WAV for reader edge cases."""
    block = channels * bits // 8
    data = frames.tobytes()
    if extensible:
        guid = struct.pack("<IHH", fmt_tag, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        ext = struct.pack("<HHI", 22, bits, 0x3F) + guid
        fmt = struct.pack(
            "<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits
        ) + ext
    else:
        fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_reads_extensible_wrapper(tmp_path):
    frames = np.array([0, 16384, -16384, 32767], dtype="<i2")
    path = tmp_path / "ext.wav"
    path.write_bytes(_wav_bytes(1, 1, 48000, 16, frames, extensible=True))
    rate, back = read_wav(path)
    assert rate == 48000
    assert np.allclose(back[:, 0] * 32768, frames)


def test_skips_unknown_chunks_with_odd_padding(tmp_path):
    frames = np.array([12345], dtype="<i2")
    body = _wav_bytes(1, 1, 44100, 16, frames)
    # splice an odd-sized junk chunk between WAVE and fmt
    junk = b"junk" + struct.pack("<I", 3) + b"abc" + b"\x00"
    spliced = body[:12] + junk + body[12:]
    spliced = spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]
    path = tmp_path / "junk.wav"
    path.write_bytes(spliced)
    _, back = read_wav(path)
    assert back[0, 0] * 32768 == 12345


def test_read_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"RIFX1234WAVE")
    with pytest.raises(FormatError):
        read_wav(p)
    p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
    with pytest.raises(FormatError):
        read_wav(p)
    frames = np.array([0], dtype="<i2")
    p.write_bytes(_wav_bytes(1, 1, 48000, 8, np.array([0], dtype="u1")))
    with pytest.raises(FormatError):
        read_wav(p)


@pytest.mark.parametrize("encoding,channels,frame_bytes",
                         [("pcm16", 2, 4), ("pcm24", 1, 3), ("float32", 1, 4)])
def test_read_rejects_truncated_data_chunk(tmp_path, encoding, channels, frame_bytes):
    # cut 100 whole frames, so the shortened data still parses as frames
    path = tmp_path / "cut.wav"
    write_wav(path, 48000, np.zeros((1000, channels)), encoding)
    path.write_bytes(path.read_bytes()[:-100 * frame_bytes])
    with pytest.raises(FormatError, match="cut.wav.*declares"):
        read_wav(path)


def test_write_rejects_unknown_encoding(tmp_path):
    with pytest.raises(FormatError):
        write_wav(tmp_path / "x.wav", 48000, np.zeros(4), "pcm8")


@pytest.mark.parametrize("shape", [(0, 2), (2, 2, 2)])
def test_write_rejects_a_shape_that_is_not_frames_by_channels(tmp_path, shape):
    path = tmp_path / "x.wav"
    with pytest.raises(FormatError) as e:
        write_wav(path, 48000, np.zeros(shape), "float32")
    assert str(e.value) == f"samples must be (frames, channels), got shape {shape}"
    assert not path.exists()


@pytest.mark.parametrize("rate, message", [
    (-1, "sample rate must be positive, got -1"),
    (0, "sample rate must be positive, got 0"),
    (1.5, "sample rate must be an integer, got 1.5"),
    (True, "sample rate must be an integer, got True"),
    (np.True_, f"sample rate must be an integer, got {np.True_!r}"),
    ("x", "sample rate must be an integer, got 'x'"),
])
def test_write_rejects_a_rate_that_is_not_a_positive_integer(tmp_path, rate, message):
    path = tmp_path / "sub" / "x.wav"
    with pytest.raises(FormatError) as e:
        write_wav(path, rate, np.zeros(4))
    assert str(e.value) == f"{path}: {message}"
    assert not path.parent.exists()


@pytest.mark.parametrize("rate, shape, encoding, fields", [
    (2**33, (4, 1), "pcm24", "block align 3, byte rate 25769803776 and RIFF size 48"),
    (2**31, (4, 1), "pcm16", "block align 2, byte rate 4294967296 and RIFF size 44"),
    (48000, (1, 2**15), "pcm16", "block align 65536, byte rate 3145728000 and RIFF size "
                                 "65572"),
    (48000, (2**30 + 1, 1), "float32", "block align 4, byte rate 192000 and RIFF size "
                                       "4294967348"),
])
def test_write_rejects_a_file_its_header_fields_cannot_hold(tmp_path, monkeypatch, rate,
                                                            shape, encoding, fields):
    # raised before the samples are converted or the file's buffer is
    # allocated: float32 samples broadcast from one value take no memory,
    # and neither a float64 copy of them nor a 4 GiB body is ever made
    samples = np.broadcast_to(np.zeros(1, dtype=np.float32), shape)
    path = tmp_path / "sub" / "x.wav"

    def no_array(*args, **kwargs):
        raise AssertionError("made an array")

    monkeypatch.setattr(np, "zeros", no_array)
    monkeypatch.setattr(np, "asarray", no_array)
    with pytest.raises(FormatError) as e:
        write_wav(path, rate, samples, encoding)
    assert str(e.value) == (f"{path}: too large for a WAV header: {fields} must be below "
                            "2**16, 2**32 and 2**32")
    assert not path.parent.exists()


def test_write_takes_the_largest_rate_and_frame_its_header_holds(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, 2**31 - 1, np.zeros(4), "pcm16")
    assert read_wav(path)[0] == 2**31 - 1
    write_wav(path, 48000, np.zeros((1, 2**15 - 1)), "pcm16")
    assert read_wav(path)[1].shape == (1, 2**15 - 1)


def test_write_creates_parent_dirs(tmp_path):
    path = tmp_path / "a" / "b" / "c.wav"
    write_wav(path, 48000, np.zeros(4), "pcm16")
    assert path.is_file()


class _PathLike:
    """An os.PathLike that is neither str nor pathlib.Path."""

    def __init__(self, path):
        self._path = str(path)

    def __fspath__(self):
        return self._path


@pytest.mark.parametrize("kind", [str, Path, _PathLike])
def test_read_accepts_str_path_and_pathlike(tmp_path, kind):
    samples = np.array([[0.25, -0.5], [0.125, 0.0]])
    path = tmp_path / "any.wav"
    write_wav(path, 48000, samples, "float32")
    rate, back = read_wav(kind(path))
    assert rate == 48000
    assert np.array_equal(back, samples)


@pytest.mark.parametrize("kind", [str, Path, _PathLike])
def test_read_errors_name_the_path(tmp_path, kind):
    missing = tmp_path / "missing.wav"
    with pytest.raises(FormatError, match=re.escape(f"cannot read {missing}")):
        read_wav(kind(missing))
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFX1234WAVE")
    with pytest.raises(FormatError, match=re.escape(f"{bad} is not a RIFF/WAVE file")):
        read_wav(kind(bad))


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24", "float32"])
def test_scipy_reads_written_files(tmp_path, encoding):
    # an independent reader: scipy's wavfile parser, not read_wav
    wavfile = pytest.importorskip("scipy.io.wavfile")
    rng = np.random.default_rng(12)
    samples = 0.6 * rng.standard_normal((501, 3))
    samples[:4] = [[1.5, -1.5, 0.0], [-2.0, 1.0, -1.0], [1e-7, -1e-7, 0.5], [0.0, -0.0, 0.25]]
    path = tmp_path / f"{encoding}.wav"
    write_wav(path, 44100, samples, encoding)
    rate, data = wavfile.read(path)
    assert rate == 44100
    assert data.shape == samples.shape
    if encoding == "float32":
        assert data.dtype == np.float32
        assert np.array_equal(data, samples.astype(np.float32))
        back = data.astype(np.float64)
    else:
        # scipy keeps 24-bit samples in the high bytes of an int32
        full = 2.0 ** (15 if encoding == "pcm16" else 31)
        back = data / full
        lsb = 2.0 ** (-15 if encoding == "pcm16" else -23)
        clipped = np.clip(samples, -1.0, 1.0 - lsb)
        assert np.max(np.abs(back - clipped)) <= lsb / 2
    assert np.array_equal(read_wav(path)[1], back)


def _ref_decode(data, bits, channels):
    """An independent per-sample decoder: each sample's bytes as a signed
    little-endian integer over 2**(bits-1), or as a little-endian float."""
    width = bits // 8
    chunks = [data[i:i + width] for i in range(0, len(data), width)]
    if bits == 32:
        values = [struct.unpack("<f", c)[0] for c in chunks]
    else:
        values = [int.from_bytes(c, "little", signed=True) / 2 ** (bits - 1) for c in chunks]
    return np.array(values, dtype=np.float64).reshape(-1, channels)


_TAGS = {16: 1, 24: 1, 32: 3}


def _sample_bytes(bits):
    if bits == 32:
        edges = [struct.pack("<f", v) for v in (1.0, -1.0, 0.0, -0.0, float("inf"),
                                                -float("inf"), 3.4028235e38, 1e-45)]
        return st.one_of(st.sampled_from(edges), st.binary(min_size=4, max_size=4))
    full = 1 << (bits - 1)
    codes = st.one_of(st.sampled_from([-full, full - 1, 0, -1, 1]),
                      st.integers(-full, full - 1))
    return codes.map(lambda c: c.to_bytes(bits // 8, "little", signed=True))


@st.composite
def _raw_chunks(draw):
    bits = draw(st.sampled_from([16, 24, 32]))
    channels = draw(st.integers(1, 3))
    frames = draw(st.integers(0, 9))
    samples = draw(st.lists(_sample_bytes(bits), min_size=frames * channels,
                            max_size=frames * channels))
    return bits, channels, b"".join(samples)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_raw_chunks())
def test_read_decodes_every_encoding_like_a_per_sample_decoder(tmp_path_factory, chunk):
    bits, channels, data = chunk
    path = tmp_path_factory.getbasetemp() / "raw.wav"
    path.write_bytes(_wav_bytes(_TAGS[bits], channels, 48000, bits,
                                np.frombuffer(data, dtype=np.uint8)))
    rate, got = read_wav(path)
    want = _ref_decode(data, bits, channels)
    assert rate == 48000 and got.dtype == np.float64 and got.shape == want.shape
    # bit for bit, with any NaN payload compared only as NaN
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


@pytest.mark.parametrize("bits", [16, 24, 32])
@pytest.mark.parametrize("short", ["byte", "sample"])
def test_read_rejects_a_partial_sample_or_frame(tmp_path, bits, short):
    # three whole stereo frames, then one byte short of a sample or one
    # sample short of a frame; either is a ragged data chunk
    width = bits // 8
    data = bytes(range(1, 6 * width + 1))
    data = data[:-1] if short == "byte" else data[:-width]
    path = tmp_path / f"ragged{bits}.wav"
    path.write_bytes(_wav_bytes(_TAGS[bits], 2, 48000, bits,
                                np.frombuffer(data, dtype=np.uint8)))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: data size is not a whole number of frames")):
        read_wav(path)


def test_read_error_names_a_path_with_a_nul_byte(tmp_path):
    path = f"{tmp_path}/a\0.wav"
    with pytest.raises(FormatError, match=re.escape(f"cannot read {path}: ")):
        read_wav(path)


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24"])
@pytest.mark.parametrize("at", [1, _CHUNK + 5])
def test_pcm_write_rejects_nan_and_writes_no_file(tmp_path, encoding, at):
    samples = np.full(_CHUNK + 8, 0.5)
    samples[at] = np.nan
    path = tmp_path / "sub" / "nan.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=re.escape(f"{path}: cannot encode a NaN")):
            write_wav(path, 48000, samples, encoding)
    assert not path.parent.exists()


def test_float32_write_keeps_nan(tmp_path):
    path = tmp_path / "nan.wav"
    write_wav(path, 48000, np.array([np.nan, 0.5]), "float32")
    back = read_wav(path)[1][:, 0]
    assert np.isnan(back[0]) and back[1] == 0.5


_F32_MAX = float(np.finfo(np.float32).max)


# the last is halfway from the largest float32 to the next power of two,
# which rounds to infinity
@pytest.mark.parametrize("value", [1e39, -1e300, 2.0**128 - 2.0**103])
def test_float32_write_rejects_a_finite_sample_beyond_its_range(tmp_path, value):
    path = tmp_path / "sub" / "big.wav"
    message = f"{path}: a finite sample is beyond float32's range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=re.escape(message)):
            write_wav(path, 48000, np.array([0.5, value]), "float32")
    assert not path.parent.exists()


# the last rounds down to the largest float32
@pytest.mark.parametrize("value", [np.inf, -np.inf, _F32_MAX, -_F32_MAX,
                                   2.0**128 - 2.0**103 - 2.0**80])
def test_float32_write_keeps_infinities_and_values_in_range(tmp_path, value):
    path = tmp_path / "edge.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_wav(path, 48000, np.array([value, 0.5]), "float32")
    back = read_wav(path)[1][:, 0]
    assert back[0] == np.float32(value) and back[1] == 0.5


def _ref_wav(samples, encoding, rate):
    """An independent writer: the header laid out field by field, then each
    sample clipped, rounded half to even and packed by Python, or packed as
    a little-endian float."""
    frames, channels = samples.shape
    tag, bits = (3, 32) if encoding == "float32" else (1, int(encoding[3:]))
    if bits == 32:
        payload = b"".join(struct.pack("<f", v) for v in samples.ravel())
    else:
        full = 1 << (bits - 1)
        payload = b"".join(
            round(max(-full, min(full - 1, v * full))).to_bytes(bits // 8, "little", signed=True)
            for v in samples.ravel())
    block = channels * bits // 8
    chunks = b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * block, block, bits)
    if tag == 3:
        chunks += b"fact" + struct.pack("<II", 4, frames)
    chunks += b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _full(encoding):
    return 1 << (15 if encoding == "pcm16" else 23)


def _edges(full):
    """Values at and beyond full scale, one step from zero, and signed zeros."""
    return [1.0, -1.0, (full - 1) / full, -(full - 1) / full, 1 / full, -1 / full,
            0.0, -0.0, 1.5, -1.5, 123.0, -1e9, 1e30, float("inf"), -float("inf")]


@st.composite
def _writes(draw):
    encoding = draw(st.sampled_from(["pcm16", "pcm24", "float32"]))
    if draw(st.booleans()):
        channels, frames = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    else:
        # a total sample count at, or up to 4 either side of, a chunk boundary
        total = draw(st.integers(1, 2)) * _CHUNK + draw(st.integers(-4, 4))
        channels = draw(st.sampled_from([c for c in (1, 2, 3) if total % c == 0]))
        frames = total // channels
    full = _full(encoding)
    ties = st.integers(-full - 2, full + 1).map(lambda k: (k + 0.5) / full)
    edges = st.sampled_from(_edges(full))
    pool = draw(st.lists(st.one_of(edges, ties, st.floats(-2.0, 2.0)), min_size=1, max_size=12))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = np.array(pool)[pick.integers(len(pool), size=(frames, channels))]
    return encoding, samples


@settings(max_examples=140, deadline=None, derandomize=True)
@given(_writes())
def test_write_matches_a_per_sample_writer(tmp_path_factory, case):
    encoding, samples = case
    path = tmp_path_factory.getbasetemp() / "oracle.wav"
    write_wav(path, 44100, samples, encoding)
    assert path.read_bytes() == _ref_wav(samples, encoding, 44100)


@pytest.mark.parametrize("k", range(-4, 5))
def test_write_matches_a_per_sample_writer_around_a_chunk_boundary(tmp_path, k):
    # every mono total from _CHUNK - 4 to _CHUNK + 4 samples, so the last
    # chunk is missing up to four samples or holds one to four
    rng = np.random.default_rng(k + 4)
    path = tmp_path / "edge.wav"
    for encoding in ("pcm16", "pcm24", "float32"):
        full = _full(encoding)
        pool = _edges(full) + [(j + 0.5) / full for j in rng.integers(-full, full, 8)]
        samples = np.array(pool)[rng.integers(len(pool), size=(_CHUNK + k, 1))]
        write_wav(path, 44100, samples, encoding)
        assert path.read_bytes() == _ref_wav(samples, encoding, 44100)


def test_read_rejects_each_bad_fmt_chunk(tmp_path, bad_fmt_wav):
    path = tmp_path / "bad.wav"
    message = bad_fmt_wav(path)
    with pytest.raises(FormatError) as e:
        read_wav(path)
    assert str(e.value) == message


def test_read_error_names_a_directory(tmp_path):
    with pytest.raises(FormatError) as e:
        read_wav(tmp_path)
    assert str(e.value) == f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"


def test_read_reads_on_past_a_size_of_zero(tmp_path):
    # a FIFO's fstat size is 0, so its bytes arrive through the read-on loop
    want = 0.25 * np.random.default_rng(6).standard_normal((70000, 2))
    write_wav(tmp_path / "x.wav", 48000, want, "float32")
    raw = (tmp_path / "x.wav").read_bytes()
    fifo = tmp_path / "fifo.wav"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(raw)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        rate, got = read_wav(fifo)
    finally:
        writer.join(10.0)
    assert not writer.is_alive()
    assert rate == 48000
    assert got.tobytes() == want.astype(np.float32).astype(np.float64).tobytes()
