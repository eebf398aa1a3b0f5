import os
import struct

import numpy as np
import pytest
from hypothesis import settings

from binauralkit.ir_store import save_ir_set, synthesize_ir_set
from binauralkit.wavio import write_wav

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, with no
# per-example deadline, so property tests cannot flake on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def lebedev_set():
    return synthesize_ir_set("lebedev50", 48000, 128, seed=7)


@pytest.fixture(scope="session")
def ring_set():
    return synthesize_ir_set(
        "ring_az_step",
        48000,
        128,
        seed=9,
        step_deg=15.0,
        elevations=[-75, -50, -25, 0, 25, 50, 75],
        subject_id="RING15",
    )


@pytest.fixture(scope="session")
def speaker_set():
    # 5 degree ring at elevations 0 and 45 covers every layout speaker
    # angle exactly, so same-layout surround renders resolve discretely
    return synthesize_ir_set(
        "ring_az_step",
        48000,
        96,
        seed=5,
        step_deg=5.0,
        elevations=[0.0, 45.0],
        subject_id="RING5",
    )


@pytest.fixture(scope="session")
def data_root(tmp_path_factory, lebedev_set, speaker_set):
    root = tmp_path_factory.mktemp("irdata")
    save_ir_set(lebedev_set, root)
    save_ir_set(speaker_set, root)
    return root


@pytest.fixture(scope="session")
def noise_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("sources") / "noise.wav"
    rng = np.random.default_rng(33)
    write_wav(path, 48000, 0.25 * rng.standard_normal(4800), "float32")
    return path


@pytest.fixture
def empty_wav():
    """Writes a float32 WAV with a valid fmt chunk and an empty data chunk,
    which ``write_wav`` refuses to produce; returns the path."""

    def write(path, channels, rate=48000):
        fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * 4 * channels,
                          4 * channels, 32)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 0)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        return path

    return write


@pytest.fixture
def ragged_wav():
    """Writes a 16-bit PCM WAV whose data chunk ends one byte into its last
    sample, which ``write_wav`` cannot produce; returns the path."""

    def write(path, channels, frames=64, rate=48000):
        codes = np.arange(frames * channels, dtype="<i2") * 97
        data = codes.tobytes()[:-1]
        fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels,
                          2 * channels, 16)
        body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data + b"\x00")
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        return path

    return write


_PCM16 = struct.pack("<HHIIHH", 1, 2, 48000, 192000, 4, 16)
_PCM_GUID = struct.pack("<IHH", 1, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
# fmt chunk bodies that each fail one of read_wav's fmt checks, and the error
_BAD_FMT = {
    "truncated fmt": (_PCM16[:14], "{} has a truncated fmt chunk"),
    "short extensible": (struct.pack("<HHIIHHH", 0xFFFE, 2, 48000, 192000, 4, 16, 0),
                         "{} has a truncated extensible fmt chunk"),
    "unknown subformat": (struct.pack("<HHIIHHHHI", 0xFFFE, 2, 48000, 192000, 4, 16,
                                      22, 16, 3) + _PCM_GUID[:-1] + b"\x72",
                          "{} has an unknown extensible subformat"),
    "zero channels": (struct.pack("<HHIIHH", 1, 0, 48000, 0, 0, 16),
                      "{} declares 0 channels"),
    "unsupported tag": (struct.pack("<HHIIHH", 6, 2, 48000, 96000, 2, 8),
                        "{}: unsupported encoding (format tag 6, 8 bits); "
                        "expected 16/24-bit PCM or 32-bit float"),
    "unsupported bits": (struct.pack("<HHIIHH", 1, 2, 48000, 384000, 8, 32),
                         "{}: unsupported encoding (format tag 1, 32 bits); "
                         "expected 16/24-bit PCM or 32-bit float"),
}


@pytest.fixture(params=sorted(_BAD_FMT))
def bad_fmt_wav(request):
    """Writes a stereo WAV of 128 frames whose fmt chunk fails one check;
    returns read_wav's error for it, naming ``path``."""
    fmt, message = _BAD_FMT[request.param]

    def write(path):
        data = bytes(512)
        body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        return message.format(path)

    return write
