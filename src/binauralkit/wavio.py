"""Minimal RIFF/WAVE reader and writer.

Supports little-endian 16- and 24-bit PCM and 32-bit IEEE float, mono or
multichannel, including the WAVE_FORMAT_EXTENSIBLE wrapper on read. Other
encodings are rejected. Integer samples are scaled by 2**(bits-1) so that a
write/read round trip of quantized data is exact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE

# KSDATAFORMAT_SUBTYPE GUID tail shared by PCM and float subformats
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

ENCODINGS = ("pcm16", "pcm24", "float32")


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a WAV file.

    Returns (sample_rate, samples) where samples has shape (frames, channels)
    and dtype float64. PCM data is scaled to [-1, 1) by 2**(bits-1).
    ``path`` is a str or os.PathLike, opened as given.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb", buffering=0) as f:
            raw = f.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise FormatError(f"cannot read {path}: {e}") from e
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path} is not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if pos + 8 + size > len(raw):
            raise FormatError(
                f"{path}: chunk {cid!r} declares {size} bytes but only "
                f"{len(raw) - pos - 8} remain (truncated file?)"
            )
        body = raw[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path} is missing a fmt or data chunk")
    if len(fmt) < 16:
        raise FormatError(f"{path} has a truncated fmt chunk")

    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == _FMT_EXTENSIBLE:
        if len(fmt) < 40:
            raise FormatError(f"{path} has a truncated extensible fmt chunk")
        sub = fmt[24:40]
        if sub[4:] != _GUID_TAIL:
            raise FormatError(f"{path} has an unknown extensible subformat")
        (tag,) = struct.unpack_from("<I", sub, 0)
    if channels < 1:
        raise FormatError(f"{path} declares {channels} channels")

    if (tag, bits) not in ((_FMT_PCM, 16), (_FMT_PCM, 24), (_FMT_FLOAT, 32)):
        raise FormatError(
            f"{path}: unsupported encoding (format tag {tag}, {bits} bits); "
            "expected 16/24-bit PCM or 32-bit float"
        )
    if len(data) % (bits // 8 * channels):
        raise FormatError(f"{path}: data size is not a whole number of frames")
    if bits == 24:
        # each sample in the top three bytes of an int32: its code * 2**8, signed
        wide = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        samples = wide.view("<i4") / float(1 << 31)
    elif bits == 16:
        samples = np.frombuffer(data, dtype="<i2") / 32768.0
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return int(rate), samples.reshape(-1, channels)


def check_encoding(encoding) -> None:
    """FormatError unless ``encoding`` is one of ENCODINGS."""
    if encoding not in ENCODINGS:
        raise FormatError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")


def write_wav(path, sample_rate: int, samples: np.ndarray, encoding: str = "pcm24") -> None:
    """Write samples (frames,) or (frames, channels) as a WAV file.

    PCM encodings scale by 2**(bits-1) and clip to the representable range;
    float32 is written as-is.
    """
    check_encoding(encoding)
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise FormatError(f"samples must be (frames, channels), got shape {x.shape}")
    channels = x.shape[1]

    if encoding == "pcm16":
        full = float(1 << 15)
        q = np.clip(np.round(x * full), -full, full - 1).astype("<i2")
        payload = q.tobytes()
        tag, bits = _FMT_PCM, 16
    elif encoding == "pcm24":
        full = float(1 << 23)
        q = np.clip(np.round(x * full), -full, full - 1).astype("<i4")
        # the low three bytes of each little-endian int32
        payload = q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        tag, bits = _FMT_PCM, 24
    else:
        payload = x.astype("<f4").tobytes()
        tag, bits = _FMT_FLOAT, 32

    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, int(sample_rate),
                      int(sample_rate) * block, block, bits)
    chunks = [(b"fmt ", fmt)]
    if tag == _FMT_FLOAT:
        chunks.append((b"fact", struct.pack("<I", x.shape[0])))
    chunks.append((b"data", payload))

    body = b"".join(
        cid + struct.pack("<I", len(c)) + c + (b"\x00" if len(c) & 1 else b"")
        for cid, c in chunks
    )
    out = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(out)
