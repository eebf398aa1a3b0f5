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
from typing import NamedTuple

import numpy as np

from .errors import FormatError

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE

# KSDATAFORMAT_SUBTYPE GUID tail shared by PCM and float subformats
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

ENCODINGS = ("pcm16", "pcm24", "float32")

# samples quantized per pass in write_wav: its temporaries stay in cache
_CHUNK = 1 << 15
# the low three bytes of a little-endian int32, as one 3-byte field
_LOW3 = np.dtype({"names": ["low"], "formats": ["V3"], "offsets": [0], "itemsize": 4})


class WavHeader(NamedTuple):
    """What :func:`parse_header` finds: the encoding, and the data body
    ``raw[start:end]``, a whole number of frames."""

    rate: int
    channels: int
    bits: int
    start: int
    end: int

    @property
    def frames(self) -> int:
        return (self.end - self.start) // (self.bits // 8 * self.channels)


def read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``; FormatError naming it if it cannot
    be read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            raw = os.read(fd, size + 1)
            # a short read of a regular file is its end; a longer one is not
            while len(raw) > size and (more := os.read(fd, 1 << 20)):
                raw += more
        finally:
            os.close(fd)
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        if isinstance(e, OSError):
            e.filename = path  # os.read names no file, as open would
        raise FormatError(f"cannot read {path}: {e}") from e
    return raw


def parse_header(raw: bytes, path: str) -> WavHeader:
    """Walk the chunks of a WAV file's bytes and check its fmt and data
    chunks; errors name ``path``. Only the bytes outside the data body are
    read, so a file that matches another outside its data body, at the same
    length, has the same header."""
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
        if cid == b"fmt ":
            fmt = raw[pos + 8:pos + 8 + size]
        elif cid == b"data":
            data = (pos + 8, pos + 8 + size)
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
    if (data[1] - data[0]) % (bits // 8 * channels):
        raise FormatError(f"{path}: data size is not a whole number of frames")
    return WavHeader(int(rate), channels, bits, *data)


def expect_format(raw: bytes, path, channels: int, rate: int) -> WavHeader:
    """``parse_header(raw, path)``, or FormatError naming ``path`` unless
    the file holds ``channels`` channels at ``rate`` Hz."""
    head = parse_header(raw, path)
    if (head.channels, head.rate) != (channels, rate):
        raise FormatError(f"{path}: expected {channels} channel(s) at sample rate {rate}, "
                          f"got {head.channels} at {head.rate}")
    return head


def read_into(path: str, out) -> bool:
    """Read the file at ``path`` into ``out``, a writable buffer, if the file
    holds exactly ``len(out)`` bytes: one open, one read and one close.
    Returns whether it did; a file that cannot be read, or is shorter or
    longer, leaves ``out`` undefined, and :func:`read_bytes` gives its bytes
    or its error."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            # a byte past out tells a longer file from one of out's length
            return os.readv(fd, (out, bytearray(1))) == len(out)
        finally:
            os.close(fd)
    except (OSError, ValueError):
        return False


def decode_into(raw, head: WavHeader, out: np.ndarray) -> None:
    """Decode the data body of ``raw`` into ``out``, float64 samples frame
    after frame; PCM is scaled by 2**(bits-1). Either ``raw`` is one file's
    bytes and ``out`` is one-dimensional, head.frames * head.channels long,
    or ``raw`` is a contiguous (rows, size) uint8 array of files that each
    match ``head`` and ``out`` is (rows, head.frames * head.channels)."""
    dst = out if out.ndim == 2 else out[None]
    body = np.frombuffer(raw, np.uint8)
    # each row's samples, a sample's width apart from its data body
    strides = (body.size // len(dst), head.bits // 8)
    if head.bits == 24:
        # each sample's three bytes as the top of an int32 read from one byte
        # before them; the mask clears that low byte, leaving its code * 2**8,
        # signed
        codes = np.ndarray(dst.shape, "<i4", body, head.start - 1, strides) & -256
        np.divide(codes, float(1 << 31), out=dst)
    elif head.bits == 16:
        np.divide(np.ndarray(dst.shape, "<i2", body, head.start, strides), 32768.0, out=dst)
    else:
        np.copyto(dst, np.ndarray(dst.shape, "<f4", body, head.start, strides))


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a WAV file.

    Returns (sample_rate, samples) where samples has shape (frames, channels)
    and dtype float64. PCM data is scaled to [-1, 1) by 2**(bits-1).
    ``path`` is a str or os.PathLike, opened as given.
    """
    path = os.fspath(path)
    raw = read_bytes(path)
    head = parse_header(raw, path)
    samples = np.empty(head.frames * head.channels)
    decode_into(raw, head, samples)
    return head.rate, samples.reshape(-1, head.channels)


def check_encoding(encoding) -> None:
    """FormatError unless ``encoding`` is one of ENCODINGS."""
    if encoding not in ENCODINGS:
        raise FormatError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")


def write_wav(path, sample_rate: int, samples: np.ndarray, encoding: str = "pcm24") -> None:
    """Write samples (frames,) or (frames, channels) as a WAV file.

    PCM encodings scale by 2**(bits-1) and clip to the representable range
    (±inf clips to full scale); float32 keeps ±inf and NaN. A NaN PCM sample,
    or a finite float32 one beyond its range, raises FormatError and writes no
    file. One buffer holds the file; PCM goes in ``_CHUNK`` samples at a time.
    """
    check_encoding(encoding)
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise FormatError(f"samples must be (frames, channels), got shape {x.shape}")
    frames, channels = x.shape
    tag, bits = (_FMT_FLOAT, 32) if encoding == "float32" else (_FMT_PCM, int(encoding[3:]))
    block = channels * bits // 8
    size = frames * block
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, int(sample_rate),
                                int(sample_rate) * block, block, bits)
    fact = b"fact" + struct.pack("<II", 4, frames) if tag == _FMT_FLOAT else b""
    head = (b"RIFF" + struct.pack("<I", 12 + len(fmt) + len(fact) + size + (size & 1))
            + b"WAVE" + fmt + fact + b"data" + struct.pack("<I", size))
    buf = np.zeros(len(head) + size + (size & 1), dtype=np.uint8)
    buf[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    data = buf[len(head):]
    flat = x.reshape(-1)
    if tag == _FMT_FLOAT:
        try:
            with np.errstate(over="raise"):
                data.view("<f4")[:] = flat
        except FloatingPointError:
            raise FormatError(f"{path}: a finite sample is beyond float32's range") from None
    else:
        full = float(1 << (bits - 1))
        t = np.empty(min(flat.size, _CHUNK))
        for i in range(0, flat.size, _CHUNK):
            c = flat[i:i + _CHUNK]
            q = t[:c.size]
            np.multiply(c, full, out=q)
            np.rint(q, out=q)
            np.clip(q, -full, full - 1, out=q)
            if np.isnan(q).any():
                raise FormatError(f"{path}: cannot encode a NaN sample as {encoding}")
            dst = data[bits // 8 * i:bits // 8 * (i + c.size)]
            if bits == 16:
                dst.view("<i2")[:] = q
            else:
                dst.view("V3")[:] = q.astype("<i4").view(_LOW3)["low"]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(buf)
