"""Binary PNM (PGM P5 / PPM P6) reading and writing, any maxval 1-65535.

Pixels map to floats in [0, 1] as raw / maxval. Below maxval 256 a
sample takes 1 byte, from 256 up 2 bytes, big-endian per the format.
Comments (# to end of line) are allowed anywhere whitespace is. Parse
failures raise PnmError carrying a reason code and the byte offset where
decoding stopped.
"""

from __future__ import annotations

import numpy as np

from .core import Image, as_image

MAX_MAXVAL = 65535


class PnmError(ValueError):
    """Malformed PNM stream; ``reason`` is a stable code, ``offset`` in bytes."""

    def __init__(self, reason: str, offset: int, message: str):
        super().__init__(f"{message} (at byte {offset})")
        self.reason = reason
        self.offset = offset


class _Scanner:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space_and_comments(self):
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos]
            if c in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif c == ord("#"):
                end = data.find(b"\n", self.pos)
                self.pos = n if end < 0 else end + 1
            else:
                return

    def read_token(self) -> bytes:
        self.skip_space_and_comments()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        if self.pos == start:
            raise PnmError("header", start, "unexpected end of header")
        return data[start : self.pos]

    def read_int(self, what: str) -> int:
        start = self.pos
        token = self.read_token()
        if not token.isdigit():
            raise PnmError("header", start, f"expected integer {what}, got {token!r}")
        return int(token)


def read_pnm(data: bytes) -> list[Image]:
    """Decode a P5/P6 stream into 1 or 3 float channels in [0, 1]."""
    sc = _Scanner(data)
    magic = data[sc.pos : sc.pos + 2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise PnmError("magic", sc.pos, f"not a binary PNM stream (magic {magic!r})")
    sc.pos += 2
    width = sc.read_int("width")
    height = sc.read_int("height")
    if width < 1 or height < 1:
        raise PnmError("dimension", sc.pos, f"bad dimensions {width}x{height}")
    maxval_at = sc.pos
    maxval = sc.read_int("maxval")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PnmError("maxval", maxval_at, f"unsupported maxval {maxval}")
    # exactly one whitespace byte separates the header from the raster
    if sc.pos >= len(data) or data[sc.pos] not in b" \t\r\n\x0b\x0c":
        raise PnmError("header", sc.pos, "missing whitespace before raster")
    sc.pos += 1
    dtype = _sample_dtype(maxval).newbyteorder(">")
    need = width * height * channels * dtype.itemsize
    raster = data[sc.pos : sc.pos + need]
    if len(raster) < need:
        raise PnmError(
            "truncated", sc.pos + len(raster), f"raster needs {need} bytes, got {len(raster)}"
        )
    raw = np.frombuffer(raster, dtype=dtype).reshape(height, width, channels)
    if maxval < np.iinfo(dtype).max:  # only then can a sample exceed maxval
        over = raw > maxval
        if over.any():
            first = int(np.argmax(over.reshape(-1)))
            raise PnmError(
                "sample", sc.pos + first * dtype.itemsize,
                f"sample {raw.reshape(-1)[first]} exceeds maxval {maxval}",
            )
    # each channel converts straight from the integer raster into its own
    # C-contiguous plane: no interleaved float copy of the whole image
    out = []
    for c in range(channels):
        chan = raw[:, :, c].astype(np.float64)
        chan /= maxval
        out.append(chan)
    return out


def _sample_dtype(maxval: int) -> np.dtype:
    """uint8 below maxval 256, uint16 from 256 up."""
    if not 1 <= maxval <= MAX_MAXVAL:
        raise ValueError(f"unsupported maxval {maxval}, use 1 to {MAX_MAXVAL}")
    return np.dtype(np.uint8 if maxval < 256 else np.uint16)


def quantize(channel: Image, maxval: int = 255, name: str = "image") -> np.ndarray:
    """A float plane's integer samples: clamped to [0, 1], scaled by maxval,
    plus 0.5, floored (round half away from zero). Returns uint8 below
    maxval 256, uint16 from 256 up. NaN and +-Inf samples are rejected with
    ValueError naming ``name`` rather than written as 0 or maxval."""
    dtype = _sample_dtype(maxval)
    c = as_image(channel)
    bad = c.size - int(np.count_nonzero(np.isfinite(c)))
    if bad:
        raise ValueError(f"{name} has {bad} non-finite samples (NaN or Inf)")
    level = np.clip(c, 0.0, 1.0)
    level *= maxval
    level += 0.5
    return np.floor(level, out=level).astype(dtype)


def _samples(channel, maxval: int, dtype: np.dtype, name: str) -> np.ndarray:
    """An integer plane of the sample type as it is, anything else quantized;
    an integer plane of another type is rejected, not read as [0, 1] levels."""
    if not (isinstance(channel, np.ndarray) and channel.dtype.kind in "iu"):
        return quantize(channel, maxval, name)
    if channel.dtype != dtype:
        raise ValueError(f"{name} has dtype {channel.dtype}, expected {dtype} at maxval {maxval}")
    if channel.ndim != 2 or channel.size == 0:
        raise ValueError(f"{name} is not a 2-D image (shape {channel.shape})")
    if maxval < np.iinfo(dtype).max and channel.max() > maxval:
        raise ValueError(f"{name} has samples above maxval {maxval}")
    return channel


def write_pnm(channels: list, maxval: int = 255) -> bytes:
    """Encode 1 (P5) or 3 (P6) channels. A float channel goes through
    ``quantize``; an integer plane of the sample type (uint8 below maxval
    256, uint16 from 256 up, as ``quantize`` returns) is written as it is,
    and one of any other integer type raises ValueError."""
    dtype = _sample_dtype(maxval)
    if len(channels) not in (1, 3):
        raise ValueError(f"need 1 or 3 channels, got {len(channels)}")
    planes = [_samples(c, maxval, dtype, f"channel {idx}") for idx, c in enumerate(channels)]
    shape = planes[0].shape
    if any(c.shape != shape for c in planes):
        raise ValueError("channel shape mismatch")
    height, width = shape
    # P6 interleaves the channels sample by sample within each row
    samples = np.empty((height, width * len(planes)), dtype=dtype.newbyteorder(">"))
    for idx, plane in enumerate(planes):
        samples[:, idx :: len(planes)] = plane
    magic = b"P5" if len(planes) == 1 else b"P6"
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    return b"".join((header, samples))  # the raster's one copy, straight from its buffer


def read_pnm_file(path) -> list[Image]:
    with open(path, "rb") as fh:
        return read_pnm(fh.read())


def write_pnm_file(path, channels: list, maxval: int = 255) -> None:
    # encoded before the open, so a rejected image leaves the file as it was
    data = write_pnm(channels, maxval)
    with open(path, "wb") as fh:
        fh.write(data)
