"""Binary PNM (PGM P5 / PPM P6) reading and writing, any maxval 1-65535.

Pixels map to floats in [0, 1] as raw / maxval. Below maxval 256 a
sample takes 1 byte, from 256 up 2 bytes, big-endian per the format.
Comments (# to end of line) are allowed anywhere whitespace is. Parse
failures raise PnmError carrying a reason code and the byte offset where
decoding stopped: a header field that is missing, not an integer or of
more digits than ``int`` converts at its first byte (past the whitespace
and comments before it), bad dimensions or an unsupported maxval just
past the field that makes them so, a short raster at its end, and a
sample above maxval at its first byte.
"""

from __future__ import annotations

import re

import numpy as np

from .core import Image, as_image

MAX_MAXVAL = 65535


class PnmError(ValueError):
    """Malformed PNM stream; ``reason`` is a stable code, ``offset`` in bytes."""

    def __init__(self, reason: str, offset: int, message: str):
        super().__init__(f"{message} (at byte {offset})")
        self.reason = reason
        self.offset = offset


_SPACE = b" \t\r\n\x0b\x0c"  # the format's whitespace bytes
# a header field: the whitespace and comments (# to the end of the line)
# before it, then its token, which runs to the next whitespace or comment
_FIELD = re.compile(rb"(?:[%b]|#[^\n]*\n?)*([^%b#]*)" % (_SPACE, _SPACE))


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The integer header field at or after byte ``pos``, and the offset
    just past it. A missing or non-integer field, or one of more digits
    than ``int`` converts, raises PnmError at the field's first byte."""
    field = _FIELD.match(data, pos)
    start, end = field.span(1)
    if start == end:
        raise PnmError("header", start, "unexpected end of header")
    if not field[1].isdigit():
        raise PnmError("header", start, f"expected integer {what}, got {field[1]!r}")
    try:
        return int(field[1]), end
    except ValueError:  # past the interpreter's limit on digits converted
        raise PnmError("header", start, f"{what} has {end - start} digits") from None


def read_pnm(data: bytes) -> list[Image]:
    """Decode a P5/P6 stream into 1 or 3 float channels in [0, 1]."""
    channels = {b"P5": 1, b"P6": 3}.get(bytes(data[:2]))
    if channels is None:
        raise PnmError("magic", 0, f"not a binary PNM stream (magic {data[:2]!r})")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PnmError("dimension", pos, f"bad dimensions {width}x{height}")
    maxval, pos = _header_int(data, pos, "maxval")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PnmError("maxval", pos, f"unsupported maxval {maxval}")
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(data) or data[pos] not in _SPACE:
        raise PnmError("header", pos, "missing whitespace before raster")
    pos += 1
    dtype = _sample_dtype(maxval).newbyteorder(">")
    need = width * height * channels * dtype.itemsize
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise PnmError(
            "truncated", pos + len(raster), f"raster needs {need} bytes, got {len(raster)}"
        )
    raw = np.frombuffer(raster, dtype=dtype).reshape(height, width, channels)
    if maxval < np.iinfo(dtype).max:  # only then can a sample exceed maxval
        over = raw > maxval
        if over.any():
            first = int(np.argmax(over.reshape(-1)))
            raise PnmError(
                "sample", pos + first * dtype.itemsize,
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
