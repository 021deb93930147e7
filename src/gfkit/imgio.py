"""Binary PNM (PGM P5 / PPM P6) reading and writing, 8- and 16-bit.

Pixels map to floats in [0, 1] as raw / maxval; 16-bit rasters are
big-endian per the format. Comments (# to end of line) are allowed
anywhere whitespace is. Parse failures raise PnmError carrying a reason
code and the byte offset where decoding stopped.
"""

from __future__ import annotations

import numpy as np

from .core import Image, as_image

SUPPORTED_MAXVALS = (255, 65535)


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
    if maxval not in SUPPORTED_MAXVALS:
        raise PnmError("maxval", maxval_at, f"unsupported maxval {maxval}")
    # exactly one whitespace byte separates the header from the raster
    if sc.pos >= len(data) or data[sc.pos] not in b" \t\r\n\x0b\x0c":
        raise PnmError("header", sc.pos, "missing whitespace before raster")
    sc.pos += 1
    bytes_per_sample = 1 if maxval == 255 else 2
    need = width * height * channels * bytes_per_sample
    raster = data[sc.pos : sc.pos + need]
    if len(raster) < need:
        raise PnmError(
            "truncated", sc.pos + len(raster), f"raster needs {need} bytes, got {len(raster)}"
        )
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    raw = np.frombuffer(raster, dtype=dtype).reshape(height, width, channels)
    # each channel converts straight from the integer raster into its own
    # C-contiguous plane: no interleaved float copy of the whole image
    out = []
    for c in range(channels):
        chan = raw[:, :, c].astype(np.float64)
        chan /= maxval
        out.append(chan)
    return out


def write_pnm(channels: list[Image], maxval: int = 255) -> bytes:
    """Encode 1 (P5) or 3 (P6) channels; values are clamped to [0, 1] and
    quantized with round-half-away-from-zero. NaN and +-Inf samples are
    rejected with ValueError rather than written as 0 or maxval."""
    if maxval not in SUPPORTED_MAXVALS:
        raise ValueError(f"unsupported maxval {maxval}, use one of {SUPPORTED_MAXVALS}")
    if len(channels) not in (1, 3):
        raise ValueError(f"need 1 or 3 channels, got {len(channels)}")
    chans = [as_image(c) for c in channels]
    shape = chans[0].shape
    if any(c.shape != shape for c in chans):
        raise ValueError("channel shape mismatch")
    for idx, c in enumerate(chans):
        bad = c.size - int(np.count_nonzero(np.isfinite(c)))
        if bad:
            raise ValueError(f"channel {idx} has {bad} non-finite samples (NaN or Inf)")
    height, width = shape
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    # P6 interleaves the channels sample by sample within each row
    samples = np.empty((height, width * len(chans)), dtype=dtype)
    for idx, c in enumerate(chans):
        level = np.clip(c, 0.0, 1.0)
        level *= maxval
        level += 0.5
        samples[:, idx :: len(chans)] = np.floor(level, out=level)
    magic = b"P5" if len(chans) == 1 else b"P6"
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    return header + samples.tobytes()


def read_pnm_file(path) -> list[Image]:
    with open(path, "rb") as fh:
        return read_pnm(fh.read())


def write_pnm_file(path, channels: list[Image], maxval: int = 255) -> None:
    with open(path, "wb") as fh:
        fh.write(write_pnm(channels, maxval))
