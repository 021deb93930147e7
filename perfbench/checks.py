"""Output checks for the benchmark, independent of the library's box path.

The single-pass oracles below rebuild the filters pixel by pixel from
explicit window gathers and per-window 2x2 ridge normal-equation solves.
They never call a box sum, so agreement with the library is a real
cross-check of the fast path, not a restatement of it.
"""

from __future__ import annotations

import json
import os
import sys

import jsonschema
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ORACLE_TOL = 1e-9
DESCENT_SLACK = 1e-9
PNM_WHITESPACE = b" \t\r\n\x0b\x0c"


def finite_with_shape(x, shape) -> bool:
    x = np.asarray(x)
    return x.shape == tuple(shape) and bool(np.all(np.isfinite(x)))


def sample_pixels(rng, shape, r: int, count: int = 2):
    """count pixels: the first anywhere, the rest within r of a random edge,
    where truncated windows differ from interior ones."""
    h, w = shape
    pixels = [(int(rng.integers(h)), int(rng.integers(w)))]
    while len(pixels) < count:
        y, x = int(rng.integers(h)), int(rng.integers(w))
        depth = int(rng.integers(min(r + 1, h, w)))
        y, x = ((depth, x), (h - 1 - depth, x), (y, depth), (y, w - 1 - depth))[rng.integers(4)]
        pixels.append((y, x))
    return pixels


def _neighbourhood(x, y0, x0, half: int, periodic: bool):
    """x on rows/cols [y0-half, y0+half], wrapped or NaN outside the image."""
    h, w = x.shape
    ys = np.arange(y0 - half, y0 + half + 1)
    xs = np.arange(x0 - half, x0 + half + 1)
    if periodic:
        return x[np.ix_(ys % h, xs % w)]
    out = np.full((ys.size, xs.size), np.nan)
    iy = (ys >= 0) & (ys < h)
    ix = (xs >= 0) & (xs < w)
    out[np.ix_(iy, ix)] = x[np.ix_(ys[iy], xs[ix])]
    return out


def window_fits(p, guide, y: int, x: int, r: int, eps: float, periodic: bool):
    """Ridge coefficients (a_k, b_k) of p on guide for every window w_k that
    contains pixel (y, x), each from its own 2x2 normal equations."""
    side = 2 * r + 1
    gw = sliding_window_view(_neighbourhood(guide, y, x, 2 * r, periodic), (side, side))
    pw = sliding_window_view(_neighbourhood(p, y, x, 2 * r, periodic), (side, side))
    gw = gw.reshape(side * side, side * side)
    pw = pw.reshape(side * side, side * side)
    if not periodic:
        h, w = p.shape
        cy, cx = np.meshgrid(np.arange(y - r, y + r + 1), np.arange(x - r, x + r + 1), indexing="ij")
        inside = ((cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)).ravel()
        gw, pw = gw[inside], pw[inside]
    valid = np.isfinite(gw)
    n = valid.sum(axis=1).astype(np.float64)
    g0 = np.where(valid, gw, 0.0)
    p0 = np.where(valid, pw, 0.0)
    s_g, s_p = g0.sum(axis=1), p0.sum(axis=1)
    s_gg, s_gp = (g0 * g0).sum(axis=1), (g0 * p0).sum(axis=1)
    m = np.empty((n.size, 2, 2))
    m[:, 0, 0] = s_gg + n * eps
    m[:, 0, 1] = m[:, 1, 0] = s_g
    m[:, 1, 1] = n
    ab = np.linalg.solve(m, np.stack([s_gp, s_p], axis=1)[..., None])[..., 0]
    return ab[:, 0], ab[:, 1]


def oracle_gf(p, guide, y, x, r, eps, periodic=False) -> float:
    a, b = window_fits(p, guide, y, x, r, eps, periodic)
    return float(np.mean(a * guide[y, x] + b))


def oracle_cgf(p, guide, g, y, x, r, eps, lam) -> float:
    a, _ = window_fits(p, guide, y, x, r, eps, False)
    alpha = lam / (a.size + lam)
    return (1.0 - alpha) * oracle_gf(p, guide, y, x, r, eps) + alpha * float(g[y, x])


def oracle_igf(p, guess, y, x, r, eps) -> float:
    a, b = window_fits(p, guess, y, x, r, eps, False)
    aa = float(np.mean(a * a))
    if aa < 1e-12:
        return float(guess[y, x])
    return (float(np.mean(a)) * p[y, x] - float(np.mean(a * b))) / aa


def oracle_icgf(p, guess, g, y, x, r, eps, lam) -> float:
    a, b = window_fits(p, guess, y, x, r, eps, False)
    return (float(a.sum()) * p[y, x] - float((a * b).sum()) + lam * g[y, x]) / (
        float((a * a).sum()) + lam
    )


def tvgf_residual(q, p, guide, y, x, r, eps, lam) -> float:
    """Residual of the TV solve at one pixel, per unit window size.

    The solve is global, so the oracle checks the linear system it must
    satisfy: |w| q_i + lam (L q)_i = sum_k (a_k G_i + b_k), with L the
    circular 5-point Laplacian and (a_k, b_k) from per-window normal
    equations.
    """
    h, w = q.shape
    a, b = window_fits(p, guide, y, x, r, eps, True)
    f = float(np.sum(a * guide[y, x] + b))
    lap = 4.0 * q[y, x] - q[(y - 1) % h, x] - q[(y + 1) % h, x] - q[y, (x - 1) % w] - q[y, (x + 1) % w]
    side2 = (2 * r + 1) ** 2
    return abs(side2 * q[y, x] + lam * lap - f) / side2


def pnm_header(path):
    """(magic, width, height, maxval, header_bytes) of a binary PNM file.

    Parsed here rather than through the library, so the check does not
    rely on the code it checks."""
    with open(path, "rb") as fh:
        head = fh.read(256)
    fields, pos = [], 2
    while len(fields) < 3:
        while head[pos] in PNM_WHITESPACE:
            pos += 1
        if head[pos : pos + 1] == b"#":
            pos = head.index(b"\n", pos) + 1
            continue
        start = pos
        while head[pos] not in PNM_WHITESPACE:
            pos += 1
        fields.append(int(head[start:pos]))
    return head[:2], fields[0], fields[1], fields[2], pos + 1


def pnm_decodes(path, width, height, maxval) -> bool:
    """The file is a P6 raster of the given size and exactly the bytes it needs."""
    magic, w, h, mv, header = pnm_header(path)
    need = header + w * h * 3 * (1 if mv < 256 else 2)
    return (magic, w, h, mv) == (b"P6", width, height, maxval) and os.path.getsize(path) == need


def cli_report_ok(stdout: str, schema: dict, expected_outputs, width, height) -> bool:
    """The CLI printed one schema-valid report whose outputs decode at size.

    expected_outputs lists (path, maxval) in the order the report gives them.
    """
    report = json.loads(stdout)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        print(f"perfbench: CLI report does not match the schema: {exc.message}", file=sys.stderr)
        return False
    paths = [o["path"] for o in report["outputs"]]
    if paths != [str(p) for p, _ in expected_outputs]:
        return False
    return all(pnm_decodes(p, width, height, mv) for p, mv in expected_outputs)


def descent_spot_check(gfkit_modules, seed: int, size: int = 48) -> list[str]:
    """Exact-energy descent of the rolling schemes at a small size.

    Returns a list of failures (empty when every scheme descends). Uses the
    library's own slow per-window energies, the same contract its tests use.
    """
    gf = gfkit_modules["gfkit.gf"]
    cgf = gfkit_modules["gfkit.cgf"]
    rmsf = gfkit_modules["gfkit.rmsf"]
    core = gfkit_modules["gfkit.core"]
    synth = gfkit_modules["gfkit.synth"]
    flash, noflash = synth.flash_pair(size, size, seed)
    failures = []

    w6 = core.WindowSpec(6, core.Boundary.TRUNCATE)
    snaps = []
    rmsf.gf_rmsf(noflash, flash, 0.01, 0.01, w6, 3, snapshots=snaps)
    e = [rmsf.energy_mutual(s.state, s.ab, s.cd, w6, 0.01, 0.01).total for s in snaps]
    if np.any(np.diff(e) > DESCENT_SLACK):
        failures.append(f"gf_rmsf energy rose: {e}")

    # the conservative roll inside rfnf_gen, anchored as rfnf_gen anchors it
    w10 = core.WindowSpec(10, core.Boundary.TRUNCATE)
    anchor = gfkit_modules["gfkit.rfnf"].enhanced_flash(flash, w10, 0.1, 1.0)
    qs = [noflash] + cgf.cgf_roll(noflash, flash, anchor, w10, 0.1, 1.0, 5)
    e = [
        cgf.energy_cgf(qs[n], gf.gf_coeffs(qs[n - 1], flash, w10, 0.1), flash, anchor, w10, 0.1, 1.0).total
        for n in range(1, len(qs))
    ]
    if np.any(np.diff(e) > DESCENT_SLACK):
        failures.append(f"cgf_roll energy rose: {e}")
    return failures
