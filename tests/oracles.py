"""Independent slow-path oracles shared by the test modules.

Nothing here may call the fast box recurrence: every quantity is rebuilt
from explicit window gathers and per-window solves so that agreement with
the library is a genuine cross-check, not a tautology.

The one exception is the ``frozen_*`` section at the end: a frozen copy of
the whole-plane arithmetic the filters ran before their pointwise steps
moved into row strips. It pins those steps bit for bit, so it calls the
same ``box_sum`` and repeats every pointwise operation in its old order.
"""

import numpy as np

from gfkit.core import Boundary, WindowSpec, as_image
from gfkit.boxops import box_sum
from gfkit.tvgf import tvgf_solve_q


def window_values(x, ky, kx, w: WindowSpec):
    """Pixels of the window centered at (ky, kx), clipped or wrapped."""
    h, width = x.shape
    r = w.radius
    if w.boundary is Boundary.PERIODIC:
        ys = np.arange(ky - r, ky + r + 1) % h
        xs = np.arange(kx - r, kx + r + 1) % width
        return x[np.ix_(ys, xs)]
    return x[max(0, ky - r) : min(h, ky + r + 1), max(0, kx - r) : min(width, kx + r + 1)]


def naive_box_sum(x, w: WindowSpec):
    """Same contract as box_sum, by direct summation over every window offset.

    O(|w|) work per pixel and no running sums anywhere.
    """
    x = as_image(x)
    w.check_fits(x.shape)
    h, width = x.shape
    r = w.radius
    out = np.zeros_like(x)
    if w.boundary is Boundary.PERIODIC:
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                out += np.roll(x, (-dy, -dx), axis=(0, 1))
    else:
        padded = np.zeros((h + 2 * r, width + 2 * r), dtype=np.float64)
        padded[r : r + h, r : r + width] = x
        for dy in range(2 * r + 1):
            for dx in range(2 * r + 1):
                out += padded[dy : dy + h, dx : dx + width]
    return out


def gather_centers(x, ky, kx, w: WindowSpec):
    """Values of x at the window centers k with i = (ky, kx) inside w_k.

    For square windows this index set equals the window around i itself,
    under both boundary modes.
    """
    return window_values(x, ky, kx, w)


def naive_gf(p, guide, w: WindowSpec, eps):
    """Two-step guided filter without any box filtering.

    Every window is gathered whole (wrapped, or clipped by a zero pad and a
    mask), and the 2x2 ridge normal equations of all windows are solved in
    one batch. The coefficients are then scattered back over each window's
    pixels one window offset at a time and averaged per pixel.
    """
    h, wd = p.shape
    r = w.radius
    side = 2 * r + 1
    periodic = w.boundary is Boundary.PERIODIC
    mask = np.ones_like(p)

    def windows(x):  # (h, wd, side, side): the window centered at each pixel
        padded = np.pad(x, r, mode="wrap") if periodic else np.pad(x, r)
        return np.lib.stride_tricks.sliding_window_view(padded, (side, side))

    gwin, pwin, inside = windows(guide), windows(p), windows(mask)
    n = inside.sum(axis=(2, 3))
    s_g, s_p = gwin.sum(axis=(2, 3)), pwin.sum(axis=(2, 3))
    s_gg, s_gp = (gwin * gwin).sum(axis=(2, 3)), (gwin * pwin).sum(axis=(2, 3))
    m = np.stack([np.stack([s_gg + n * eps, s_g], -1), np.stack([s_g, n], -1)], -2)
    coeffs = np.linalg.solve(m, np.stack([s_gp, s_p], -1)[..., None])[..., 0]
    acc = np.zeros((h, wd, 3))
    per_window = np.concatenate([coeffs, np.ones((h, wd, 1))], -1)  # a, b and a count of 1
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if periodic:
                acc += np.roll(per_window, (dy, dx), axis=(0, 1))
            elif abs(dy) < h and abs(dx) < wd:  # k's window covers k + (dy, dx) if inside
                acc[max(0, dy) : h + min(0, dy), max(0, dx) : wd + min(0, dx)] += per_window[
                    max(0, -dy) : h - max(0, dy), max(0, -dx) : wd - max(0, dx)
                ]
    acc_a, acc_b, acc_n = acc[..., 0], acc[..., 1], acc[..., 2]
    return (acc_a * guide + acc_b) / acc_n


def naive_gf_per_window(p, guide, w: WindowSpec, eps):
    """``naive_gf`` one window at a time: the reference for its batching.

    Per window: solve the 2x2 ridge normal equations directly. Then
    aggregate by scattering each window's coefficients over its pixels and
    averaging per pixel.
    """
    h, wd = p.shape
    acc_a = np.zeros_like(p)
    acc_b = np.zeros_like(p)
    acc_n = np.zeros_like(p)
    r = w.radius
    for ky in range(h):
        for kx in range(wd):
            gwin = window_values(guide, ky, kx, w)
            pwin = window_values(p, ky, kx, w)
            n = gwin.size
            s_g = gwin.sum()
            s_p = pwin.sum()
            s_gg = (gwin * gwin).sum()
            s_gp = (gwin * pwin).sum()
            m = np.array([[s_gg + n * eps, s_g], [s_g, float(n)]])
            ak, bk = np.linalg.solve(m, np.array([s_gp, s_p]))
            if w.boundary is Boundary.PERIODIC:
                ys = np.arange(ky - r, ky + r + 1) % h
                xs = np.arange(kx - r, kx + r + 1) % wd
                idx = np.ix_(ys, xs)
                acc_a[idx] += ak
                acc_b[idx] += bk
                acc_n[idx] += 1.0
            else:
                sl = (
                    slice(max(0, ky - r), min(h, ky + r + 1)),
                    slice(max(0, kx - r), min(wd, kx + r + 1)),
                )
                acc_a[sl] += ak
                acc_b[sl] += bk
                acc_n[sl] += 1.0
    return (acc_a * guide + acc_b) / acc_n


def naive_gf_aggregate(a, b, guide, w: WindowSpec):
    """Per-pixel aggregation mean_k(a_k * guide_i + b_k) by explicit gather."""
    h, wd = guide.shape
    out = np.empty_like(guide)
    for y in range(h):
        for x in range(wd):
            aw = gather_centers(a, y, x, w)
            bw = gather_centers(b, y, x, w)
            out[y, x] = np.mean(aw * guide[y, x] + bw)
    return out


def energy_gf_reordered(q, a, b, guide, w: WindowSpec, eps):
    """Objective value summed pixel-first instead of window-first."""
    h, wd = q.shape
    total = 0.0
    for y in range(h):
        for x in range(wd):
            aw = gather_centers(a, y, x, w)
            bw = gather_centers(b, y, x, w)
            total += float(np.sum((aw * guide[y, x] + bw - q[y, x]) ** 2))
            total += window_values(q, y, x, w).size * eps * a[y, x] ** 2
    return total


def naive_igf_update(a, b, p, w: WindowSpec, prior, degenerate_eps=1e-12):
    """Direct per-pixel quadratic minimum of the inverted window models."""
    h, wd = p.shape
    out = np.empty_like(p)
    for y in range(h):
        for x in range(wd):
            aw = gather_centers(a, y, x, w)
            bw = gather_centers(b, y, x, w)
            denom = float(np.mean(aw * aw))
            if denom < degenerate_eps:
                out[y, x] = prior[y, x]
            else:
                out[y, x] = float(np.mean(aw * (p[y, x] - bw))) / denom
    return out


def anchored_minimizer(guide, g, w: WindowSpec, eps, lam):
    """The q that minimizes ``energy_cgf`` over (q, a, b), by one dense solve.

    Let F be the map from q to the window sums f of its fit (``gf.roll``'s
    numerator). F is the sum of every window's ridge hat matrix
    X (X^T X + diag(eps n_k, 0))^-1 X^T, X = [guide, 1] over the window's
    pixels, spread onto them: a per-window solve with no box sum. An
    anchored pass is one Jacobi step on (diag(n + lam) - F) q = lam * g,
    and this solves that system directly.
    """
    h, wd = guide.shape
    index = np.arange(h * wd).reshape(h, wd)
    counts, hat = np.zeros(h * wd), np.zeros((h * wd, h * wd))
    for ky in range(h):
        for kx in range(wd):
            pixels = window_values(index, ky, kx, w).ravel()
            x = np.stack([guide.ravel()[pixels], np.ones(pixels.size)], axis=1)
            ridge = np.diag([eps * pixels.size, 0.0])
            hat[np.ix_(pixels, pixels)] += x @ np.linalg.solve(x.T @ x + ridge, x.T)
            counts[pixels] += 1
    system = np.diag(counts + lam) - hat
    return np.linalg.solve(system, lam * np.ravel(g)).reshape(h, wd)


def naive_ssim(x, y, peak=1.0, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """SSIM by explicit per-position loops over fully interior windows."""
    t = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g1 = np.exp(-(t * t) / (2.0 * sigma * sigma))
    kern = np.outer(g1, g1)
    kern /= kern.sum()
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    h, wd = x.shape
    r = window // 2
    vals = []
    for cy in range(r, h - r):
        for cx in range(r, wd - r):
            xs = x[cy - r : cy + r + 1, cx - r : cx + r + 1]
            ys = y[cy - r : cy + r + 1, cx - r : cx + r + 1]
            mx = float(np.sum(kern * xs))
            my = float(np.sum(kern * ys))
            vx = float(np.sum(kern * xs * xs)) - mx * mx
            vy = float(np.sum(kern * ys * ys)) - my * my
            cxy = float(np.sum(kern * xs * ys)) - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * cxy + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


# --- frozen whole-plane arithmetic ------------------------------------------

FROZEN_DEGENERATE_EPS = 1e-12


def frozen_counts(shape, w: WindowSpec):
    """The full plane of window counts |w_i|."""
    def factor(n):
        if w.boundary is Boundary.PERIODIC:
            return np.full(n, w.side, dtype=np.float64)
        i = np.arange(n)
        return (np.minimum(i + w.radius, n - 1) - np.maximum(i - w.radius, 0) + 1).astype(
            np.float64
        )

    return np.outer(factor(shape[0]), factor(shape[1]))


def _frozen_window_variance(guide, w):
    counts = frozen_counts(guide.shape, w)
    mean = box_sum(guide, w)
    mean /= counts
    var = box_sum(guide * guide, w)
    var /= counts
    var -= mean * mean
    return counts, mean, var


def frozen_guide_moments(guide, w, eps):
    """(counts, mean, var + eps) of the guide."""
    counts, mean, var = _frozen_window_variance(guide, w)
    np.maximum(var, 0.0, out=var)
    var += eps
    return counts, mean, var


def frozen_self_fit(guide, w, eps):
    """The guide's moments and the fit (a, b) of the guide against itself."""
    counts, mean, a = _frozen_window_variance(guide, w)
    var_eps = np.maximum(a, 0.0)
    var_eps += eps
    a /= var_eps
    b = a * mean
    np.subtract(mean, b, out=b)
    return (counts, mean, var_eps), (a, b)


def frozen_fit_coeffs(p, guide, moments, w):
    counts, mean, var_eps = moments
    mean_p = box_sum(p, w)
    mean_p /= counts
    a = box_sum(guide * p, w)
    a /= counts
    a -= mean * mean_p
    a /= var_eps
    b = mean_p
    b -= a * mean
    return a, b


def frozen_guide_fit(p, guide, w, eps):
    if p is guide:
        return frozen_self_fit(guide, w, eps)
    moments = frozen_guide_moments(guide, w, eps)
    return moments, frozen_fit_coeffs(p, guide, moments, w)


def frozen_gf_coeffs(p, guide, w, eps):
    return frozen_guide_fit(p, guide, w, eps)[1]


def frozen_window_sums(a, b, guide, w):
    f = box_sum(a, w)
    f *= guide
    f += box_sum(b, w)
    return f


def frozen_anchored_update(f, counts, g=None, lam=0.0):
    if lam:
        f += lam * g
        f /= counts + lam
    else:
        f /= counts
    return f


def frozen_roll(p, guide, fit, w, update, iters, tol=None):
    """Every iterate of a fixed-guide roll; update(f, counts plane)."""
    moments, coeffs = fit
    out, q = [], p
    for _ in range(iters):
        if coeffs is None:
            coeffs = frozen_fit_coeffs(q, guide, moments, w)
        f = frozen_window_sums(*coeffs, guide, w)
        coeffs = None
        q_next = update(f, moments[0])
        out.append(q_next)
        if tol is not None and float(np.max(np.abs(q_next - q))) < tol:
            break
        q = q_next
    return out


def frozen_gf_roll(p, guide, w, eps, iters):
    return frozen_roll(p, guide, frozen_guide_fit(p, guide, w, eps), w,
                       frozen_anchored_update, iters)


def frozen_cgf_roll(p, guide, g, w, eps, lam, iters, tol=None):
    return frozen_roll(p, guide, frozen_guide_fit(p, guide, w, eps), w,
                       lambda f, counts: frozen_anchored_update(f, counts, g, lam), iters, tol)


def frozen_tvgf_roll(p, guide, w, eps, lam, iters):
    return frozen_roll(p, guide, frozen_guide_fit(p, guide, w, eps), w,
                       lambda f, counts: tvgf_solve_q(f, w, lam), iters)


def frozen_inverse_update(a, b, p, g, w, lam, prior):
    num = box_sum(a, w)
    num *= p
    num -= box_sum(a * b, w)
    den = box_sum(a * a, w)
    if lam:
        num += lam * g
        den += lam
    threshold = frozen_counts(p.shape, w)
    threshold *= FROZEN_DEGENERATE_EPS
    degenerate = den < threshold
    np.copyto(den, 1.0, where=degenerate)
    num /= den
    np.copyto(num, prior, where=degenerate)
    return num


def frozen_icgf(p, guess, g, w, eps, lam):
    a, b = frozen_gf_coeffs(p, guess, w, eps)
    return frozen_inverse_update(a, b, p, g, w, lam, guess)


def frozen_box_mean(x, w):
    out = box_sum(x, w)
    out /= frozen_counts(x.shape, w)
    return out


def frozen_alpha_weight(x, w):
    out = frozen_box_mean(x * x, w)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _frozen_blend(alpha, x, y):
    x *= alpha
    y *= np.subtract(1.0, alpha, out=alpha)
    x += y
    return x


def frozen_rmsf(p, guide, eps, eps2, lam, beta, w, iters):
    """Every iteration's (q, G, a, b, c, d) of the anchored mutual loop."""
    counts = frozen_counts(p.shape, w)
    q, G = p, guide
    out = []
    for _ in range(iters):
        ab = frozen_gf_coeffs(q, G, w, eps)
        cd = frozen_gf_coeffs(G, q, w, eps2)
        alpha_q = frozen_alpha_weight(cd[0], w)
        alpha_g = frozen_alpha_weight(ab[0], w)
        fwd_q = frozen_anchored_update(frozen_window_sums(*ab, G, w), counts, p, lam)
        q_new = _frozen_blend(alpha_q, fwd_q, frozen_inverse_update(*cd, G, guide, w, beta, q))
        fwd_g = frozen_anchored_update(frozen_window_sums(*cd, q_new, w), counts, guide, beta)
        G_new = _frozen_blend(alpha_g, fwd_g, frozen_inverse_update(*ab, q_new, p, w, lam, G))
        q, G = q_new, G_new
        out.append((q, G, *ab, *cd))
    return out


def frozen_flash_base(flash, w, eps):
    moments, (a, b) = frozen_self_fit(flash, w, eps)
    return moments, frozen_anchored_update(frozen_window_sums(a, b, flash, w), moments[0])


def frozen_enhanced_flash(flash, w, eps, tau):
    base = frozen_flash_base(flash, w, eps)[1]
    base += tau * (flash - base)
    return base


def frozen_rfnf(noflash, flash, w, eps, lam, tau, iters):
    """The last iterate of rfnf_gen, or of rfnf_seo when tau is None."""
    moments, base = frozen_flash_base(flash, w, eps)
    if tau is None:
        np.subtract(flash, base, out=base)
        base *= lam

        def update(f, counts):
            q = frozen_anchored_update(f, counts)
            q += base
            return q
    else:
        base += tau * (flash - base)

        def update(f, counts):
            return frozen_anchored_update(f, counts, base, lam)

    fit = (moments, frozen_fit_coeffs(noflash, flash, moments, w))
    return frozen_roll(noflash, flash, fit, w, update, iters)[-1]
