"""Acceptance gate: the ten release criteria, one test per criterion.

Each test prints a single pass line with its measured margins (visible
with pytest -s / -v); an assertion failure marks the criterion red.
Thresholds that had to be frozen from a first calibration run are noted
inline with the measured values they were frozen against.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

from gfkit.core import Boundary, WindowSpec
from gfkit.boxops import box_mean, box_sum, window_counts
from gfkit.cli import FILTER_COMMANDS
from gfkit.gf import anchor_term, energy_gf, gf, gf_coeffs, gf_iterates, gf_roll
from gfkit.tvgf import tv_term, tvgf, tvgf_iterates
from gfkit.cgf import cgf, cgf_iterates, cgf_roll, energy_cgf
from gfkit.igf import igf, icgf, DEGENERATE_EPS
from gfkit.rmsf import MutualState, cgf_rmsf, energy_mutual, gf_rmsf, naive_roll37
from gfkit.rfnf import (
    detail_image,
    detail_term,
    enhanced_flash,
    rfnf_gen,
    rfnf_gen_iterates,
    rfnf_seo,
    rfnf_seo_iterates,
)
from gfkit.metrics import mse, psnr, ssim
from gfkit.imgio import PnmError, read_pnm, write_pnm
from gfkit import synth

from oracles import anchored_minimizer, energy_gf_reordered, naive_gf
from test_imgio import MALFORMED


def report(n, detail):
    print(f"[criterion {n:02d}] PASS  {detail}")


def test_criterion_01_gf_oracle_equivalence():
    combos = [
        (r, eps, boundary)
        for boundary in (Boundary.TRUNCATE, Boundary.PERIODIC)
        for r in (1, 3, 7)
        for eps in (0.01, 0.1)
    ]
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        r, eps, boundary = combos[i % len(combos)]
        p = rng.random((32, 32))
        guide = rng.random((32, 32))
        w = WindowSpec(r, boundary)
        diff = float(np.max(np.abs(gf(p, guide, w, eps) - naive_gf(p, guide, w, eps))))
        worst = max(worst, diff)
        assert diff <= 1e-10, (i, r, eps, boundary, diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"100 instances, all 12 (r, eps, boundary) combos; worst |diff| "
              f"{worst:.2e} <= 1e-10; {elapsed:.1f}s < 10s")


PASSES = 10
# (seed, size, radius): ten 32x32 instances, then those of the former per-filter checks
DESCENT_INSTANCES = [(300 + s, 32, 3) for s in range(10)] + [(13, 16, 2), (12, 16, 2), (8, 16, 2)]
# roll37 is the documented non-CCD baseline; rmsf-cgf's anchored pair is not
# yet an exact block minimization (its energy can rise at large anchors)
NOT_CCD = {"roll37", "rmsf-cgf"}


def _oracle_gf(q, fit, guide, w, eps):
    """energy_gf's data and ridge, summed pixel by pixel."""
    return energy_gf_reordered(q, fit.a, fit.b, guide, w, eps)


def _roll_row(p, iterates, guide, w, eps, term):
    """The rises of energy_gf plus a scheme's pixel term over its iterates
    from q0 = p, each iterate priced with the fit it was solved from, and
    the last step: that energy as a function of q at the last fit, the same
    by the per-window oracle, and the last iterate."""
    qs = [p, *iterates]
    fits = [gf_coeffs(q, guide, w, eps) for q in qs[:-1]]

    def energy(q, fit):
        return energy_gf(q, fit, guide, w, eps, term).total

    def oracle(q, fit):
        return _oracle_gf(q, fit, guide, w, eps) + (term.value(q) if term else 0.0)

    rises = np.diff([energy(q, fit) for fit, q in zip(fits, qs[1:])])
    return rises, partial(energy, fit=fits[-1]), partial(oracle, fit=fits[-1]), qs[-1]


def _inverse_row(p, G0, G1, w, eps, g, lam):
    """The rises of an inverse pass G0 -> G1, a block step in G of
    energy_gf(p, fit, G) + lam * ||G - g||^2, and of the refit after it;
    and the step: that energy as a function of G at fit0, the same by the
    oracle, and G1."""
    def energy(G, fit):
        return energy_gf(p, fit, G, w, eps).total + lam * float(np.sum((G - g) ** 2))

    def oracle(G, fit):
        return _oracle_gf(p, fit, G, w, eps) + lam * float(np.sum((G - g) ** 2))

    fit0 = gf_coeffs(p, G0, w, eps)
    rises = np.diff([energy(G0, fit0), energy(G1, fit0), energy(G1, gf_coeffs(p, G1, w, eps))])
    return rises, partial(energy, fit=fit0), partial(oracle, fit=fit0), G1


def fixed_guide_rows(p, guide, w, eps=0.1, lam=2.0, tv_lam=45.0, passes=PASSES):
    """The fixed-guide rows of criterion 02 on window w, each a
    ``_roll_row``; tvgf runs on periodic windows only."""
    detail = detail_image(guide, w, eps)
    rows = [
        ("gf", gf_iterates(p, guide, w, eps, passes), None),
        ("cgf", cgf_iterates(p, guide, p, w, eps, lam, passes), anchor_term(p, lam)),
        ("rfnf-gen", rfnf_gen_iterates(p, guide, w, eps, lam, 1.5, passes),
         anchor_term(enhanced_flash(guide, w, eps, 1.5), lam)),
        *[("rfnf-seo", rfnf_seo_iterates(p, guide, w, eps, gain, passes),
           detail_term(gain * detail, w)) for gain in (1.5, -0.5)],
    ]
    if w.boundary is Boundary.PERIODIC:
        rows.append(("tvgf", tvgf_iterates(p, guide, w, eps, tv_lam, passes),
                     tv_term(p.shape, w, tv_lam)))
    for name, iterates, term in rows:
        yield name, *_roll_row(p, iterates, guide, w, eps, term)


def inverse_rows(p, guide, w, eps=0.1, lams=(0.0, 0.01, 2.0, 500.0)):
    """The inverse passes of criterion 02 from the guess G0 = guide,
    anchored to p, one per lambda: each an ``_inverse_row``."""
    for lam in lams:
        G1 = icgf(p, guide, p, w, eps, lam) if lam else igf(p, guide, w, eps)
        yield "icgf" if lam else "igf", *_inverse_row(p, guide, G1, w, eps, p, lam)


def mutual_row(p, guide, w, eps=0.1, eps2=0.05, passes=PASSES):
    """Criterion 02's rmsf-gf row: the rises of ``energy_mutual`` over the
    snapshots, and its last step, the G step that reads the fresh q."""
    snaps = []
    gf_rmsf(p, guide, eps, eps2, w, passes, snapshots=snaps)
    last = snaps[-1]
    q, ab, cd = last.state.q, last.ab, last.cd

    def energy(G):
        return energy_mutual(MutualState(q, G, passes), ab, cd, w, eps, eps2).total

    def oracle(G):
        return _oracle_gf(q, ab, G, w, eps) + _oracle_gf(G, cd, q, w, eps2)

    rises = np.diff([energy_mutual(s.state, s.ab, s.cd, w, eps, eps2).total for s in snaps])
    return "rmsf-gf", rises, energy, oracle, last.state.G


def descent_table(p, guide, r):
    """Criterion 02's table at one instance: (filter command, energy rises,
    last step energy, the same by the oracle, last step block) per row. The
    fixed-guide rows run on both boundaries; the inverse passes and the
    mutual pair have their own objectives. The last step is the row's final
    block minimization: its energy as a function of the block it solved
    for, with everything else held, and the block's value."""
    wt, wp = WindowSpec(r, Boundary.TRUNCATE), WindowSpec(r, Boundary.PERIODIC)
    eps = 0.1
    yield from fixed_guide_rows(p, guide, wt, eps)
    yield from fixed_guide_rows(p, guide, wp, eps)
    yield from inverse_rows(p, guide, wt, eps)
    yield mutual_row(p, guide, wt, eps)


def ccd_rows(p, guide, w, eps, eps2, lam, passes):
    """Every row of criterion 02's table on one window, at one eps, eps2
    and anchor weight lam (tvgf's too), and ``passes`` passes: the generated
    cases of ``tests/test_properties.py`` run these."""
    yield from fixed_guide_rows(p, guide, w, eps, lam, lam, passes)
    yield from inverse_rows(p, guide, w, eps, (0.0, lam))
    yield mutual_row(p, guide, w, eps, eps2, passes)


def test_criterion_02_ccd_energy_descent():
    slack = 1e-9
    worst_rise = -math.inf
    names = set()
    for seed, size, r in DESCENT_INSTANCES:
        rng = np.random.default_rng(seed)
        p, guide = rng.random((size, size)), rng.random((size, size))
        for name, rises, *_ in descent_table(p, guide, r):
            names.add(name)
            worst_rise = max(worst_rise, float(rises.max()))
            assert np.all(rises <= slack), f"{name} rose by {rises.max():.2e} (seed {seed})"
    report(2, f"{len(names)} schemes x {len(DESCENT_INSTANCES)} instances, {PASSES} "
              f"iterations or 1 inverse pass; worst energy rise {worst_rise:.2e} <= 1e-9")


def test_criterion_02_last_steps_are_exact():
    # descent alone passes a step that lowers the energy without minimizing
    # it; at the minimizer of the last step's block, moving one pixel by
    # +-delta raises that step's energy by delta^2 times its curvature
    # there, while a step that leaves a gradient g lowers it on one side
    # once |g| > delta * curvature
    seed, size, r = DESCENT_INSTANCES[-3]
    rng = np.random.default_rng(seed)
    p, guide = rng.random((size, size)), rng.random((size, size))
    delta = 1e-5  # the tvgf rows curve by 410: a gradient of 4e-3 shows
    pixels = [(0, 0), (size // 2, size // 3), (size - 1, size // 2)]  # corner, inside, edge
    for name, _, energy, _, x in descent_table(p, guide, r):
        e0 = energy(x)
        for pixel in pixels:
            for step in (delta, -delta):
                y = x.copy()
                y[pixel] += step
                e = energy(y)
                assert e >= e0, f"{name}: moving {pixel} by {step:+g} lowers it by {e0 - e:.2e}"
    report(2, f"last steps exact: no +-{delta:g} move of {len(pixels)} pixels lowers "
              f"any row's energy (seed {seed}, {size}x{size}, r = {r})")


def test_criterion_02_energy_matches_the_oracle():
    # each row's closed-form energy against the pixel-by-pixel sum, at the
    # table's own sizes
    instances = {(size, r): seed for seed, size, r in reversed(DESCENT_INSTANCES)}
    worst = 0.0
    for (size, r), seed in instances.items():
        rng = np.random.default_rng(seed)
        p, guide = rng.random((size, size)), rng.random((size, size))
        for name, _, energy, oracle, x in descent_table(p, guide, r):
            got, want = energy(x), oracle(x)
            worst = max(worst, abs(got - want) / abs(want))
            assert got == pytest.approx(want, rel=1e-12), (name, size, r)
    report(2, f"closed-form energies match the per-window oracle on every row at "
              f"{sorted(instances)}: worst relative gap {worst:.1e} <= 1e-12")


@pytest.mark.parametrize("boundary", [Boundary.TRUNCATE, Boundary.PERIODIC])
def test_criterion_02_descent_at_scale(boundary):
    # at 256^2 the energies reach 5e5 and their round-off 1e-8 (1e-14
    # relative, against the oracle), so the slack is relative; the smallest
    # per-pass fall was 3e-5 relative
    rng = np.random.default_rng(256)
    p, guide = rng.random((256, 256)), rng.random((256, 256))
    for name, rises, energy, _, x in fixed_guide_rows(p, guide, WindowSpec(4, boundary)):
        slack = 1e-12 * abs(energy(x))
        assert np.all(rises <= slack), f"{name} rose by {rises.max():.2e} > {slack:.1e}"


@pytest.fixture(scope="module")
def descent_row_names():
    rng = np.random.default_rng(0)
    return {name for name, *_ in descent_table(rng.random((8, 8)), rng.random((8, 8)), 1)}


@pytest.mark.parametrize("command", sorted(FILTER_COMMANDS))
def test_every_ccd_filter_command_has_a_descent_row(descent_row_names, command):
    # a new filter command joins criterion 02's table or says why it is not CCD
    assert (command in descent_row_names) != (command in NOT_CCD)


def test_criterion_03_reductions():
    rng = np.random.default_rng(77)
    p, guide = rng.random((24, 24)), rng.random((24, 24))

    wp = WindowSpec(3, Boundary.PERIODIC)
    d_tv = float(np.max(np.abs(tvgf(p, guide, wp, 0.1, 0.0) - gf(p, guide, wp, 0.1))))
    assert d_tv <= 1e-8

    wt = WindowSpec(3, Boundary.TRUNCATE)
    d_cgf = float(np.max(np.abs(cgf(p, guide, p, wt, 0.1, 0.0) - gf(p, guide, wt, 0.1))))
    assert d_cgf <= 1e-12

    plain = gf_rmsf(p, guide, 0.1, 0.05, wt, 5)
    anchored = cgf_rmsf(p, guide, 0.1, 0.05, 0.0, 0.0, wt, 5)
    d_rmsf = max(
        float(np.max(np.abs(plain.q - anchored.q))),
        float(np.max(np.abs(plain.G - anchored.G))),
    )
    assert d_rmsf <= 1e-12

    coeffs = gf_coeffs(p, guide, wt, 0.1)
    nondegenerate = box_mean(coeffs.a * coeffs.a, wt) >= DEGENERATE_EPS
    gap = np.abs(icgf(p, guide, guide, wt, 0.1, 0.0) - igf(p, guide, wt, 0.1))
    d_icgf = float(np.max(gap[nondegenerate]))
    assert d_icgf <= 1e-12

    d_rfnf = float(
        np.max(np.abs(
            rfnf_gen(p, guide, wt, 0.1, 0.0, 1.0, 3) - rfnf_seo(p, guide, wt, 0.1, 0.0, 3)
        ))
    )
    assert d_rfnf <= 1e-12
    report(3, f"tvgf {d_tv:.1e}<=1e-8; cgf {d_cgf:.1e}, rmsf {d_rmsf:.1e}, "
              f"icgf {d_icgf:.1e}, rfnf {d_rfnf:.1e} all <=1e-12")


def test_criterion_04_conservative_vs_dissipative():
    # frozen from the calibration run: gf ratio 0.002, cgf ratio 0.78 with
    # convergence at pass 30 (lambda must keep the contraction factor
    # 1 - lam/(|w|+lam) well under 1 for the 200-pass budget; lam = 8, r = 2)
    clean, noisy = synth.noise_pair(64, 64, seed=42, sigma=0.05)
    struct_std = float(np.std(clean))

    qs = gf_roll(noisy, noisy, WindowSpec(10, Boundary.TRUNCATE), 0.1, 50)
    gf_ratio = float(np.std(qs[-1])) / struct_std
    assert gf_ratio < 0.20

    qs = cgf_roll(noisy, noisy, noisy, WindowSpec(2, Boundary.TRUNCATE), 0.1, 8.0, 200)
    deltas = [float(np.max(np.abs(b - a))) for a, b in zip(qs, qs[1:])]
    converged_at = next((i + 2 for i, d in enumerate(deltas) if d < 1e-6), None)
    cgf_ratio = float(np.std(qs[-1])) / struct_std
    assert cgf_ratio > 0.50
    assert converged_at is not None and converged_at < 200
    report(4, f"gf ratio {gf_ratio:.3f} < 0.20; cgf ratio {cgf_ratio:.3f} > 0.50, "
              f"max-delta < 1e-6 at pass {converged_at} < 200")


# (size, radius, boundary) of the anchored rolls' dense solves
CERTIFIED = [(16, 2, Boundary.TRUNCATE), (16, 3, Boundary.PERIODIC), (12, 20, Boundary.TRUNCATE)]


def _to_rest(iterates, q):
    """The iterates from q0 = q up to the first that moves no pixel by 1e-15."""
    for nxt in iterates:
        yield nxt
        if float(np.max(np.abs(nxt - q))) < 1e-15:
            return
        q = nxt


@pytest.mark.parametrize("scheme", ["cgf", "rfnf-gen"])
@pytest.mark.parametrize("size,r,boundary", CERTIFIED)
def test_criterion_04_anchored_rolls_reach_the_certified_minimizer(size, r, boundary, scheme):
    # E*(q), the energy at the refit, is 2 lam-strongly convex, and a pass
    # is a Jacobi step on its minimizer's system with gradient
    # 2 (n + lam)(q_n - q_{n+1}); so at every pass the gap to the dense
    # solve's energy is at most sum((n + lam)^2 (q_n - q_{n+1})^2) / lam,
    # up to the energies' round-off (allowed: 1e-12 of min E)
    rng = np.random.default_rng(size + r)
    p, guide = rng.random((size, size)), rng.random((size, size))
    w, eps, lam = WindowSpec(r, boundary), 0.1, 2.0
    if scheme == "cgf":
        g = p
        qs = [p, *cgf_roll(p, guide, g, w, eps, lam, 20000, tol=1e-15)]
    else:  # rfnf_gen's roll, anchored to the enhanced flash image
        g = enhanced_flash(guide, w, eps, 1.5)
        qs = [p, *_to_rest(rfnf_gen_iterates(p, guide, w, eps, lam, 1.5, 20000), p)]
    target = anchored_minimizer(guide, g, w, eps, lam)

    def energy(q):
        return energy_cgf(q, gf_coeffs(q, guide, w, eps), guide, g, w, eps, lam).total

    floor = energy(target)
    weight = (window_counts(p.shape, w) + lam) ** 2 / lam
    ratio = 0.0
    for n, (q, nxt) in enumerate(zip(qs, qs[1:])):
        gap, bound = energy(q) - floor, float(np.sum(weight * (q - nxt) ** 2))
        assert gap <= bound + 1e-12 * floor, f"pass {n}: gap {gap:.2e} > bound {bound:.2e}"
        if bound > 1e-9 * floor:  # above the energies' round-off
            ratio = max(ratio, gap / bound)
    diff = float(np.max(np.abs(qs[-1] - target)))
    assert diff <= 1e-12, f"{scheme} stopped {diff:.2e} from the dense solve"
    report(4, f"{scheme} {size}x{size}, r = {r}, {boundary.value}: {len(qs) - 1} passes to "
              f"{diff:.1e} <= 1e-12 of the dense solve; gap/certificate <= {ratio:.2f}")


def test_criterion_05_rfnf_linear_approximation():
    flash, noflash = synth.flash_pair(48, 48, seed=3)
    w = WindowSpec(2, Boundary.PERIODIC)
    size = float(w.side**2)
    lam_seo = 0.9
    alphas = np.array([1e-2, 1e-3, 1e-4])
    gaps = []
    for alpha in alphas:
        lam = alpha * size / (1.0 - alpha)
        tau = lam_seo / alpha
        step_gen = rfnf_gen(noflash, flash, w, 0.1, lam, tau, 1)
        step_seo = rfnf_seo(noflash, flash, w, 0.1, lam_seo, 1)
        gaps.append(float(np.max(np.abs(step_gen - step_seo))))
    gaps = np.array(gaps)
    slope = float(np.sum(alphas * gaps) / np.sum(alphas * alphas))
    r2 = 1.0 - float(np.sum((gaps - slope * alphas) ** 2)) / float(np.sum(gaps**2))
    assert r2 > 0.999
    report(5, f"per-step gaps {gaps.round(7).tolist()} vs alpha: origin-fit "
              f"R^2 = {r2:.6f} > 0.999")


def test_criterion_06_linear_time_complexity():
    img = synth.random_image(1000, 1000, 0)
    guide = synth.random_image(1000, 1000, 1)
    w2 = WindowSpec(2, Boundary.TRUNCATE)
    w20 = WindowSpec(20, Boundary.TRUNCATE)
    w10 = WindowSpec(10, Boundary.TRUNCATE)
    wp10 = WindowSpec(10, Boundary.PERIODIC)

    def time_min_pair(task_a, task_b, n=5):
        """Min-of-n of each task, alternating a and b in one loop."""
        task_a()  # warm-up
        task_b()
        best = [math.inf, math.inf]
        for _ in range(n):
            for i, task in enumerate((task_a, task_b)):
                t0 = time.perf_counter()
                task()
                best[i] = min(best[i], time.perf_counter() - t0)
        return best

    # interleaved min-of-5 keeps scheduler noise out of the ratio
    box2, box20 = time_min_pair(lambda: box_sum(img, w2), lambda: box_sum(img, w20))
    box_var = abs(box20 - box2) / min(box2, box20)
    assert box_var < 0.25, f"box_sum r=2 vs r=20 varies {box_var:.0%}"

    gf2, gf20 = time_min_pair(lambda: gf(img, guide, w2, 0.1), lambda: gf(img, guide, w20, 0.1))
    gf_var = abs(gf20 - gf2) / min(gf2, gf20)
    assert gf_var < 0.25, f"gf r=2 vs r=20 varies {gf_var:.0%}"

    gf10, tv10 = time_min_pair(
        lambda: gf(img, guide, w10, 0.1), lambda: tvgf(img, guide, wp10, 0.01, 45.0)
    )
    assert gf10 <= 2.0, f"gf at 1 MP took {gf10:.2f}s"
    assert tv10 <= 3.0 * gf10, f"tvgf {tv10:.2f}s vs gf {gf10:.2f}s"
    report(6, f"box r2/r20 var {box_var:.0%}, gf var {gf_var:.0%} (< 25%); "
              f"gf@1MP {gf10*1e3:.0f}ms <= 2s; tvgf {tv10*1e3:.0f}ms <= 3x gf")


def test_criterion_07_denoising_ordering():
    clean, noisy = synth.noise_pair(256, 256, seed=7, sigma=0.05)
    base = gf(noisy, noisy, WindowSpec(10, Boundary.TRUNCATE), 0.1)
    psnr_gf, ssim_gf = psnr(base, clean), ssim(base, clean)
    wp = WindowSpec(10, Boundary.PERIODIC)
    candidates = []
    for lam in (10.0, 45.0, 100.0):
        out = tvgf(noisy, noisy, wp, 0.01, lam)
        candidates.append((lam, psnr(out, clean), ssim(out, clean)))
    lam, psnr_tv, ssim_tv = max(candidates, key=lambda row: row[2])
    assert psnr_tv >= psnr_gf + 0.3
    assert ssim_tv > ssim_gf
    report(7, f"tvgf(lam={lam:g}) psnr {psnr_tv:.2f} >= {psnr_gf:.2f}+0.3, "
              f"ssim {ssim_tv:.4f} > {ssim_gf:.4f}")


def test_criterion_08_rmsf_contrast():
    tex = synth.texture_scene(64, 64, seed=5)
    w = WindowSpec(6, Boundary.TRUNCATE)
    eps = eps2 = 0.001

    one = gf_rmsf(tex, tex, eps, eps2, w, 1)
    first_move = float(np.max(np.abs(one.q - tex)))
    assert first_move > 1e-6

    mutual = gf_rmsf(tex, tex, eps, eps2, w, 30)
    naive = naive_roll37(tex, tex, eps, w, 30)
    ratio = float(np.std(naive.q)) / float(np.std(mutual.q))
    assert ratio < 0.5
    report(8, f"|q1 - q0| {first_move:.2e} > 1e-6; naive/mutual stddev after "
              f"30 passes = {ratio:.3f} < 0.5")


def test_criterion_09_pnm_bit_exactness():
    rng = np.random.default_rng(9)
    trips = 0
    for maxval in (255, 65535):
        for channels in (1, 3):
            for _ in range(250):
                h = int(rng.integers(1, 12))
                wd = int(rng.integers(1, 12))
                imgs = [rng.random((h, wd)) for _ in range(channels)]
                back = read_pnm(write_pnm(imgs, maxval))
                for orig, rec in zip(imgs, back):
                    assert np.max(np.abs(orig - rec)) <= 0.5 / maxval + 1e-12
                trips += 1
    assert trips == 1000

    assert len(MALFORMED) == 20
    for data, reason in MALFORMED:
        with pytest.raises(PnmError) as err:
            read_pnm(data)
        assert err.value.reason == reason
    report(9, "1000 round-trips within 0.5/maxval; all 20 malformed headers "
              "rejected with matching reason codes")


def test_invariant_filters_stay_finite():
    # standing invariant asserted with every acceptance run: constant or
    # random inputs through every filter produce finite pixels
    rng = np.random.default_rng(123)
    guide = rng.random((20, 20))
    wt = WindowSpec(3, Boundary.TRUNCATE)
    wp = WindowSpec(3, Boundary.PERIODIC)
    for p in (np.full((20, 20), 0.5), rng.random((20, 20))):
        outputs = [
            gf(p, guide, wt, 0.1),
            tvgf(p, guide, wp, 0.1, 45.0),
            cgf(p, guide, p, wt, 0.1, 0.5),
            igf(p, guide, wt, 0.1),
            icgf(p, guide, p, wt, 0.1, 0.5),
            gf_rmsf(p, guide, 0.1, 0.1, wt, 2).q,
            cgf_rmsf(p, guide, 0.1, 0.1, 0.01, 0.01, wt, 2).q,
            naive_roll37(p, guide, 0.1, wt, 2).q,
            rfnf_seo(p, guide, wt, 0.1, 0.5, 2),
            rfnf_gen(p, guide, wt, 0.1, 0.5, 2.0, 2),
        ]
        for out in outputs:
            assert np.all(np.isfinite(out))


def test_criterion_10_metric_sanity():
    for printed_psnr, printed_mse in ((21.8370, 0.0066), (24.5191, 0.0035)):
        lo = 10 * math.log10(1.0 / (printed_mse + 5e-5))
        hi = 10 * math.log10(1.0 / (printed_mse - 5e-5))
        assert lo <= printed_psnr <= hi, (printed_psnr, printed_mse)

    rng = np.random.default_rng(10)
    x, y = rng.random((16, 16)), rng.random((16, 16))
    assert ssim(x, x) == 1.0
    assert mse(x, y) == mse(y, x) >= 0.0
    noisier = y + 0.1 * rng.standard_normal((16, 16))
    assert psnr(x, noisier) < psnr(x, y) or mse(x, noisier) <= mse(x, y)
    assert -1.0 <= ssim(x, y) <= 1.0
    assert psnr(x, x) == math.inf
    report(10, "printed psnr/mse pairs consistent under peak 1.0; "
               "ssim(x,x)=1; metric invariants hold")
