"""End-to-end acceptance suite.

Each test certifies one headline property of the package at a fixed,
documented configuration and prints a single PASS/FAIL line (routed past
pytest's capture so the verdicts always reach the console).
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from _oracles import hilbert_pv, radon_chi_deriv
from test_transforms import exclusion_oracle

from neutrace.calculus import coeff_c
from neutrace.cli import main as cli_main
from neutrace.forward import (
    SolverParams,
    TimeGrid,
    simulate_traces,
    wave_solution,
)
from neutrace.geometry import (
    boundary_quadrature,
    domain_diameter,
    ellipsoid,
    grid_margin,
    superellipse,
    support_halfwidth,
)
from neutrace.inversion import (
    ImageGrid,
    ReconstructionOptions,
    _angular_set,
    _correction_matrix,
    backproject_odd,
    correction_K,
    reconstruct,
    truncation_probe,
)
from neutrace.transforms import Bump, Phantom, build_kernel_profile
from neutrace.validation import (
    check_even_equivalence,
    check_integral_identity,
    check_lemma_coefficients,
    check_lemma_symbolic,
    check_mollifier,
)


class verdict:
    """Collects one criterion's outcome and prints it as a single line.

    Printing happens with capture suspended so the verdicts reach the
    console even under pytest's default file-descriptor capture.
    """

    def __init__(self, num: int, label: str, capsys):
        self.num = num
        self.label = label
        self.capsys = capsys
        self.ok = False
        self.detail = "not evaluated"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._emit(False, f"error: {exc}")
            return False
        self._emit(self.ok, self.detail)
        assert self.ok, f"criterion {self.num}: {self.detail}"
        return False

    def _emit(self, ok: bool, detail: str) -> None:
        line = f"[criterion {self.num:02d}] {'PASS' if ok else 'FAIL'} {self.label}: {detail}"
        with self.capsys.disabled():
            print(line, file=sys.__stdout__, flush=True)


def _rel_l2(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.sqrt(np.sum((got - want) ** 2) / np.sum(want**2)))


def _slice_points(extent: float, m: int) -> np.ndarray:
    xs = np.linspace(-extent, extent, m)
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([g1.reshape(-1), g2.reshape(-1), np.zeros(m * m)], axis=-1)
    return pts[np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) <= extent]


def test_criterion_01_ball_reconstruction_is_exact(capsys):
    with verdict(1, "three-dimensional reconstruction on the unit ball", capsys) as v:
        ball = ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
        pts = _slice_points(0.6, 21)
        want = f.eval(pts)
        errs = []
        for res, nt in ((24, 400), (48, 800)):
            bq = boundary_quadrature(ball, res)
            traces = simulate_traces(f, ball, bq, TimeGrid(t_max=3.0, nt=nt))
            got = np.array([backproject_odd(traces, p) for p in pts])
            errs.append(_rel_l2(got, want))
        ratio = errs[0] / errs[1]
        v.ok = errs[0] <= 0.05 and ratio >= 1.5
        v.detail = (
            f"rel L2 = {errs[0]:.4%} (bound 5%), refinement ratio = {ratio:.2f} (bound 1.5)"
        )


def test_criterion_02_ellipse_reconstruction_is_exact(capsys):
    with verdict(2, "two-dimensional reconstruction on the ellipse", capsys) as v:
        ellipse = ellipsoid((0.0, 0.0), (1.5, 1.0))
        f = Phantom((Bump(center=(0.2, -0.1), radius=0.3),))
        bq = boundary_quadrature(ellipse, 512)
        t_max = 4.0 * 2.0 * 1.5  # four domain diameters
        traces = simulate_traces(
            f, ellipse, bq, TimeGrid(t_max=t_max, nt=2000), SolverParams(table_points=4096)
        )
        image = reconstruct(traces, ImageGrid((-0.34, -0.54), (0.74, 0.34), (31, 31)))
        err = _rel_l2(image.values, f.eval(image.points()))
        trunc = truncation_probe(traces, np.array([0.2, -0.1]))
        v.ok = err <= 0.05 and trunc <= 0.01 * f.peak()
        v.detail = (
            f"rel L2 = {err:.4%} (bound 5%), truncation estimate = {trunc:.3g} "
            f"(bound 1% of peak)"
        )


def _safety_chords(domain, count: int, margin: float, seed: int):
    rng = np.random.default_rng(seed)
    n = domain.dimension
    chords = []
    for _ in range(count):
        th = rng.normal(size=n)
        th /= np.linalg.norm(th)
        hw = support_halfwidth(domain, th)
        s = (rng.random() * 2.0 - 1.0) * 0.8 * (hw - margin)
        chords.append((th, float(s)))
    return chords


def test_criterion_03_ellipsoid_kernels_vanish(capsys):
    with verdict(3, "section-profile kernels vanish on ellipsoids", capsys) as v:
        ball = ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        worst_exact = worst_fd = 0.0
        for th, s in _safety_chords(ball, 50, 0.2, seed=11):
            worst_exact = max(
                worst_exact, abs(radon_chi_deriv(ball, th, s, 3, method="analytic"))
            )
            worst_fd = max(
                worst_fd, abs(radon_chi_deriv(ball, th, s, 3, method="fd", margin=0.2))
            )
        ellipse = ellipsoid((0.0, 0.0), (1.5, 1.0))
        worst_h = 0.0
        for th, s in _safety_chords(ellipse, 50, 0.2, seed=12):
            worst_h = max(
                worst_h,
                abs(
                    build_kernel_profile(
                        ellipse, th, 2, margin=0.2, num_table=256, num_quad=128,
                        with_hilbert=True,
                    ).eval(s, order=2, hilbert=True)
                ),
            )
        v.ok = worst_exact <= 1e-9 and worst_fd <= 1e-4 and worst_h <= 1e-4
        v.detail = (
            f"ball analytic max = {worst_exact:.2g} (bound 1e-9), ball differenced "
            f"max = {worst_fd:.2g} (bound 1e-4), ellipse max = {worst_h:.2g} (bound 1e-4)"
        )


def test_criterion_04_superellipse_kernel_does_not_vanish(capsys):
    with verdict(4, "the exponent-4 superellipse kernel is nonzero and stable", capsys) as v:
        domain = superellipse((0.0, 0.0), (1.2, 0.9), 4.0)
        chords = _safety_chords(domain, 50, 0.25, seed=13)

        def chord_max(num_table: int, num_quad: int) -> float:
            return max(
                abs(
                    build_kernel_profile(
                        domain, th, 2, margin=0.25, num_table=num_table, num_quad=num_quad,
                        with_hilbert=True,
                    ).eval(s, order=2, hilbert=True)
                )
                for th, s in chords
            )

        base = chord_max(256, 128)
        fine = chord_max(512, 256)
        drift = abs(fine - base) / abs(fine)
        v.ok = base >= 10.0 * 1e-4 and drift <= 0.05
        v.detail = (
            f"chord max = {base:.4g} (bound 1e-3), refinement drift = {drift:.2g} (bound 5%)"
        )


def test_criterion_05_integral_identity(capsys):
    with verdict(5, "boundary-flux integral identity in three dimensions", capsys) as v:
        ball = ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
        g = Phantom((Bump(center=(-0.05, 0.1, 0.0), radius=0.4),))
        coarse = check_integral_identity(f, g, ball, level=0)
        fine = check_integral_identity(f, g, ball, level=1)
        v.ok = coarse.rel_residual <= 2e-2 and fine.rel_residual < coarse.rel_residual
        v.detail = (
            f"rel residual = {coarse.rel_residual:.3g} (bound 2e-2), refined = "
            f"{fine.rel_residual:.3g}"
        )


def test_criterion_06_mollifier_identities(capsys):
    with verdict(6, "mollifier mass and section-profile identities", capsys) as v:
        worst = 0.0
        for n, mu, eps in ((2, 2, 0.5), (3, 3, 1.0)):
            for report in check_mollifier(n, mu, eps):
                worst = max(worst, report.abs_residual)
        v.ok = worst <= 1e-6
        v.detail = f"worst residual = {worst:.3g} (bound 1e-6)"


def test_criterion_07_even_solver_routes_agree(capsys):
    with verdict(7, "the two planar solver arrangements agree", capsys) as v:
        f = Phantom((Bump(center=(0.0, 0.0), radius=0.5),))
        rng = np.random.default_rng(7)
        pts = (rng.random((5, 2)) - 0.5) * 1.0
        ts = 0.2 + rng.random(5)
        report = check_even_equivalence(f, pts, ts)
        v.ok = report.abs_residual <= 1e-5
        v.detail = f"worst normalised gap = {report.abs_residual:.3g} (bound 1e-5)"


def test_criterion_08_reduction_coefficients(capsys):
    with verdict(8, "iterated radial-derivative coefficient table", capsys) as v:
        def g(pts):
            pts = np.asarray(pts)
            x, y = pts[..., 0], pts[..., 1]
            return 1.0 + 0.5 * x - 0.25 * y + 0.3 * x * x + 0.1 * x * y

        worst = 0.0
        for report in check_lemma_coefficients(2, (1, 2), g, (0.1, -0.2), 0.7):
            worst = max(worst, report.rel_residual)
        symbolic = check_lemma_symbolic(4, 2)
        known = coeff_c(4, 1, 0) == 3 and coeff_c(4, 2, 0) == 3
        v.ok = worst <= 1e-4 and symbolic.params["max_coeff_diff"] == 0.0 and known
        v.detail = (
            f"worst rel residual = {worst:.3g} (bound 1e-4), symbolic coefficient "
            f"gap = {symbolic.params['max_coeff_diff']:g}, hand-checked entries ok = {known}"
        )


def test_criterion_09_hilbert_transform_oracle(capsys):
    with verdict(9, "principal-value transform of ellipse section profiles", capsys) as v:
        # the chord profile of an ellipse is pref sqrt(1 - z^2), z = (s - s_c) / w,
        # and the transform of sqrt(1 - z^2) is z on (-1, 1), at any scale and shift
        worst_profile = 0.0
        for center, axes, th in (
            ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)),
            ((0.2, -0.1), (1.5, 1.0), (0.6, 0.8)),
        ):
            w = math.hypot(axes[0] * th[0], axes[1] * th[1])
            s_c = center[0] * th[0] + center[1] * th[1]
            pref = 2.0 * axes[0] * axes[1] / w
            prof = build_kernel_profile(ellipsoid(center, axes), th, 2, margin=0.1, with_hilbert=True)
            s = s_c + w * np.linspace(-0.6, 0.6, 13)
            got = prof.eval(s, order=0, hilbert=True)
            worst_profile = max(worst_profile, float(np.abs(got - pref * (s - s_c) / w).max()))
        # the reference rule itself, against the closed form and the exclusion limit
        phi = lambda t: np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        worst_exact = worst_oracle = 0.0
        for s in (-0.5, 0.0, 0.5):
            got = hilbert_pv(phi, (-1.0, 1.0), s, 512)
            worst_exact = max(worst_exact, abs(got - s))
            worst_oracle = max(worst_oracle, abs(got - exclusion_oracle(phi, -1.0, 1.0, s)))
        v.ok = worst_profile <= 1e-6 and worst_exact <= 1e-6 and worst_oracle <= 1e-6
        v.detail = (
            f"kernel profiles: max gap to the closed form = {worst_profile:.3g}; reference "
            f"rule on the semicircle: to the closed form = {worst_exact:.3g}, to the "
            f"exclusion oracle = {worst_oracle:.3g} (bounds 1e-6)"
        )


def test_criterion_10_initial_condition_and_horizon(capsys):
    with verdict(10, "initial condition order and sharp signal cutoff", capsys) as v:
        ball = ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
        x = np.array([0.1, 0.0, 0.0])
        f_val = float(f.eval(x))
        ratio = abs(wave_solution(f, x, 1e-2) - f_val) / abs(
            wave_solution(f, x, 5e-3) - f_val
        )
        tail = abs(wave_solution(f, (2.0, 0.0, 0.0), 2.5))
        bq = boundary_quadrature(ball, 8)
        silent = simulate_traces(Phantom(()), ball, bq, TimeGrid(t_max=3.0, nt=16))
        all_zero = bool(np.all(silent.values == 0.0))
        v.ok = ratio >= 3.5 and tail <= 1e-10 and all_zero
        v.detail = (
            f"halving ratio = {ratio:.2f} (bound 3.5), post-horizon field = {tail:.2g} "
            f"(bound 1e-10), empty-phantom traces all zero = {all_zero}"
        )


def test_criterion_11_pipeline_determinism(tmp_path, capsys):
    with verdict(11, "byte-identical repeated runs", capsys) as v:
        cfg_text = (
            "dimension = 3\n"
            "domain.semi_axes = 1.0, 1.0, 1.0\n"
            "phantom.bump1.center = 0.1, 0.0, 0.0\n"
            "phantom.bump1.radius = 0.35\n"
            "boundary.resolution = 8\n"
            "time.nt = 24\n"
            "time.t_max = 3.0\n"
            "grid.lo = -0.2, -0.2, 0.0\n"
            "grid.hi = 0.2, 0.2, 0.0\n"
            "grid.shape = 3, 3, 1\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)

        def run(cmd, out):
            code = cli_main([cmd, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            return out.read_bytes()

        t1 = run("forward", tmp_path / "t1.csv")
        t2 = run("forward", tmp_path / "t2.csv")
        cfg.write_text(cfg_text + f"input.trace = {tmp_path / 't1.csv'}\n")
        i1 = run("reconstruct", tmp_path / "i1.csv")
        i2 = run("reconstruct", tmp_path / "i2.csv")
        capsys.readouterr()
        traces_same, images_same = t1 == t2, i1 == i2
        v.ok = traces_same and images_same
        v.detail = f"trace files identical = {traces_same}, image files identical = {images_same}"


def test_criterion_12_correction_removes_the_shape_error(capsys):
    with verdict(12, "the shape correction on the exponent-4 superellipse", capsys) as v:
        domain = superellipse((0.0, 0.0), (1.2, 0.9), 4.0)
        f = Phantom((Bump(center=(0.25, 0.1), radius=0.3),))
        bq = boundary_quadrature(domain, 128)
        times = TimeGrid(t_max=4.0 * domain_diameter(domain), nt=600)
        traces = simulate_traces(f, domain, bq, times, SolverParams(table_points=4096))
        grid = ImageGrid(lo=(-0.1, -0.25), hi=(0.6, 0.45), shape=(9, 9))
        opts = ReconstructionOptions(k_radial=24, k_angular=48, kernel_table=512, kernel_quad=256)
        b = reconstruct(traces, grid, opts)
        corrected = reconstruct(traces, grid, replace(opts, correction="fixed_point"))
        pts = grid.points()
        want = f.eval(pts)
        plain_err = _rel_l2(b.values, want)
        corr_err = _rel_l2(corrected.values, want)
        # the back-projection error is K f: b - f - K f is much smaller than b - f
        kopts = replace(opts, kernel_margin=b.meta["margin"])
        kf = correction_K(f, pts, domain, kopts)
        model_err = np.linalg.norm(b.values - kf - want) / np.linalg.norm(b.values - want)
        v.ok = corr_err <= 0.5 * plain_err and model_err <= 0.5
        v.detail = (
            f"rel L2 corrected = {corr_err:.4%}, plain = {plain_err:.4%} (bound: half), "
            f"|b - f - Kf| / |b - f| = {model_err:.3f} (bound 0.5)"
        )


# Criterion 15's bounds, from a measurement on this configuration: rel L2
# 0.999 % at resolution/nt 24/400, 0.126 % at 48/800 and 0.0089 % at
# 96/1600.  The 48/800 bound is twice its measurement and a quarter of the
# 24/400 value, so losing one refinement level fails it; the refinement
# ratio (7.9 measured, 14 at the next level) must at least show second order.
TRIAXIAL_REL_L2 = 0.0025
TRIAXIAL_RATIO = 4.0

# The section volume of a 3-D ellipsoid is the quadratic pref (1 - z^2),
# z = (s - s_c) / w, pref = pi a1 a2 a3 / w, so the exact third offset
# derivative is 0 and every computed digit is table roundoff.  A scale error
# common to a row (pref, w) keeps it quadratic; what is not common is each
# entry's rounding: z^2 carries 3 u relative, 1 - z^2 and the product by pref
# one u each, and the node offset s - s_c one ulp of |s_c| + w, worth
# 2 pref (|s_c| + w) / w u through the slope.  The Richardson third
# difference has absolute weights 5.5 (16 + 1/8) / (15 h^3), and the cubic
# read a Lebesgue constant of 1.25 between its middle nodes.
def third_derivative_roundoff(prof) -> float:
    a = prof.domain.semi_axes
    u = 0.5 * np.finfo(float).eps
    pref = math.pi * a[0] * a[1] * a[2] / prof.halfwidth
    entry = (5.0 + 2.0 * (abs(prof.s_center) + prof.halfwidth) / prof.halfwidth) * u * pref
    h = prof.s_grid[1] - prof.s_grid[0]
    return 1.25 * 5.5 * (16.0 + 1.0 / 8.0) / (15.0 * h**3) * entry


def test_criterion_15_triaxial_ellipsoid_reconstruction_is_exact(capsys):
    with verdict(15, "three-dimensional reconstruction on a triaxial ellipsoid", capsys) as v:
        domain = ellipsoid((0.0, 0.0, 0.0), (1.3, 1.0, 0.8))
        f = Phantom((Bump(center=(0.15, -0.1, 0.05), radius=0.3),))
        grid = ImageGrid((-0.5, -0.5, 0.05), (0.5, 0.5, 0.05), (21, 21, 1))
        want = f.eval(grid.points())
        errs = []
        for res, nt in ((24, 400), (48, 800)):
            bq = boundary_quadrature(domain, res)
            traces = simulate_traces(f, domain, bq, TimeGrid(t_max=2.8, nt=nt))
            errs.append(_rel_l2(reconstruct(traces, grid).values, want))
        ratio = errs[0] / errs[1]
        # the kernel the reconstruction leaves out, computed off centre
        off = ellipsoid((0.1, -0.05, 0.02), (1.3, 1.0, 0.8))
        third, worst = 0.0, 0.0
        for th in _angular_set(3, 4)[0]:
            prof = build_kernel_profile(off, th, 3, margin=0.1)
            q = prof.query_halfwidth
            d3 = float(np.abs(prof.eval(prof.s_center + q * np.linspace(-1.0, 1.0, 41))).max())
            third = max(third, d3)
            worst = max(worst, d3 / third_derivative_roundoff(prof))
        v.ok = errs[1] <= TRIAXIAL_REL_L2 and ratio >= TRIAXIAL_RATIO and worst <= 1.0
        v.detail = (
            f"rel L2 = {errs[1]:.4%} (bound {TRIAXIAL_REL_L2:.2%}), refinement ratio = "
            f"{ratio:.2f} (bound {TRIAXIAL_RATIO:g}), third section derivative = {third:.2g} "
            f"({worst:.2f} of its roundoff bound)"
        )


# Criterion 16's bounds, from a measurement on the 1.2 x 0.9 ellipse and the
# 15 x 15 grid below, default kernel options.  ||K_h||_2 reads 1.02e-11 by
# the ellipsoid branch and 9.78e-12 through the p = 2 superellipse's chord
# search, against 2.683e-6, 2.681e-5, 2.662e-4 and 2.491e-3 at p - 2 = 1e-4,
# 1e-3, 1e-2 and 0.1: first order in p - 2, with slopes ||K_h|| / (p - 2) of
# 0.02683, 0.02681, 0.02662 and 0.02491.  The ellipse is at roundoff when its
# norm is that of an exponent offset below ELLIPSE_OFFSET times the slope:
# 2.7e-10, 26 times the measurement, and 1e-5 of the p = 2.001 norm.  The
# slopes at 2.001 and 2.01 differ by the curvature, 0.71 %, the same rate
# that takes the slope to 0.0249 at p = 2.1; SLOPE_TOLERANCE leaves it a
# factor 2.8, and fails a norm growing as (p - 2)^a with |a - 1| > 0.0086.
# On the ellipse f - b = -K_h f, so the corrected image is within ||K_h||_2
# of the plain one relative to its norm, up to the solve's roundoff on a
# matrix of condition 1, 225 u; the same offset bound holds it.
ELLIPSE_OFFSET = 1e-8
SLOPE_TOLERANCE = 0.02


def test_criterion_16_kernel_vanishes_linearly_towards_the_ellipse(capsys):
    with verdict(16, "the correction kernel tends to zero linearly as p tends to 2", capsys) as v:
        grid = ImageGrid(lo=(-0.1, -0.25), hi=(0.6, 0.45), shape=(15, 15))
        opts = ReconstructionOptions(correction="fixed_point")

        def kernel_norm(domain) -> float:
            kopts = replace(opts, kernel_margin=grid_margin(domain, grid.axes())[0])
            return float(np.linalg.norm(_correction_matrix(grid, domain, kopts), 2))

        axes = (1.2, 0.9)
        ellipse = kernel_norm(ellipsoid((0.0, 0.0), axes))
        p2 = superellipse((0.0, 0.0), axes, 2.0)
        chords = kernel_norm(p2)
        slopes = [kernel_norm(superellipse((0.0, 0.0), axes, 2.0 + dp)) / dp for dp in (1e-3, 1e-2)]
        bound = ELLIPSE_OFFSET * slopes[0]
        gap = abs(slopes[0] / slopes[1] - 1.0)

        f = Phantom((Bump(center=(0.25, 0.1), radius=0.3),))
        times = TimeGrid(t_max=4.0 * domain_diameter(p2), nt=200)
        traces = simulate_traces(f, p2, boundary_quadrature(p2, 32), times)
        plain = reconstruct(traces, grid, opts=replace(opts, correction="none")).values
        corrected = reconstruct(traces, grid, opts).values
        moved = float(np.linalg.norm(corrected - plain) / np.linalg.norm(plain))
        v.ok = max(ellipse, chords, moved) <= bound and gap <= SLOPE_TOLERANCE
        v.detail = (
            f"|K_h| on the ellipse = {ellipse:.3g}, at p = 2 = {chords:.3g}, corrected image "
            f"moved by {moved:.2g} (bound {bound:.2g}); slope at p = 2.001 = "
            f"{slopes[0]:.5f}, at 2.01 = {slopes[1]:.5f}, gap {gap:.2%} "
            f"(bound {SLOPE_TOLERANCE:.0%})"
        )
