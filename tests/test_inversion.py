"""Back-projection, the correction operator and image output."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _oracles import (
    abel_cell_gaps,
    abel_far_weights_in_s,
    abel_weights_all_cells,
    assert_same_bits,
    backproject_even_per_point,
    support_radius_per_point,
)

from neutrace.calculus import cubic_stencil, cubic_weights, gauss_legendre, interp_cubic
from neutrace.forward import (
    InsufficientDataError,
    SolverParams,
    TimeGrid,
    simulate_traces,
)
from neutrace.geometry import boundary_quadrature, ellipsoid
from neutrace.inversion import (
    ABEL_KAPPA,
    ABEL_TERMS,
    D_TABLE_STEP,
    FAR_FIRST_CELL,
    ImageGrid,
    ReconstructionOptions,
    _CARDINAL,
    _SERIES_COEFFS,
    _abel_weight_blocks,
    _angular_set,
    _as_field,
    _correction_constant,
    _correction_matrix,
    _even_at,
    _far_moments,
    _node_distances,
    _stencils,
    _support_radii,
    backproject_even,
    backproject_odd,
    correction_K,
    reconstruct,
    truncation_probe,
    write_image_csv,
    write_image_pgm,
)
from neutrace.transforms import (
    Bump,
    OutOfRegionError,
    Phantom,
    bump_radial,
    bump_radial_deriv,
    _build_profiles,
    _offset_window,
)

# back-projected value at the bump centre for the radius-0.35 phantom in
# the unit ball (boundary resolution 8, 120 times up to t = 3); the exact
# field value there is 1
BALL_PEAK = 1.0000242241553403

# How far roundoff in the closed normal derivative can move that value.  Per
# bump, each trace sample is the exact derivative along nu at the node y,
#     du = ([psi(t + d) + psi(|t - d|)] / (2 d) - u / d) * <nu, y - centre> / d,
# with phi(s) = s b(|s|), psi = phi' = b + s b', u = [phi(t + d) - phi(t - d)] / (2 d)
# and d = |y - centre|; there is no difference quotient to amplify roundoff.
# Roundoff reaches the arguments t +- d and d itself through at most five
# roundings (the sample time, the node, its offset from the bump centre, the
# norm and the sum or difference), each within an ulp of t_max + d_max, so
# within delta = k eps (t_max + d_max), k = 8 leaving room for the few ulps
# of evaluating b, b' and the sums.  This moves psi by at most L2 delta,
# L2 = max |psi'| = max |2 b' + s b''|, and phi by at most L delta,
# L = max |psi|, while 1 / d moves by delta / d^2.  With U = max |phi| / d_min
# bounding |u|, the first quotient moves by at most L2 delta / d + L delta / d^2
# and u / d by at most (L + 2 U) delta / d^2, so du by at most
#     e = delta / d_min * (L2 + 2 (L + U) / d_min),
# the few ulps of the cosine factor, k eps (L + U) / d_min, lying below.
# backproject_odd reads each node row at t = |x - y| through the four-point
# cubic, whose Lebesgue constant is 5/4 (at mid-interval: (1 + 9 + 9 + 1) / 16),
# and sums weight_y / (2 pi |x - y|), so the value moves by at most
#     sum(weights) / (2 pi |x - y|_min) * 5/4 * e.
# For the fixture (L2 = 49.8, L = 1.50, U = 0.139, t_max + d_max = 4.10,
# d_min = 0.902): e = 4.3e-13 and 4 pi / (2 pi * 0.902) * 5/4 * e = 1.2e-12.
# Independent noise of size e on every trace sample spreads the value by
# 6.5e-14 (std; max 1.3e-13 over 12 draws), while the smallest method change
# tried (121 instead of 120 times) moves it by 1.0e-6.
def ball_peak_roundoff(traces, f, x):
    b = traces.boundary
    ulps = 8
    e = 0.0
    for bump in f.bumps:
        d = np.sqrt(np.sum((b.points - np.asarray(bump.center)) ** 2, axis=-1))
        s = np.linspace(0.0, bump.radius, 4097)
        phi = s * bump_radial(bump, s, 3)
        psi = bump_radial(bump, s, 3) + s * bump_radial_deriv(bump, s, 3)
        lip, lip2 = np.abs(psi).max(), np.abs(np.gradient(psi, s)).max()
        u_max = np.abs(phi).max() / d.min()
        delta = ulps * np.finfo(float).eps * (traces.times.t_max + d.max())
        e += delta / d.min() * (lip2 + 2.0 * (lip + u_max) / d.min())
    d_min = np.sqrt(np.sum((b.points - x) ** 2, axis=-1)).min()
    lebesgue = 1.25
    spread = np.sum(b.weights) / (2.0 * math.pi * d_min) * lebesgue
    return spread * e


# correction integral for a radius-0.25 bump at (0.35, 0.2) on the
# exponent-4 superellipse, evaluated at (0.1, 0)
SE4_CORRECTION_AT_01 = -0.004860378662794843

# How far roundoff in the chord lengths can move that value.  correction_K is
#     C sum_w ww r_max sum_k rw_k f(x + r_k w) K_w(<x, w> + r_k / 2),
# K_w the second offset derivative of the Hilbert transform of the chord
# profile along w, read off a table by the four-point cubic (weights L_l).
# Let every chord sample carry an error e.  The Hilbert table entry at s_i
# (transforms._profile_tables) is the sum of jac_j (phi_j - phi(s_i)) / (s_i - t_j)
# and phi(s_i) log((s_i - a) / (b - s_i)), over pi, so it moves by at most
#     e A_i,  A_i = (2 sum_j jac_j / |s_i - t_j| + |log((s_i - a) / (b - s_i))|) / pi.
# Table points come within 4.6e-7 of quadrature nodes, so single A_i are large.
# The Richardson second difference (16 d(ds) - d(2 ds)) / 15 has weights
# 21/8, 64/45, 1/9, 1/720 (in absolute value) at offsets 0, +-1, +-2, +-4,
# over ds^2.  Carrying these absolute weights along exactly the table entries
# the quadrature reads, each weighted by |C ww r_max rw_k f L_l|, gives the
# bound below, with e taken as one ulp of the longest chord (2.57): 4.4e-11
# for the fixture.  Gaussian noise of that size on every chord sample moves
# the value by 2.5e-12 (std; max 6.3e-12 over 12 draws), while the smallest
# method change tried (63 instead of 64 directions) moves it by 1.9e-7.
RICHARDSON_2_ABS = (
    (-4, 1 / 720), (-2, 1 / 9), (-1, 64 / 45), (0, 21 / 8), (1, 64 / 45), (2, 1 / 9), (4, 1 / 720)
)


def se4_correction_roundoff(domain, f, x, opts):
    quad = gauss_legendre(opts.kernel_quad, -0.5 * math.pi, 0.5 * math.pi)
    rad = gauss_legendre(opts.k_radial, 0.0, 1.0)
    r_max = max(float(np.linalg.norm(np.asarray(b.center) - x)) + b.radius for b in f.bumps)
    r = r_max * rad.nodes
    total, chord = 0.0, 0.0
    dirs, wdir = _angular_set(2, opts.k_angular)
    profiles = _build_profiles(
        domain, dirs, 2, opts.kernel_margin, opts.kernel_table, opts.kernel_quad, True
    )
    for omega, w_omega, prof in zip(dirs, wdir, profiles):
        fvals = f.eval(x + r[:, None] * omega)
        mask = fvals != 0.0
        if not np.any(mask):
            continue
        s_grid, w, sc = prof.s_grid, prof.halfwidth, prof.s_center
        jac = w * np.cos(quad.nodes) * quad.weights
        gaps = np.abs(s_grid[:, None] - (sc + w * np.sin(quad.nodes)))
        ends = np.abs(np.log((s_grid - sc + w) / (sc + w - s_grid)))
        hilbert = np.pad((2.0 * np.sum(jac / gaps, axis=1) + ends) / math.pi, 4)
        ds = s_grid[1] - s_grid[0]
        second = sum(c * hilbert[4 + o : 4 + o + s_grid.size] for o, c in RICHARDSON_2_ABS)
        second /= ds**2
        k, lagrange = cubic_stencil(float(x @ omega) + 0.5 * r[mask], s_grid[0], ds, s_grid.size)
        dk = sum(np.abs(lw) * second[k + l - 1] for l, lw in enumerate(lagrange))
        total += w_omega * r_max * np.sum(rad.weights[mask] * np.abs(fvals[mask]) * dk)
        chord = max(chord, float(prof.rchi.max()))
    return abs(_correction_constant(2)) * total * np.finfo(float).eps * chord


# How far the assembled operator may drift from the pointwise one.  Row i of
# K_h v and correction_K(ImageGrid(v), x_i) both evaluate
#     sum_w sum_k sum_c C ww r_max rw_k K_w(s_k) cw_c v_c
# (c over the grid-cell corners of x_i + r_k w, with multilinear weights cw_c)
# from bitwise-equal factors: the same offsets s_k, hence the same kernel
# values, and the same corner weights, only multiplied and added in
# different orders.  In any order such a sum is within gamma_K <= K eps of
# the exact one times the sum of its absolute terms (Higham, Accuracy and
# Stability of Numerical Algorithms, sec. 3.1), K being the longest chain of
# roundings a term goes through.  The matrix route forms cw_c (n - 1
# products) and C ww r_max rw_k K_w cw_c (5 more), adds up to q terms per
# entry and direction, accumulates over the m directions and sums a row of
# g entries against v (one product each); the pointwise route interpolates
# (n - 1 products, 2^n corners), multiplies by rw_k K_w, sums q radial
# terms, multiplies by ww r_max, sums m directions and scales by C.  The
# absolute terms add up to C sum_w ww r_max sum_k rw_k |K_w(s_k)| |v|(x_i + r_k w),
# |v| interpolated, since corner weights are non-negative.  For the fixture
# below the bounds run from 3.4e-16 to 1.5e-15; the routes differ by at most
# 3.5e-18, while 15 instead of 16 directions move K_h v by 1.1e-2.
def matrix_route_roundoff(grid, domain, v, opts):
    n, q, m, g = domain.dimension, opts.k_radial, opts.k_angular, grid.values.size
    chain = ((n - 1) + 5 + q + m + 1 + g) + ((n - 1) + (1 << n) + 2 + q + 2 + m + 1)
    rad = gauss_legendre(q, 0.0, 1.0)
    modulus = ImageGrid(grid.lo, grid.hi, grid.shape, np.abs(v))
    dirs, wdir = _angular_set(n, m)
    profiles = _build_profiles(
        domain, dirs, n, opts.kernel_margin, opts.kernel_table, opts.kernel_quad, n % 2 == 0
    )
    terms = []
    for x, r_max in zip(grid.points(), _support_radii(grid, grid.points())):
        r = r_max * rad.nodes
        total = 0.0
        for omega, w_omega, profile in zip(dirs, wdir, profiles):
            fvals = modulus.interp(x + r[:, None] * omega)
            mask = fvals != 0.0
            if not np.any(mask):
                continue
            s_vals = float(np.sum(x * omega)) + 0.5 * r[mask]
            kvals = np.abs(profile.eval(s_vals, order=n, hilbert=n % 2 == 0))
            total += w_omega * r_max * np.sum(rad.weights[mask] * fvals[mask] * kvals)
        terms.append(abs(_correction_constant(n)) * total)
    return chain * np.finfo(float).eps * np.array(terms)


SE4_OPTS = ReconstructionOptions(
    k_radial=24, k_angular=64, kernel_table=512, kernel_quad=256, kernel_margin=0.25
)


@pytest.fixture(scope="module")
def ball_traces(unit_ball):
    f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
    bq = boundary_quadrature(unit_ball, 8)
    return simulate_traces(f, unit_ball, bq, TimeGrid(t_max=3.0, nt=120))


@pytest.fixture(scope="module")
def short_disk_traces(unit_disk):
    """Traces recorded for 1.5 on the unit disk: too short for points far
    from some node, e.g. (0.8, 0) is 1.8 from the node at (-1, 0)."""
    f = Phantom((Bump(center=(0.0, 0.0), radius=0.3),))
    bq = boundary_quadrature(unit_disk, 16)
    return simulate_traces(f, unit_disk, bq, TimeGrid(t_max=1.5, nt=60))


@pytest.fixture(scope="module")
def disk_traces(unit_disk):
    f = Phantom((Bump(center=(0.0, 0.0), radius=0.5),))
    bq = boundary_quadrature(unit_disk, 64)
    return simulate_traces(
        f, unit_disk, bq, TimeGrid(t_max=8.0, nt=400), SolverParams(table_points=4096)
    )


# ---------------------------------------------------------------------------
# image grids


def test_image_grid_validation():
    with pytest.raises(ValueError, match="equal length"):
        ImageGrid(lo=(0.0,), hi=(1.0, 1.0), shape=(4, 4))
    with pytest.raises(ValueError, match=">= 1"):
        ImageGrid(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(4, 0))
    with pytest.raises(ValueError, match="degenerate axis"):
        ImageGrid(lo=(0.0, 1.0), hi=(1.0, 1.0), shape=(4, 4))


def test_image_grid_axes_and_points():
    g = ImageGrid(lo=(-1.0, 0.0, 0.5), hi=(1.0, 2.0, 0.5), shape=(3, 2, 1))
    ax = g.axes()
    np.testing.assert_allclose(ax[0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(ax[1], [0.0, 2.0])
    np.testing.assert_allclose(ax[2], [0.5])
    pts = g.points()
    assert pts.shape == (6, 3)
    assert np.all(pts[:, 2] == 0.5)


def test_image_grid_interp_reproduces_affine_fields(rng):
    g = ImageGrid(lo=(-1.0, -0.5), hi=(1.0, 1.5), shape=(7, 5))
    pts = g.points()
    g.values = 0.3 + 1.7 * pts[:, 0] - 0.9 * pts[:, 1]
    probes = rng.uniform((-1.0, -0.5), (1.0, 1.5), size=(40, 2))
    expect = 0.3 + 1.7 * probes[:, 0] - 0.9 * probes[:, 1]
    np.testing.assert_allclose(g.interp(probes), expect, atol=1e-13)


def test_image_grid_interp_outside_and_empty():
    g = ImageGrid(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(3, 3))
    with pytest.raises(ValueError, match="no values"):
        g.interp([(0.5, 0.5)])
    g.values = np.ones(9)
    assert g.interp(np.array([1.5, 0.5])) == 0.0
    assert g.interp(np.array([0.5, -0.1])) == 0.0


def test_image_grid_single_sample_axis_is_a_slice():
    g = ImageGrid(lo=(0.0, 0.25), hi=(1.0, 0.25), shape=(3, 1))
    g.values = np.array([1.0, 2.0, 3.0])
    assert g.interp(np.array([0.25, 0.25])) == pytest.approx(1.5)
    assert g.interp(np.array([0.25, 0.26])) == 0.0  # off the stored plane


@pytest.fixture(scope="module")
def ellipse_traces():
    """Traces of the benchmark's 2-D ellipse: 64 nodes, 400 times over four
    diameters."""
    ellipse = ellipsoid((0.0, 0.0), (1.5, 1.0))
    f = Phantom((Bump(center=(0.2, -0.1), radius=0.3),))
    bq = boundary_quadrature(ellipse, 64)
    return simulate_traces(f, ellipse, bq, TimeGrid(t_max=12.0, nt=400))


# ---------------------------------------------------------------------------
# back-projection


def test_backproject_dimension_checks(ball_traces, disk_traces):
    with pytest.raises(ValueError, match="three-dimensional"):
        backproject_odd(disk_traces, (0.0, 0.0))
    with pytest.raises(ValueError, match="two-dimensional"):
        backproject_even(ball_traces, (0.0, 0.0, 0.0))


def test_backproject_odd_needs_enough_recorded_time(ball_traces):
    with pytest.raises(InsufficientDataError, match="exceeds t_max"):
        backproject_odd(ball_traces, (2.5, 0.0, 0.0))


def test_backproject_even_upper_time_window(short_disk_traces):
    # the back-projection integrates up to t_max, the probe's tail from t_max/2
    with pytest.raises(InsufficientDataError, match="reaches the upper time 1.5"):
        backproject_even(short_disk_traces, (0.8, 0.0))
    # every node is at least 0.9 from (0.1, 0), beyond t_max/2 = 0.75
    with pytest.raises(InsufficientDataError, match="reaches the upper time 0.75"):
        truncation_probe(short_disk_traces, (0.1, 0.0))


def test_backproject_odd_recovers_the_field(ball_traces):
    f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
    centre = np.array([0.1, 0.0, 0.0])
    peak = backproject_odd(ball_traces, centre)
    tol = ball_peak_roundoff(ball_traces, f, centre)
    assert peak == pytest.approx(BALL_PEAK, abs=tol)  # frozen regression value
    assert peak == pytest.approx(1.0, rel=2e-2)
    x = np.array([0.0, 0.0, 0.2])
    assert backproject_odd(ball_traces, x) == pytest.approx(float(f.eval(x)), rel=2e-2)


def test_backproject_odd_is_linear_in_the_traces(ball_traces):
    x = (0.0, 0.1, 0.05)
    v = backproject_odd(ball_traces, x)
    doubled = replace(ball_traces, values=2.0 * ball_traces.values)
    assert backproject_odd(doubled, x) == pytest.approx(2.0 * v, abs=1e-14)


def test_backproject_odd_translation_consistency(unit_ball, ball_traces):
    shifted = Phantom((Bump(center=(0.15, -0.1, 0.0), radius=0.35),))
    bq = boundary_quadrature(unit_ball, 8)
    traces1 = simulate_traces(shifted, unit_ball, bq, TimeGrid(t_max=3.0, nt=120))
    v0 = backproject_odd(ball_traces, (0.1, 0.0, 0.0))
    v1 = backproject_odd(traces1, (0.15, -0.1, 0.0))
    assert abs(v0 - v1) <= 5e-3  # discretisation noise differs with geometry
    assert v1 == pytest.approx(1.0, rel=2e-2)


def test_backproject_even_recovers_the_field(disk_traces):
    f = Phantom((Bump(center=(0.0, 0.0), radius=0.5),))
    x = np.array([0.1, 0.0])
    got = backproject_even(disk_traces, x)
    assert got == pytest.approx(float(f.eval(x)), rel=2e-2)


def test_truncation_probe_is_small_on_long_records(disk_traces):
    probe = truncation_probe(disk_traces, (0.1, 0.0))
    assert 0.0 <= probe <= 1e-3


@pytest.mark.parametrize("cut", ["half", "near", "edge"])
def test_truncation_probe_is_the_full_minus_the_halved_back_projection(disk_traces, cut):
    x = (0.1, 0.0)  # 0.9 < d < 1.1 from every node
    t_max, dt = disk_traces.times.t_max, disk_traces.times.dt
    # the probe's own cut, 199.5 time steps, beyond 2d for every node; t = 2,
    # below 2d for the nodes with d > 1 (99.75 steps); a cell edge
    t_cut = {"half": 0.5 * t_max, "near": 2.0, "edge": 150 * dt}[cut]
    full = backproject_even(disk_traces, x)
    below = _even_at(disk_traces, x, 0.0, t_cut, t_cut)
    if cut == "half":
        tail = truncation_probe(disk_traces, x)
    else:
        tail = abs(_even_at(disk_traces, x, t_cut, t_max, t_cut))
    # the three integrals give every time cell that the cut does not split the
    # same weights: the phi rule's below 2d, where its Gauss error sits (near
    # t = d), and the far-field series' above.  They differ in the one cell the
    # cut splits, which the full integral takes whole (by the series when it is
    # far, by the phi rule when it is near) and the two parts by the phi rule
    # on each piece, well away from t = d; a cut on an edge splits no cell.  So
    # the gap is roundoff in the sums (at most 2.0e-16 measured)
    assert tail == pytest.approx(abs(full - below), abs=1e-12)


# Gap between backproject_even and the per-point Gauss route of the oracle
# (t = sqrt(d^2 + u^2), composite Gauss-Legendre in u) on the benchmark
# ellipse at four points: at most 7.0e-7 with 8192 nodes and 3.0e-8 with
# 32768 (the ratio per point is 9.3 to 26), and at most 1.1e-9 with 131072.
# The oracle converges to the exact integral of the interpolated traces,
# slowly and not yet monotonically at 2048 nodes, because the interpolant has
# kinks at the samples (there the gaps are 4.4e-6 to 1.9e-5 at three points
# and 1.6e-6 at the fourth, which then falls only 4.8-fold).  The Abel
# weights' own quadrature error is 4e-9 (4 Gauss nodes per cell against 8),
# so the gap is the oracle's error.  The bound is the 8192-node gap with a
# factor of four, and the gap must shrink at least eightfold from 8192 to
# 32768 nodes.
ORACLE_8192_BOUND = 3e-6


def test_abel_weights_match_the_per_point_quadrature(ellipse_traces):
    pts = [(0.2, -0.1), (0.45, 0.15), (-0.3, -0.6), (0.7, 0.4)]
    got = np.array([backproject_even(ellipse_traces, p) for p in pts])
    coarse = np.array([backproject_even_per_point(ellipse_traces, p, 8192) for p in pts])
    fine = np.array([backproject_even_per_point(ellipse_traces, p, 32768) for p in pts])
    assert np.abs(coarse - got).max() <= ORACLE_8192_BOUND
    assert np.all(np.abs(fine - got) <= np.abs(coarse - got) / 8.0)


def dense_abel_weights(d, dt, nt, t_lo, t_hi):
    w = np.zeros((len(d), nt))
    for rows, cols, block in _abel_weight_blocks(np.asarray(d, dtype=float), dt, nt, t_lo, t_hi):
        w[rows, cols] = block
    return w


def abel_row_sets(traces):
    """Rows of the Abel weights, each as (d, t_lo, t_hi): the distance table
    that the back-projection builds for the benchmark ellipse's 11 x 11 grid,
    the truncation probe's node distances, distances below dt / ABEL_KAPPA,
    rows at and past t_hi, and an upper time that cuts a time cell."""
    t_max, dt = traces.times.t_max, traces.times.dt
    pts = ImageGrid((-0.3, -0.6), (0.7, 0.4), (11, 11)).points()
    d = _node_distances(traces, pts)
    step = D_TABLE_STEP * dt
    table = d.min() + step * np.arange(int((d.max() - d.min()) / step) + 2)
    nodes = _node_distances(traces, np.array([[0.2, -0.1]]))[0]
    return {
        "table": (table, 0.0, t_max),
        "probe": (nodes, 0.5 * t_max, t_max),
        "below_dt": (dt / ABEL_KAPPA * np.array([0.1, 0.4, 0.9]), 0.0, t_max),
        "past_t_hi": (np.array([0.5, t_max - 0.3 * dt, t_max, t_max + 0.1]), 0.0, t_max),
        "cut_cell": (nodes, 0.0, 5.0 + 0.37 * dt),
    }


def node_rounding_bound(d, t_hi):
    """Roundoff of the phi rule's weights in far cells (t >= 2d).  A node's
    s = t / dt = (d / dt) cosh(phi) carries a relative rounding error of at
    most (3 phi + 3) eps, phi <= acosh(t_hi / d), so its offset theta = s - k
    from the stencil's base one of (3 phi + 3) eps s.  The cardinal cubics'
    slopes are at most 3 on [-1, 2] and a far cell spans at most 1.16 / s in
    phi, so a cell's weight moves by at most 3 * 3 * 1.16 (phi + 1) eps, and a
    weight sums at most five cells: 52 (phi + 1) eps < 64 (phi + 1) eps."""
    phi = math.acosh(max(t_hi / np.min(d), 1.0))
    return 64.0 * (phi + 1.0) * np.finfo(float).eps


@pytest.mark.parametrize("row_set", ["table", "probe", "below_dt", "past_t_hi", "cut_cell"])
def test_abel_weights_match_the_all_cells_phi_route(ellipse_traces, row_set):
    """The weights split each row at 2d: the phi rule below, the far-field
    series above.  The all-cells phi route takes the phi rule everywhere, so
    the two differ only in the far cells, by that route's error there: its
    4-node Gauss error, at most the sum over the entry's cells of their
    4-versus-16-node gaps (16 nodes agree with 32 to 1.4e-15), and the
    rounding of its node offsets.  The series itself is exact to one epsilon
    (ABEL_TERMS) and its moments to 1.6e-16 of a cell's weight (FAR_NODES)."""
    d, t_lo, t_hi = abel_row_sets(ellipse_traces)[row_set]
    dt, nt = ellipse_traces.times.dt, ellipse_traces.times.nt
    got = dense_abel_weights(d, dt, nt, t_lo, t_hi)
    want = abel_weights_all_cells(d, dt, nt, t_lo, t_hi, nodes=4)
    gaps = abel_cell_gaps(d, dt, nt, t_lo, t_hi, nodes=4, ref_nodes=16)
    assert np.all(np.abs(got - want) <= gaps + node_rounding_bound(d, t_hi))
    # a row at or past t_hi gets no weight
    assert not np.any(got[d >= t_hi])


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_abel_weights_depend_only_on_the_distances_in_time_steps(ellipse_traces, scale):
    """W is a function of d / dt, t_lo / dt and t_hi / dt, so scaling all four
    leaves it unchanged up to the rounding of those ratios, which moves the
    phi rule's nodes as in :func:`node_rounding_bound`; no factor of the
    series overflows or underflows on the way."""
    dt, nt = ellipse_traces.times.dt, ellipse_traces.times.nt
    for d, t_lo, t_hi in abel_row_sets(ellipse_traces).values():
        want = dense_abel_weights(d, dt, nt, t_lo, t_hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dense_abel_weights(scale * d, scale * dt, nt, scale * t_lo, scale * t_hi)
        assert np.all(np.abs(got - want) <= node_rounding_bound(d, t_hi))


@pytest.mark.parametrize("delta", [0.05, 0.7, 7.3, 150.3])
def test_far_series_weights_match_gauss_in_the_time_variable(delta):
    """A row's far weights, from the column sums of the series moments and
    from the edge sums of its first far cell f, against Gauss-Legendre in
    s = t / dt over the same cells.  Both routes round a few terms per node or
    series term and add at most five cells, so they agree to a few ulps of the
    integrals of |L_col| (at most 4.7 measured, and the reference alone moves
    by 5.8 from 16 to 32 nodes)."""
    nt, eps = 400, np.finfo(float).eps
    c0, c1 = max(FAR_FIRST_CELL, math.ceil(ABEL_KAPPA * delta)), nt - 2
    rho, sums, edge_sums = _far_moments(c0, c1, nt)
    powers = (delta / rho) ** (2 * np.arange(ABEL_TERMS)) * _SERIES_COEFFS
    got = np.zeros(nt)
    got[_stencils(c0, nt) - 1 :][: sums.shape[1]] = powers @ sums
    want, scale = abel_far_weights_in_s(delta, c0, c1, nt)
    assert np.all(np.abs(got - want) <= 16 * eps * scale)
    for f in (c0, c0 + 1, c0 + 2, c0 + 7, nt - 4, nt - 3, nt - 2):
        cols = _stencils(f, nt) - 1 + np.arange(4)
        want, scale = abel_far_weights_in_s(delta, f, c1, nt)
        assert np.all(np.abs(powers @ edge_sums[:, f - c0] - want[cols]) <= 16 * eps * scale[cols])


def test_far_series_has_the_fewest_terms_with_a_tail_below_one_epsilon():
    x = ABEL_KAPPA**-2
    coeffs = [math.comb(2 * k, k) / 4**k for k in range(ABEL_TERMS + 1)]
    np.testing.assert_allclose(_SERIES_COEFFS, coeffs[:-1], rtol=1e-15)
    # the coefficients fall, so a_K x^K / (1 - x) bounds the tail after K terms
    tail = [a * x**k / (1.0 - x) for k, a in enumerate(coeffs)]
    assert tail[ABEL_TERMS] <= np.finfo(float).eps < tail[ABEL_TERMS - 1]


def test_cardinal_monomials_are_the_cubics_that_interp_cubic_reads(rng):
    theta = rng.uniform(-1.0, 2.0, 50)
    want = np.stack(cubic_weights(theta))
    got = _CARDINAL @ theta ** np.arange(4)[:, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# correction operator


def test_correction_vanishes_on_the_ball(bump3d, unit_ball):
    assert correction_K(bump3d, (0.1, 0.0, 0.0), unit_ball, margin=0.25) == 0.0


def test_correction_on_the_ball_raises_outside_the_window(bump3d, unit_ball):
    # chords of the radius-0.35 bump around (0.1, 0, 0) reach |s| > 0.1
    with pytest.raises(OutOfRegionError, match="outside safe window"):
        correction_K(bump3d, (0.1, 0.0, 0.0), unit_ball, margin=0.9)


#: the message of the one chord-window check, on every domain kind
WINDOW_MESSAGE = re.compile(
    r"chord offset -?[0-9.e+-]+ outside safe window \|s - s_c\| <= [0-9.e+-]+ "
    r"\(s_c -?[0-9.e+-]+, support halfwidth [0-9.e+-]+, margin 0\.9\)"
)


def test_an_over_wide_kernel_margin_raises_one_message_on_every_domain(
    bump2d, bump3d, unit_ball, se4
):
    """The zero-kernel route of an odd ellipsoid and the kernel profiles of
    the p = 4 superellipse check the chord window through one predicate, so
    the same over-wide margin gets the same error from both."""
    opts = ReconstructionOptions(
        k_radial=8, k_angular=8, kernel_table=256, kernel_quad=64, kernel_margin=0.9
    )
    # chords of the centred bumps reach |s - s_c| of about half their radius,
    # beyond the window halfwidth - 0.9 of some directions of both
    for f, x, domain in ((bump3d, (0.1, 0.0, 0.0), unit_ball), (bump2d, (0.0, 0.0), se4)):
        with pytest.raises(OutOfRegionError) as err:
            correction_K(f, x, domain, opts)
        assert WINDOW_MESSAGE.fullmatch(str(err.value)), str(err.value)


#: an odd-dimensional ellipsoid off the origin, where the chord windows
#: depend on the centre projections <c, theta>
OFF_CENTRE_ELLIPSOID = ellipsoid((0.1, 0.0, -0.1), (1.0, 1.2, 0.9))


def window_loop_error(domain, field, pts, margin):
    """The first error of a loop over the points and, at each, over every
    direction of k_angular 8 that checks the chord window of the k_radial 8
    samples where the field is non-zero; None if it raises none."""
    dirs, _ = _angular_set(3, 8)
    pts = np.asarray(pts, dtype=float)
    r = _support_radii(field, pts)[:, None] * gauss_legendre(8, 0.0, 1.0).nodes
    live = _as_field(field)(pts[:, None, None] + r[:, None, :, None] * dirs[:, None]) != 0.0
    try:
        for x, r_x, live_x in zip(pts, r, live):
            for omega, mask in zip(dirs, live_x):
                _offset_window(domain, omega, x @ omega + 0.5 * r_x[mask], margin, 3)
    except ValueError as err:
        return err
    return None


def test_ball_correction_raises_where_the_direction_loop_would(bump3d, unit_ball):
    """On the ball, and on an ellipsoid off the origin, the correction returns
    zero without summing its zero kernel, yet rejects the same offsets as a
    loop over every direction that checks the chord window wherever the
    field is non-zero, with the same error."""
    opts = ReconstructionOptions(k_radial=8, k_angular=8)
    for domain in (unit_ball, OFF_CENTRE_ELLIPSOID):
        raised = []
        for x in ((0.1, 0.0, 0.0), (0.4, -0.2, 0.1)):
            for margin in (0.25, 0.55, 0.75, 0.9):
                want = window_loop_error(domain, bump3d, [x], margin)
                raised.append(want is not None)
                if want is None:
                    assert correction_K(bump3d, x, domain, opts, margin=margin) == 0.0
                else:
                    with pytest.raises(OutOfRegionError, match=f"^{re.escape(str(want))}$"):
                        correction_K(bump3d, x, domain, opts, margin=margin)
        assert any(raised) and not all(raised)


def test_ball_correction_matrix_rejects_the_margins_the_direction_loop_rejects(bump3d, ball_traces):
    """On the ball, and on an ellipsoid off the origin, the assembled
    correction is the zero matrix, built without a direction loop, yet
    reconstruct rejects the same positive kernel margins as a loop over every
    direction that checks the chord window at the samples inside the grid
    box, with the same error: those whose window the box leaves.  A margin
    that is not positive the options refuse themselves, on every domain."""
    grid = ImageGrid(lo=(-0.2, -0.2, -0.2), hi=(0.2, 0.2, 0.2), shape=(3, 3, 3))
    box = ImageGrid(grid.lo, grid.hi, grid.shape, np.ones(27))
    dom = OFF_CENTRE_ELLIPSOID
    off_centre = simulate_traces(bump3d, dom, boundary_quadrature(dom, 8), TimeGrid(t_max=3.0, nt=120))
    for traces, expected in (
        (ball_traces, [ValueError, ValueError, None, None, OutOfRegionError]),
        (off_centre, [ValueError, ValueError, None, OutOfRegionError, OutOfRegionError]),
    ):
        seen = []
        for margin in (-0.1, 0.0, 0.5, 0.6, 0.9):
            if margin <= 0.0:
                with pytest.raises(ValueError, match=f"^profile margin must be positive, got {margin}$"):
                    ReconstructionOptions(correction="fixed_point", kernel_margin=margin)
                seen.append(ValueError)
                continue
            want = window_loop_error(traces.domain, box, grid.points(), margin)
            opts = ReconstructionOptions(
                correction="fixed_point", k_radial=8, k_angular=8, kernel_margin=margin
            )
            if want is None:
                assert reconstruct(traces, grid, opts).meta["operator_norm"] == 0.0
            else:
                with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                    reconstruct(traces, grid, opts)
            seen.append(want and type(want))
        assert seen == expected


def test_correction_vanishes_on_the_ellipse(ellipse21):
    f = Phantom((Bump(center=(0.2, -0.1), radius=0.3),))
    opts = ReconstructionOptions(
        k_radial=8, k_angular=16, kernel_table=192, kernel_quad=96, kernel_margin=0.25
    )
    assert abs(correction_K(f, (0.1, 0.0), ellipse21, opts)) <= 1e-12


def test_correction_margin_validation(bump2d, se4):
    with pytest.raises(ValueError, match="safety margin"):
        correction_K(bump2d, (0.1, 0.0), se4)
    with pytest.raises(ValueError, match="positive"):
        correction_K(bump2d, (0.1, 0.0), se4, margin=-0.1)


def test_correction_input_types(bump2d, se4):
    with pytest.raises(TypeError, match="cannot evaluate"):
        correction_K(3.14, (0.1, 0.0), se4, margin=0.25)
    # a bare callable has no known support radius, so it is no field either
    with pytest.raises(TypeError, match="cannot evaluate"):
        correction_K(lambda p: np.zeros(len(p)), (0.1, 0.0), se4, margin=0.25)
    assert correction_K(Phantom(()), (0.1, 0.0), se4, margin=0.25) == 0.0


def test_correction_nonzero_off_centre_on_the_superellipse(se4):
    f = Phantom((Bump(center=(0.35, 0.2), radius=0.25),))
    got = correction_K(f, (0.1, 0.0), se4, SE4_OPTS)
    tol = se4_correction_roundoff(se4, f, np.array([0.1, 0.0]), SE4_OPTS)
    assert got == pytest.approx(SE4_CORRECTION_AT_01, abs=tol)  # frozen regression value
    assert abs(got) >= 1e-3


def test_correction_off_centre_value_is_resolution_stable(se4):
    f = Phantom((Bump(center=(0.35, 0.2), radius=0.25),))
    fine = replace(SE4_OPTS, k_radial=48, k_angular=128, kernel_table=1024, kernel_quad=512)
    got = correction_K(f, (0.1, 0.0), se4, fine)
    assert got == pytest.approx(SE4_CORRECTION_AT_01, rel=5e-3)


def test_correction_batch_equals_its_one_point_calls(se4, ellipse21, unit_ball, bump3d):
    """A batch (N, n) gives, bit for bit, the values of one call per point; a
    point (n,) gives a float.  The batch mixes points on and off the support."""
    f = Phantom((Bump(center=(0.35, 0.2), radius=0.25),))
    opts = ReconstructionOptions(
        k_radial=8, k_angular=16, kernel_table=128, kernel_quad=96, kernel_margin=0.25
    )
    pts = np.array([(0.1, 0.0), (0.35, 0.2), (-0.3, 0.25), (0.0, -0.4)])
    for dom in (se4, ellipse21):
        batch = correction_K(f, pts, dom, opts)
        single = [correction_K(f, x, dom, opts) for x in pts]
        assert isinstance(batch, np.ndarray) and batch.shape == (len(pts),)
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(batch, single)
    assert np.abs(correction_K(f, pts, se4, opts)).min() > 0.0
    ball_pts = np.array([(0.1, 0.0, 0.0), (0.0, 0.2, -0.1)])
    coarse = ReconstructionOptions(k_radial=4, k_angular=4, kernel_margin=0.25)
    assert np.array_equal(correction_K(bump3d, ball_pts, unit_ball, coarse), [0.0, 0.0])
    assert np.array_equal(correction_K(Phantom(()), pts, se4, margin=0.25), np.zeros(4))


def test_correction_cancels_at_a_point_of_radial_symmetry(bump2d, se4):
    """At the centre of a radial field the odd kernel pairs (w, -w) cancel."""
    assert abs(correction_K(bump2d, (0.0, 0.0), se4, SE4_OPTS)) <= 1e-8


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_grid_must_stay_inside(ball_traces):
    grid = ImageGrid(lo=(-1.2, 0.0, 0.0), hi=(1.2, 0.0, 0.0), shape=(5, 1, 1))
    with pytest.raises(ValueError, match="outside the domain"):
        reconstruct(ball_traces, grid)


def test_reconstruct_matches_pointwise_backprojection(ball_traces):
    grid = ImageGrid(lo=(-0.2, -0.2, 0.0), hi=(0.2, 0.2, 0.0), shape=(2, 2, 1))
    out = reconstruct(ball_traces, grid)
    manual = [backproject_odd(ball_traces, p) for p in grid.points()]
    np.testing.assert_array_equal(out.values, manual)
    assert out.meta["correction"] == "none"
    assert out.meta["margin"] > 0.7


# reconstruct reads the filtered traces off a distance table of step dt/4 by
# the four-point cubic; on the benchmark ellipse's 11x11 grid it differs from
# the pointwise back-projection by at most 1.24e-4 (peak 1).  The gap falls
# with the step: 2.2e-4 at dt/2, 4.4e-5 at dt/8, 1.1e-5 at dt/16.  The bound
# is 1.2 times the measurement and below the dt/2 gap.
TABLE_LOOKUP_BOUND = 1.5e-4


def test_reconstruct_2d_matches_pointwise_backprojection(ellipse_traces):
    grid = ImageGrid(lo=(-0.3, -0.6), hi=(0.7, 0.4), shape=(11, 11))
    out = reconstruct(ellipse_traces, grid)
    manual = np.array([backproject_even(ellipse_traces, p) for p in grid.points()])
    assert np.abs(out.values - manual).max() <= TABLE_LOOKUP_BOUND


def test_reconstruct_2d_needs_enough_recorded_time(short_disk_traces):
    grid = ImageGrid(lo=(0.6, 0.0), hi=(0.8, 0.0), shape=(2, 1))
    with pytest.raises(InsufficientDataError, match="reaches the upper time 1.5"):
        reconstruct(short_disk_traces, grid)


def test_table_reads_reject_queries_outside_the_table():
    """The back-projection reads row j of a table at q[..., j]."""
    table = np.arange(12.0).reshape(2, 6)
    assert interp_cubic(np.array([[0.0, 2.5]]), 0.0, 0.5, table)[0] == pytest.approx([0.0, 11.0])
    for bad in (-1e-9, 2.5 + 1e-9):
        with pytest.raises(ValueError, match="leave the table"):
            interp_cubic(np.array([[bad, 1.0]]), 0.0, 0.5, table)


def test_reconstruct_threads_do_not_change_values(ball_traces):
    grid = ImageGrid(lo=(-0.2, -0.2, 0.0), hi=(0.2, 0.2, 0.0), shape=(3, 3, 1))
    serial = reconstruct(ball_traces, grid, threads=1)
    threaded = reconstruct(ball_traces, grid, threads=2)
    np.testing.assert_array_equal(serial.values, threaded.values)


def test_reconstruct_fixed_point_on_the_ball_converges_at_once(ball_traces):
    grid = ImageGrid(lo=(-0.2, -0.2, 0.0), hi=(0.2, 0.2, 0.0), shape=(2, 2, 1))
    opts = ReconstructionOptions(
        correction="fixed_point", kernel_margin=0.25, k_radial=8, k_angular=8
    )
    out = reconstruct(ball_traces, grid, opts)
    # the ball kernel is identically zero, so the solve returns b itself
    assert out.meta["operator_norm"] == 0.0
    assert out.meta["solve_residual"] == 0.0
    plain = reconstruct(ball_traces, grid)
    np.testing.assert_array_equal(out.values, plain.values)


def test_correction_matrix_matches_the_pointwise_operator(se4, rng):
    grid = ImageGrid(lo=(-0.1, -0.25), hi=(0.6, 0.45), shape=(5, 4))
    opts = ReconstructionOptions(
        k_radial=8, k_angular=16, kernel_table=128, kernel_quad=96, kernel_margin=0.3
    )
    v = rng.normal(size=20)
    field = ImageGrid(grid.lo, grid.hi, grid.shape, v)
    got = _correction_matrix(grid, se4, opts) @ v
    want = correction_K(field, grid.points(), se4, opts)
    tol = matrix_route_roundoff(field, se4, v, opts)
    assert np.all(np.abs(got - want) <= tol)
    assert np.abs(want).max() >= 1e-3


def test_support_radii_equal_the_per_point_radii(rng):
    """The batched support radii are the per-point ones: to the bit for a
    grid box, and to rounding for a Phantom, whose per-point norm summed
    the squares through a BLAS dot product."""
    pts = rng.uniform(-0.6, 0.6, size=(40, 2))
    f = Phantom(
        (Bump(center=(0.35, 0.2), radius=0.25), Bump(center=(-0.3, 0.1), radius=0.15))
    )
    want = np.array([support_radius_per_point(f, x) for x in pts])
    np.testing.assert_allclose(_support_radii(f, pts), want, rtol=4 * np.finfo(float).eps, atol=0)
    assert np.array_equal(_support_radii(Phantom(()), pts), np.zeros(len(pts)))
    for grid in (
        ImageGrid(lo=(-0.1, -0.25), hi=(0.6, 0.45), shape=(5, 4)),
        ImageGrid(lo=(0.0, 0.1), hi=(0.4, 0.3), shape=(5, 1)),
    ):
        want = np.array([support_radius_per_point(grid, x) for x in pts])
        assert_same_bits(_support_radii(grid, pts), want)


def test_grids_with_the_same_points_have_the_same_correction_matrix(se4):
    """The correction box is spanned by the grid's samples: the end of an
    axis with one sample is that sample, whatever ``hi`` says.  An odd
    direction count holds the directions (+-1, 0) along the sampled line."""
    opts = ReconstructionOptions(
        k_radial=8, k_angular=15, kernel_table=128, kernel_quad=96, kernel_margin=0.3
    )
    a = ImageGrid(lo=(0.0, 0.1), hi=(0.4, 0.1), shape=(5, 1))
    b = ImageGrid(lo=(0.0, 0.1), hi=(0.4, 0.3), shape=(5, 1))
    assert np.array_equal(a.points(), b.points())
    k_a = _correction_matrix(a, se4, opts)
    assert np.abs(k_a).max() > 0.0
    assert np.array_equal(k_a, _correction_matrix(b, se4, opts))


def test_the_correction_refuses_a_grid_with_a_one_sample_axis_where_its_kernel_lives(
    se4, unit_disk, ball_traces
):
    """On a 2-D grid with one sample on an axis K_h reads the field only
    along the quadrature directions that lie on the sampled line, so it is
    set by the parity of the direction count, not by the field; reconstruct
    refuses the correction there.  A slice through the ball, whose kernel
    vanishes, keeps it."""
    line = ImageGrid(lo=(0.0, 0.1), hi=(0.4, 0.1), shape=(5, 1))
    opts = ReconstructionOptions(k_radial=8, kernel_table=128, kernel_quad=96, kernel_margin=0.3)
    odd = _correction_matrix(line, se4, replace(opts, k_angular=15))
    even = _correction_matrix(line, se4, replace(opts, k_angular=16))
    assert np.abs(odd).max() > 1e-4 and np.abs(even).max() == 0.0
    traces = simulate_traces(
        Phantom((Bump(center=(0.25, 0.1), radius=0.3),)),
        se4,
        boundary_quadrature(se4, 8),
        TimeGrid(t_max=4.0, nt=20),
        SolverParams(table_points=256),
    )
    corrected = replace(opts, correction="fixed_point")
    for domain in (se4, unit_disk):
        with pytest.raises(ValueError, match="one-sample axis, shape \\(5, 1\\)"):
            reconstruct(replace(traces, domain=domain), line, corrected)
    assert reconstruct(traces, line).values.shape == (5,)
    slice_opts = replace(opts, correction="fixed_point", kernel_margin=0.25, k_angular=8)
    grid = ImageGrid(lo=(-0.2, -0.2, 0.0), hi=(0.2, 0.2, 0.0), shape=(2, 2, 1))
    assert reconstruct(ball_traces, grid, slice_opts).meta["operator_norm"] == 0.0


def test_reconstruct_fixed_point_solves_the_corrected_equation(se4):
    f = Phantom((Bump(center=(0.25, 0.1), radius=0.3),))
    bq = boundary_quadrature(se4, 32)
    traces = simulate_traces(
        f, se4, bq, TimeGrid(t_max=4.0, nt=80), SolverParams(table_points=2048)
    )
    grid = ImageGrid(lo=(-0.1, -0.25), hi=(0.6, 0.45), shape=(4, 3))
    opts = ReconstructionOptions(
        correction="fixed_point", k_radial=8, k_angular=16, kernel_table=128, kernel_quad=96
    )
    out = reconstruct(traces, grid, opts)
    b = reconstruct(traces, grid).values
    # the returned f satisfies b = f + K f with the pointwise K, up to the
    # solve's reported residual, the rounding in computing that residual
    # (a row of size + 1 products and sums), the matrix route's roundoff and
    # the two roundings of f + K f - b
    kopts = replace(opts, kernel_margin=out.meta["margin"])
    f = out.values
    kf = correction_K(out, grid.points(), se4, kopts)
    terms = np.abs(f) + out.meta["operator_norm"] * np.abs(f).max() + np.abs(kf) + np.abs(b)
    slack = (f.size + 3) * np.finfo(float).eps * terms
    tol = out.meta["solve_residual"] + matrix_route_roundoff(out, se4, f, kopts) + slack
    assert np.all(np.abs(f + kf - b) <= tol)
    assert np.abs(kf).max() >= 1e-3
    assert 0.0 < out.meta["operator_norm"] < 1.0


# ---------------------------------------------------------------------------
# image output


def test_write_image_csv(tmp_path):
    g = ImageGrid(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(2, 2))
    g.values = np.array([0.0, 1.0, 2.0, 3.0])
    path = tmp_path / "image.csv"
    write_image_csv(path, g)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_1,x_2,value"
    assert len(lines) == 5
    assert [float(c) for c in lines[2].split(",")] == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="no values"):
        write_image_csv(tmp_path / "empty.csv", ImageGrid((0.0,), (1.0,), (2,)))


def test_write_image_pgm_round_trip(tmp_path, rng):
    g = ImageGrid(lo=(0.0, 0.0, 0.5), hi=(1.0, 1.0, 0.5), shape=(5, 4, 1))
    g.values = rng.normal(size=20)
    pgm = tmp_path / "image.pgm"
    meta = tmp_path / "image.pgm.txt"
    write_image_pgm(pgm, g, meta)
    lines = pgm.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 5"
    assert lines[2] == "65535"
    pixels = np.array([[int(v) for v in row.split()] for row in lines[3:]])
    assert pixels.shape == (5, 4)
    side = dict(
        line.split(" = ", 1) for line in meta.read_text().splitlines() if " = " in line
    )
    lo, hi = float(side["value_min"]), float(side["value_max"])
    recovered = lo + pixels / float(side["maxval"]) * (hi - lo)
    half_quantum = (hi - lo) / 2.0 / 65535.0
    assert np.abs(recovered.reshape(-1) - g.values).max() <= half_quantum * 1.0001


def test_write_image_pgm_needs_a_planar_grid(tmp_path):
    g = ImageGrid(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), shape=(3, 3, 3))
    g.values = np.zeros(27)
    with pytest.raises(ValueError, match="two non-trivial axes"):
        write_image_pgm(tmp_path / "bad.pgm", g)
