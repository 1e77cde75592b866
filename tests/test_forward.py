"""Pointwise wave fields, Neumann traces and the trace-file round trip."""

import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    assert_same_bits,
    circle_means_masked,
    neumann_trace,
    sine_ball_rule_by_hand,
    phantom_slope,
    trace_grid_2d,
    trace_operator_2d_int64,
    trace_operator_blocks_full_columns,
    trace_spans_by_scan,
    trace_table_2d_row,
    traces_2d_direct,
    traces_2d_full_grid,
    traces_2d_per_node,
    traces_3d_sections,
    traces_by_stencil,
    wave_solution_2d_by_hand,
    wave_solution_even_alt_by_hand,
    write_trace_file_per_value,
)
from neutrace import forward, transforms
from neutrace.forward import (
    _D4_OFFSETS,
    _D4_WEIGHTS,
    TRACE_FORMAT,
    ConfigurationError,
    InsufficientDataError,
    SolverParams,
    TimeGrid,
    TraceFormatError,
    TraceGrid,
    _trace_operator_blocks,
    huygens_horizon,
    phantom_hash,
    read_trace_file,
    simulate_traces,
    support_margin,
    wave_solution,
    wave_solution_even_alt,
    write_trace_file,
)
from neutrace.geometry import BoundaryQuadrature, boundary_quadrature, ellipsoid, superellipse
from neutrace.transforms import Bump, Phantom, bump_radial_deriv, circle_means, sphere_means

# field at x = (0.3, 0), t = 0.7 for the centered radius-0.5 bump, frozen
# from a run at four times the resolution (mean_res 512, radial_quad 768);
# the arc rule at 64 nodes and radial_quad 768 is 3.5e-14 from it
# roundoff: sum|w| / h_t = 1500 times one ulp of |g| <= t max f = 0.7 is 2.3e-13, pin abs 1e-6
WAVE_2D_REFERENCE = -0.27441887450075847

# a smooth and a polynomial bump whose circle bands overlap for some centres
TWO_BUMPS_2D = Phantom(
    (
        Bump(center=(0.1, 0.0), radius=0.4),
        Bump(center=(-0.3, 0.35), radius=0.25, amplitude=0.1, profile="poly"),
    )
)


# How far the trace-operator route may drift from the per-table reference.
# Both evaluate, per trace sample, the same sum
#     sum_{m,q,l} D4_m / h_t * tau_m * wphi_q * L_l * T[k + l]
# from bitwise-equal factors (time weights D4_m, radial weights wphi_q,
# Lagrange weights L_l, the node's table T of the circle means of
# <grad f, nu>), only in different orders.  Evaluated in any order, such a
# sum is within gamma_K <= K eps of the exact one times the sum of the
# absolute terms (Higham, Accuracy and Stability of Numerical Algorithms,
# sec. 3.1), K being the longest chain of roundings a term goes through: the
# operator route adds up to 16 q entries per row (4 time points x q radii x
# 4 table nodes) after at most 16 products and merges, the reference about
# q + 16.  The absolute terms add up to at most
#     sum |D4_m| / h_t * (t_max + 2 h_t) * sum wphi_q * Lambda * max |grad f|,
# with sum wphi_q = int_0^pi/2 sin = 1, a mean of <grad f, nu> never above
# max |grad f| <= sum over the bumps of max |b'|, and Lambda = 1.64 bounding
# the Lebesgue function of the four-point stencil (1.25 mid-table, 1.63 in
# the end intervals).  The table is exact in the normal direction, so no
# difference quotient across the boundary amplifies it.  For the two-bump
# fixture below (h_t = 4e-3, q = 48, max |grad f| <= 14.8) the bound is
# 6.9e-9; the routes differ by 1.6e-14 there, while a 1023- instead of
# 1024-point table moves the traces by 4.5e-2.
def table_route_roundoff(params, t_max, f):
    q = params.radial_quad
    chain = (16 * q + 16) + (q + 16)
    amp = np.abs(_D4_WEIGHTS).sum() / params.h_t
    lebesgue = 1.64
    grad = sum(
        np.abs(bump_radial_deriv(b, np.linspace(0.0, b.radius, 4097))).max() for b in f.bumps
    )
    terms = amp * (t_max + 2.0 * params.h_t) * lebesgue * grad
    return chain * np.finfo(float).eps * terms


# Ratio of the stencil route's gaps to the exact traces when h_nu halves.
# The central difference of step h_nu is off by h_nu^2 / 6 times the third
# normal derivative plus O(h_nu^4), so the ratio tends to 4.  An offset E
# between the routes that does not vanish with h_nu moves the ratio to about
# 4 - 3 E / gap.  Measured over h_nu = 2e-3, 1e-3, 5e-4, 2.5e-4 (gaps as a
# fraction of the peak: 1.54e-3, 3.86e-4, 9.65e-5, 2.41e-5 in 3-D, where the
# ratios are 3.984 to 3.999, and 1.02e-3, 2.55e-4, 6.37e-5, 1.59e-5 in 2-D,
# where they are 3.991, 3.999 and 4.006).  The 2-D routes take their tables
# from the arc rule's means of f and of <grad f, nu>, whose own errors differ
# by up to a few 1e-8 of the peak, the offset that the last 2-D ratio shows.
# A first- or fourth-order error would give 2 or 16, and the window admits
# an offset of at most 3 % of the finest gap, 5e-7 of the peak.
STENCIL_RATIO = (3.9, 4.1)


# Relative L2 distance of the spherical-means quadrature traces
# (_oracles.traces_3d_sections) at mean_res 256 to the closed-field traces,
# on every eighth node of the resolution-8 unit ball and 40 times up to t = 3.
# Measured: 7.3e-2 at mean_res 32, 9.4e-4 at 128 and 7.9e-5 at 256; the
# four-point time difference of step h_t = 3e-3 adds below 1e-9, and the
# quadrature route's normal stencil, of step NORMAL_STEP, about 3e-6 (2.7e-4
# at 1e-3, falling as its square), so this is the error of the direction
# set, and the bound leaves it a factor of two.
SECTIONS_256_BOUND = 1.5e-4

# Normal step of the stencil routes that are compared with the exact traces
# for something else (a direction set, a radial table): their h_nu^2 error
# is then a hundredth of that at the former default 1e-3, while roundoff,
# eps / h_nu times the field, stays below 1e-9.
NORMAL_STEP = 1e-4


# interior points well inside the radius-0.35 bump support where the
# initial-condition differencing stays in its asymptotic regime
IC_POINTS_3D = [
    (0.1, 0.0, 0.0),
    (0.2, 0.05, 0.0),
    (0.0, -0.1, 0.1),
    (0.15, 0.1, -0.05),
    (0.05, 0.0, 0.15),
]


# ---------------------------------------------------------------------------
# grids and parameters


def test_time_grid_properties():
    tg = TimeGrid(t_max=3.0, nt=7)
    assert tg.dt == pytest.approx(0.5)
    np.testing.assert_allclose(tg.samples, np.linspace(0.0, 3.0, 7))
    with pytest.raises(ValueError):
        TimeGrid(t_max=0.0, nt=7)
    with pytest.raises(ValueError):
        TimeGrid(t_max=1.0, nt=1)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(radial_quad=2)
    with pytest.raises(ValueError):
        SolverParams(table_points=-1)
    for bad in (-1.0, 0.0):
        with pytest.raises(ValueError, match=f"^h_t must be positive, got {bad}$"):
            SolverParams(h_t=bad)
    # the traces are exact normal derivatives: there is no step across the
    # boundary; the circle means take a fixed rule on each bump's arc
    for removed in ("h_nu", "nu_order", "mean_res"):
        with pytest.raises(TypeError):
            SolverParams(**{removed: 2})


def test_solver_params_resolved_defaults():
    p = SolverParams().resolved(t_scale=3.0)
    assert p.h_t == pytest.approx(3e-3)
    q = SolverParams(h_t=1e-4).resolved(t_scale=3.0)
    assert q.h_t == 1e-4


# ---------------------------------------------------------------------------
# pointwise fields


def test_initial_condition_3d(bump3d):
    for x in IC_POINTS_3D[:2]:
        f_val = bump3d.eval(np.asarray(x))
        assert wave_solution(bump3d, x, 1e-3) == pytest.approx(f_val, abs=1e-4)


def test_initial_condition_second_order_in_time(bump3d):
    x = np.array([0.1, 0.0, 0.0])
    f_val = float(bump3d.eval(x))
    e_coarse = abs(wave_solution(bump3d, x, 1e-2) - f_val)
    e_fine = abs(wave_solution(bump3d, x, 5e-3) - f_val)
    assert e_coarse / e_fine >= 3.5  # u - f = O(t^2)


def test_time_derivative_vanishes_initially(bump3d):
    # one-sided estimate of du/dt at t = 0 from u(0) = f, u(d), u(2d)
    worst = []
    for delta in (5e-3, 2.5e-3):
        errs = []
        for x in IC_POINTS_3D:
            f_val = float(bump3d.eval(np.asarray(x)))
            u1 = wave_solution(bump3d, x, delta)
            u2 = wave_solution(bump3d, x, 2.0 * delta)
            errs.append(abs(-3.0 * f_val + 4.0 * u1 - u2) / (2.0 * delta))
        worst.append(max(errs))
    assert worst[0] <= 1e-3
    assert worst[1] < worst[0]


def test_field_silent_after_the_wave_passes(bump3d):
    # sharp Huygens principle: support of u(x, .) is [| |x-c| - r |, |x-c| + r]
    x = (2.0, 0.0, 0.0)
    assert abs(wave_solution(bump3d, x, 2.5)) <= 1e-10
    assert abs(wave_solution(bump3d, x, 1.0)) <= 1e-10  # before the wave arrives
    assert abs(wave_solution(bump3d, x, 2.0)) > 1e-4  # while it passes


def test_wave_solution_validation(bump2d, bump3d):
    with pytest.raises(ValueError, match="t > 0"):
        wave_solution(bump3d, (0.0, 0.0, 0.0), 0.0)
    f4 = Phantom((Bump(center=(0.0, 0.0, 0.0, 0.0), radius=0.5),))
    with pytest.raises(ValueError, match="n in"):
        wave_solution(f4, (0.0, 0.0, 0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        wave_solution_even_alt(bump2d, (0.0, 0.0), -1.0)
    with pytest.raises(ValueError, match="two dimensions"):
        wave_solution_even_alt(bump3d, (0.0, 0.0, 0.0), 0.5)


def test_wave_2d_self_oracle(bump2d):
    got = wave_solution(bump2d, (0.3, 0.0), 0.7, SolverParams(radial_quad=192))
    assert got == pytest.approx(WAVE_2D_REFERENCE, abs=1e-6)


def test_wave_2d_alternative_arrangement_agrees(bump2d):
    params = SolverParams(radial_quad=192)
    for x, t in (((0.3, 0.0), 0.7), ((-0.2, 0.25), 1.1)):
        direct = wave_solution(bump2d, x, t, params)
        alt = wave_solution_even_alt(bump2d, x, t, params)
        assert alt == pytest.approx(direct, abs=1e-5)


def test_both_2d_arrangements_keep_the_bits_of_their_hand_built_stencils(rng):
    """The one time-stencil evaluator gives, in each radial arrangement, the
    bits of the code each arrangement wrote out around its own stencil."""
    for _ in range(20):
        f = Phantom(
            (
                Bump(center=tuple(rng.uniform(-0.3, 0.3, 2)), radius=rng.uniform(0.2, 0.5)),
                Bump(center=tuple(rng.uniform(-0.3, 0.3, 2)), radius=rng.uniform(0.1, 0.3),
                     amplitude=-0.4, profile="poly"),
            )
        )
        x = tuple(rng.uniform(-0.5, 0.5, 2))
        t = float(rng.uniform(0.05, 2.0))
        params = SolverParams(radial_quad=int(rng.integers(4, 64)))
        for got, want in (
            (wave_solution(f, x, t, params), wave_solution_2d_by_hand(f, x, t, params)),
            (wave_solution_even_alt(f, x, t, params), wave_solution_even_alt_by_hand(f, x, t, params)),
        ):
            assert_same_bits(got, want)


def test_wave_2d_tail_decays(bump2d):
    f = Phantom((Bump(center=(0.0, 0.0), radius=0.3),))
    vals = [abs(wave_solution(f, (0.2, 0.0), t)) for t in (2.0, 2.5, 3.0, 3.5, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_wave_superposition_is_exact():
    b1 = Bump(center=(0.1, 0.0, 0.0), radius=0.3)
    b2 = Bump(center=(-0.2, 0.1, 0.0), radius=0.25, amplitude=-0.6)
    x, t = (0.4, 0.1, 0.0), 0.6
    u_both = wave_solution(Phantom((b1, b2)), x, t)
    u_sum = wave_solution(Phantom((b1,)), x, t) + wave_solution(Phantom((b2,)), x, t)
    assert u_both == pytest.approx(u_sum, abs=1e-12)


# ---------------------------------------------------------------------------
# traces


def test_neumann_trace_settles_to_zero_at_t0(bump3d, unit_ball):
    """The pointwise trace is exactly zero at t = 0, where the bump vanishes
    across the boundary, which is the first column simulate_traces writes;
    at every later sample the simulated row is the pointwise stencil trace
    up to the stencil's own error: at h_nu = 2.5e-4 the gap is 2.4e-5 of the
    peak (measured over all nodes and 120 times), and half again is allowed."""
    bq = boundary_quadrature(unit_ball, 8)
    times = TimeGrid(t_max=3.0, nt=24)
    traces = simulate_traces(bump3d, unit_ball, bq, times)
    tol = 3.6e-5 * np.abs(traces.values).max()
    for j in (0, 5, 64):
        want = [
            neumann_trace(bump3d, unit_ball, bq.points[j], bq.normals[j], t, h_nu=2.5e-4)
            for t in times.samples
        ]
        assert want[0] == 0.0 == traces.values[j, 0]
        np.testing.assert_allclose(traces.values[j], want, rtol=0.0, atol=tol)


@pytest.mark.parametrize("dimension", [3, 2])
def test_the_normal_stencil_converges_to_the_exact_traces_as_h_squared(dimension):
    """The stencil route (``_oracles.traces_by_stencil``: the package's own
    fields at y -+ h_nu nu) tends to the exact normal derivative at the
    rate of a central difference, ``STENCIL_RATIO``."""
    if dimension == 3:
        domain = ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
        bq, times, params = boundary_quadrature(domain, 8), TimeGrid(3.0, 120), SolverParams()
    else:
        domain = ellipsoid((0.0, 0.0), (1.5, 1.0))
        f = Phantom((Bump(center=(0.2, -0.1), radius=0.3),))
        bq, times, params = boundary_quadrature(domain, 16), TimeGrid(12.0, 100), SolverParams(table_points=1024)
    exact = simulate_traces(f, domain, bq, times, params).values
    gaps = [
        np.abs(traces_by_stencil(f, bq, times, params, h) - exact).max()
        for h in (2e-3, 1e-3, 5e-4, 2.5e-4)
    ]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert STENCIL_RATIO[0] <= coarse / fine <= STENCIL_RATIO[1]


def test_trace_rotational_symmetry(unit_ball):
    """A centered radial phantom must give the same trace at every node."""
    f = Phantom((Bump(center=(0.0, 0.0, 0.0), radius=0.4),))
    bq = boundary_quadrature(unit_ball, 8)
    traces = simulate_traces(f, unit_ball, bq, TimeGrid(t_max=2.0, nt=3))
    # nodes of one polar ring and of different rings, at t = 1: the field is exact in angle
    ring = traces.values[[0, 3, 7, 12, 64], 1]
    assert max(ring) - min(ring) <= 1e-11


def test_support_margin_and_horizon(bump3d, unit_ball):
    assert support_margin(bump3d, unit_ball) == pytest.approx(0.55, abs=1e-9)
    bq = boundary_quadrature(unit_ball, 8)
    # the farthest *node* sits a touch closer than the farthest boundary point
    assert 1.44 <= huygens_horizon(bump3d, bq) <= 1.45


def test_support_margin_negative_when_poking_out(unit_ball):
    f = Phantom((Bump(center=(0.9, 0.0, 0.0), radius=0.3),))
    assert support_margin(f, unit_ball) < 0.0


def test_simulate_traces_zero_phantom(unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    traces = simulate_traces(Phantom(()), unit_ball, bq, TimeGrid(t_max=3.0, nt=16))
    assert traces.values.shape == (128, 16)
    assert np.all(traces.values == 0.0)


def test_simulate_traces_basic_structure(bump3d, unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    times = TimeGrid(t_max=3.0, nt=24)
    traces = simulate_traces(bump3d, unit_ball, bq, times)
    assert np.all(traces.values[:, 0] == 0.0)  # t = 0 column
    assert np.any(traces.values != 0.0)
    # no signal after the horizon passes every node
    horizon = huygens_horizon(bump3d, bq)
    late = times.samples >= horizon + 0.1
    assert np.all(np.abs(traces.values[:, late]) <= 1e-10)


def test_simulate_traces_nested_time_grids_share_values(bump3d, unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    coarse = simulate_traces(bump3d, unit_ball, bq, TimeGrid(t_max=3.0, nt=16))
    fine = simulate_traces(bump3d, unit_ball, bq, TimeGrid(t_max=3.0, nt=31))
    np.testing.assert_array_equal(coarse.values, fine.values[:, ::2])


def test_simulate_traces_linear_in_the_phantom(unit_ball):
    b1 = Bump(center=(0.1, 0.0, 0.0), radius=0.3)
    b2 = Bump(center=(-0.15, 0.1, 0.0), radius=0.25, amplitude=0.8)
    bq = boundary_quadrature(unit_ball, 8)
    times = TimeGrid(t_max=3.0, nt=16)
    both = simulate_traces(Phantom((b1, b2)), unit_ball, bq, times)
    one = simulate_traces(Phantom((b1,)), unit_ball, bq, times)
    two = simulate_traces(Phantom((b2,)), unit_ball, bq, times)
    np.testing.assert_allclose(both.values, one.values + two.values, atol=1e-12)


def test_simulate_traces_threads_do_not_change_values(bump3d, unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    times = TimeGrid(t_max=3.0, nt=16)
    serial = simulate_traces(bump3d, unit_ball, bq, times)
    threaded = simulate_traces(bump3d, unit_ball, bq, times, threads=4)
    np.testing.assert_array_equal(serial.values, threaded.values)


def test_3d_traces_ignore_the_quadrature_knobs_and_the_node_blocks(bump3d, unit_ball, monkeypatch):
    """The 3-D traces are the exact normal derivative of the closed field: no
    direction set, radial rule or time step enters, and the node blocks only
    bound the temporaries."""
    bq = boundary_quadrature(unit_ball, 8)
    times = TimeGrid(t_max=3.0, nt=24)
    ref = simulate_traces(bump3d, unit_ball, bq, times).values
    for params in (
        SolverParams(table_points=4),
        SolverParams(table_points=0, h_t=0.05),
        SolverParams(radial_quad=4, h_t=1e-6),
    ):
        np.testing.assert_array_equal(simulate_traces(bump3d, unit_ball, bq, times, params).values, ref)
    for block in (1, 5 * times.nt):  # one node, then five nodes per block
        monkeypatch.setattr(forward, "_BLOCK_VALUES", block)
        np.testing.assert_array_equal(simulate_traces(bump3d, unit_ball, bq, times).values, ref)


def test_sections_quadrature_converges_to_the_closed_traces(bump3d, unit_ball):
    full = boundary_quadrature(unit_ball, 8)
    bq = BoundaryQuadrature(full.points[::8], full.normals[::8], full.weights[::8], full.resolution)
    times = TimeGrid(t_max=3.0, nt=40)
    closed = simulate_traces(bump3d, unit_ball, bq, times).values
    errs = []
    for m in (32, 128, 256):
        quad = traces_3d_sections(bump3d, unit_ball, bq, times, SolverParams(), m, h_nu=NORMAL_STEP)
        errs.append(np.linalg.norm(quad - closed) / np.linalg.norm(closed))
    assert errs[1] <= errs[0] / 20.0
    assert errs[2] <= SECTIONS_256_BOUND


def test_simulate_traces_rejects_support_touching_the_rim(unit_ball):
    f = Phantom((Bump(center=(0.0, 0.0, 0.0), radius=1.0),))
    bq = boundary_quadrature(unit_ball, 8)
    with pytest.raises(ConfigurationError, match="support margin"):
        simulate_traces(f, unit_ball, bq, TimeGrid(t_max=3.0, nt=16))


def test_simulate_traces_rejects_dimension_mismatch(bump2d, unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    with pytest.raises(ConfigurationError, match="dimension"):
        simulate_traces(bump2d, unit_ball, bq, TimeGrid(t_max=3.0, nt=16))


def test_table_accelerated_2d_traces_match_direct(unit_disk):
    """The table route against pointwise fields under the normal stencil of
    step ``NORMAL_STEP``: the gap is 3.0e-6 (3.1e-4 at h_nu = 1e-3, and
    7.6e-7, the table's own, with the stencil on both routes)."""
    f = Phantom((Bump(center=(0.1, 0.0), radius=0.4),))
    bq = boundary_quadrature(unit_disk, 12)
    times = TimeGrid(t_max=4.0, nt=40)
    direct = traces_2d_direct(f, unit_disk, bq, times, SolverParams(), h_nu=NORMAL_STEP)
    tabled = simulate_traces(f, unit_disk, bq, times, SolverParams(table_points=4096))
    scale = np.abs(direct).max()
    assert np.abs(direct - tabled.values).max() <= 1e-4 * max(scale, 1.0)


@pytest.mark.parametrize("points", [0, 2, 3])
def test_2d_traces_need_a_table_of_one_cubic_stencil(unit_disk, points):
    bq = boundary_quadrature(unit_disk, 8)
    times = TimeGrid(t_max=4.0, nt=10)
    with pytest.raises(ConfigurationError, match=f"table_points must be >= 4 .* got {points}"):
        simulate_traces(TWO_BUMPS_2D, unit_disk, bq, times, SolverParams(table_points=points))


# Largest gap between ``circle_means`` and the means over the 8192-point
# uniform rule of ``sphere_means``, for f and for <grad f, nu>, as a fraction
# of the largest |mean| of the fine route over the cases of ``_circle_cases``.
# Measured: values 2.3e-9 (cinf) and 6.0e-11 (poly), slopes 3.9e-7 (cinf) and
# 1.8e-7 (poly).  The cinf slope gap is the arc rule's own: it stays put from
# 2048 to 32768 uniform points, and on a radial grid around (0.9, 0.3) it
# is 7.1e-7 at 32 arc nodes against 5.0e-9 at 48 and 1.0e-10 at 64 (largest
# slope 2).  The poly slope gap is the uniform rule's, whose rim kink (mu = 2)
# it resolves at second order: on one random centre the absolute gap is
# 1.6e-5 at 2048 points, 4.7e-7 at 8192 and 7.4e-8 at 32768.  The bound
# leaves the largest a factor of 2.5.
CIRCLE_MEANS_BOUND = 1e-6


def _circle_cases(f, rng):
    """(centre, radii) pairs around the two overlapping bumps of ``f``:
    random centres and radii, radius 0, circles around a bump centre
    (d = 0), inside a bump, and last, grazing the first bump from outside
    (r = d - R (1 -+ 1e-9)) and from inside (r = d + R (1 - 1e-9))."""
    c0, big = np.asarray(f.bumps[0].center), f.bumps[0].radius
    cases = [
        (c, np.concatenate([[0.0], rng.uniform(0.0, 3.0, 64)]))
        for c in rng.uniform(-1.2, 1.2, (6, 2))
    ]
    # at a bump centre (d = 0): radius 0, circles inside, on and beyond the rim
    cases.append((c0, np.array([0.0, 0.1, 0.39, 0.4, 0.41, 1.0])))
    # radius 0 inside and outside every bump
    cases += [(c0 + 0.1, np.zeros(3)), (c0 + 0.9, np.zeros(3))]
    # circles wholly inside the first bump around an off-centre point
    cases.append((c0 + 0.05, np.array([0.05, 0.2, 0.3])))
    # the centre 0.9 from the first bump's and 0.95 from the second's, whose
    # band 0.7 < r < 1.2 lies between the grazing radii 0.5 and 1.3
    d = 0.9
    graze = np.array([d - big * (1 - 1e-9), d - big * (1 + 1e-9), d + big * (1 - 1e-9)])
    cases.append((c0 - d * np.array([0.8, 0.6]), graze))
    return cases


@pytest.mark.parametrize("profile", ["cinf", "poly"])
def test_circle_means_match_the_fine_uniform_rule(profile, rng):
    """The arc rule's means of f and of <grad f, nu> against ``sphere_means``
    on 8192 equally spaced directions, a rule that knows nothing of the
    bumps, with the gradient from ``_oracles.phantom_slope``: within
    ``CIRCLE_MEANS_BOUND`` of the largest mean, over two overlapping bumps."""
    f = Phantom(
        (
            Bump(center=(0.1, 0.0), radius=0.4, profile=profile),
            Bump(center=(-0.3, 0.35), radius=0.25, amplitude=0.1, profile=profile, mu=3),
        )
    )
    nu = np.array([math.cos(0.7), math.sin(0.7)])
    cases = _circle_cases(f, rng)
    for field, direction in ((f, None), (phantom_slope(f, nu), nu)):
        got = [circle_means(f, c, radii, direction=direction) for c, radii in cases]
        want = [sphere_means(field, c, radii, 8192, n=2) for c, radii in cases]
        peak = max(np.abs(w).max() for w in want)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= CIRCLE_MEANS_BOUND * peak
    means = circle_means(f, *cases[-1])
    assert means[1] == 0.0  # 1e-9 R off the rim
    if profile == "poly":
        # the arcs 1e-9 R inside the rim keep their non-zero values
        assert means[0] > 0.0 and means[2] > 0.0


def test_circle_means_are_zero_off_the_bumps_and_even_in_the_radius():
    """Circles that miss every bump give exact zeros, and a negative radius
    gives the mean at its absolute value."""
    f = TWO_BUMPS_2D
    radii = np.array([-1.0, 1.0, 0.01, 5.0])
    x = np.array([1.2, -0.6])  # 1.25 from (0.1, 0), 1.78 from (-0.3, 0.35)
    means = circle_means(f, x, radii)
    assert means[0] == means[1] != 0.0
    assert means[2] == 0.0 == means[3]
    slopes = circle_means(f, x, radii, direction=np.array([0.0, 1.0]))
    assert slopes[0] == slopes[1] != 0.0
    assert slopes[2] == 0.0 == slopes[3]
    with pytest.raises(ValueError, match="centre of 2 coordinates"):
        circle_means(f, np.zeros(3), radii)


def test_the_arc_rule_converges_to_the_2d_reference(bump2d, monkeypatch):
    """The field at (0.3, 0), t = 0.7 against ``WAVE_2D_REFERENCE`` as the
    arc rule grows to ``ARC_NODES`` = 32, at radial_quad 192 (whose own gap
    is 2.2e-11 at 64 arc nodes).  Measured: 1.4e-6, 5.2e-8 and 3.2e-10 at 16,
    24 and 32 nodes, so the gap falls at least 20-fold per step and the
    default's is below 1e-9."""
    assert transforms.ARC_NODES == 32
    gaps = []
    for nodes in (16, 24, 32):
        monkeypatch.setattr(transforms, "ARC_NODES", nodes)
        got = wave_solution(bump2d, (0.3, 0.0), 0.7, SolverParams(radial_quad=192))
        gaps.append(abs(got - WAVE_2D_REFERENCE))
    assert gaps[0] >= 20.0 * gaps[1] and gaps[1] >= 20.0 * gaps[2]
    assert gaps[2] <= 1e-9


def test_trace_operator_matches_per_centre_reference(unit_disk):
    bq = boundary_quadrature(unit_disk, 12)
    times = TimeGrid(t_max=4.0, nt=40)
    params = SolverParams(table_points=1024).resolved(t_scale=times.t_max)
    got = simulate_traces(TWO_BUMPS_2D, unit_disk, bq, times, params).values
    r_grid = trace_grid_2d(times, params)
    tol = table_route_roundoff(params, times.t_max, TWO_BUMPS_2D)
    for j in range(len(bq)):
        table = circle_means(TWO_BUMPS_2D, bq.points[j], r_grid, direction=bq.normals[j])
        ref = trace_table_2d_row(table, times.samples, params.h_t, params.radial_quad, r_grid)
        assert got[j, 0] == 0.0
        np.testing.assert_allclose(got[j, 1:], ref[1:], rtol=0.0, atol=tol)


def _operator_matrix(times, params, r_grid):
    """The int64 build of the trace operator as one dense (nt, npts) matrix."""
    rows, cols, coefs, _ = trace_operator_2d_int64(times.samples, params, r_grid)
    dense = np.zeros((times.nt, r_grid.size))
    dense[rows, cols] = coefs
    return dense


# How far a trace row may move when the block apply replaces the per-node
# sparse route.  Both routes sum, for row i of a node with table T, the same
# products T_k W_ik of bitwise-equal factors (the block entries are the
# sparse build's, to the bit) over the K table columns, only in different
# orders: matrix products over column chunks, added in column order, against
# a bincount over the entries of the node's non-zero columns.  In any order,
# with or without fused multiply-adds, each product meets at most K - 1
# additions, so such a sum is within gamma_K = K u / (1 - K u) of the exact
# one times sum_k |T_k| |W_ik| (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 3.1), u = 2^-53, and the routes differ by at most twice
# that.  The sum of absolute products is itself computed, to within a
# factor 1 - gamma_K below its exact value, which the bound divides out.
# K is the whole table's column count, which bounds the terms of either
# route.
def block_apply_roundoff(tables, times, params, r_grid):
    u = np.finfo(float).eps / 2.0
    gamma = r_grid.size * u / (1.0 - r_grid.size * u)
    weight = np.abs(tables) @ np.abs(_operator_matrix(times, params, r_grid)).T
    return 2.0 * gamma * weight / (1.0 - gamma)


def _simulate_and_window(monkeypatch, f, domain, boundary, times, params):
    """simulate_traces' rows and the table window its operator blocks were
    built on (None when none was built)."""
    windows = []

    def record(times, params, r_grid, c_lo, c_hi):
        windows.append((c_lo, c_hi))
        return trace_blocks(times, params, r_grid, c_lo, c_hi)

    trace_blocks = _trace_operator_blocks
    monkeypatch.setattr(forward, "_trace_operator_blocks", record)
    got = simulate_traces(f, domain, boundary, times, params).values
    assert len(windows) <= 1
    return got, (windows[0] if windows else None)


def _check_block_apply(got, window, f, boundary, times, params):
    """The rows against the per-node sparse route, within the roundoff of
    the summation order, with the same exact zeros, and the window equal to
    the columns the tables reach.  Returns the tables."""
    want, tables = traces_2d_per_node(f, boundary, times, params)
    r_grid = trace_grid_2d(times, params)
    tol = block_apply_roundoff(tables, times, params, r_grid)
    assert np.all(np.abs(got - want) <= tol)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    dead = ~tables.any(axis=1)
    assert_same_bits(got[dead], np.zeros((np.count_nonzero(dead), times.nt)))
    reached = np.flatnonzero(tables.any(axis=0))
    assert window == ((reached[0], reached[-1] + 1) if reached.size else None)
    return tables


# bands apart enough to split the non-zero columns into two runs at some nodes
APART_BANDS = Phantom(
    (Bump(center=(0.55, 0.0), radius=0.2), Bump(center=(-0.5, 0.1), radius=0.25))
)


@pytest.mark.parametrize(
    "f, split_bands",
    [(TWO_BUMPS_2D, False), (APART_BANDS, True)],
    ids=["overlapping", "apart"],
)
def test_band_column_apply_equals_the_full_operator_apply(unit_disk, monkeypatch, f, split_bands):
    """simulate_traces builds the operator blocks on the columns the tables
    reach, well under half the table here, and applies each to all tables
    at once by matrix products: each row equals the per-node sparse route's,
    on the node's non-zero columns, to within the roundoff of the summation
    order."""
    bq = boundary_quadrature(unit_disk, 12)
    times = TimeGrid(t_max=4.0, nt=40)
    params = SolverParams(table_points=1024).resolved(t_scale=times.t_max)
    got, window = _simulate_and_window(monkeypatch, f, unit_disk, bq, times, params)
    tables = _check_block_apply(got, window, f, bq, times, params)
    assert window[1] - window[0] < 0.5 * params.table_points
    split = sum(np.any(np.diff(np.flatnonzero(table)) > 1) for table in tables)
    assert (split > 0) == split_bands


def _stacked_blocks(times, params, r_grid, *window):
    """The operator's row blocks stacked into one (nt, width) matrix, after
    checking that they cover the rows in order, 32 at a time."""
    blocks = list(_trace_operator_blocks(times.samples, params, r_grid, *window))
    expect = [slice(lo, min(lo + 32, times.nt)) for lo in range(0, times.nt, 32)]
    assert [rows for rows, _ in blocks] == expect
    assert all(w.dtype == np.float64 for _, w in blocks)
    return np.concatenate([w for _, w in blocks])


@pytest.mark.parametrize("nt", [40, 97])
def test_trace_operator_equals_the_int64_build(nt):
    """The row blocks, 32 rows each and in row order, scattered into one
    matrix, hold the entries of the sparse int64 build, bit for bit."""
    times = TimeGrid(t_max=4.0, nt=nt)
    params = SolverParams(table_points=1024).resolved(t_scale=times.t_max)
    r_grid = trace_grid_2d(times, params)
    want = _operator_matrix(times, params, r_grid)
    assert_same_bits(_stacked_blocks(times, params, r_grid), want)


def test_trace_operator_rejects_radii_beyond_the_table():
    """The radial-table check reads every query radius, also those whose
    stencils reach no column of a window."""
    params = SolverParams().resolved(t_scale=4.0)
    times = TimeGrid(t_max=4.0, nt=40).samples
    for window in [(), (10, 11), (500, 512), (20, 20)]:
        with pytest.raises(ConfigurationError, match="radial table"):
            list(_trace_operator_blocks(times, params, np.linspace(0.0, 3.0, 512), *window))
        with pytest.raises(ConfigurationError, match="radial table"):
            list(_trace_operator_blocks(times, params, np.linspace(0.1, 4.1, 512), *window))


@pytest.mark.parametrize(
    "c_lo, c_hi",
    [(0, 1024), (0, None), (300, 301), (0, 3), (1020, 1024), (250, 700), (400, 400)],
    ids=["full", "default", "one-column", "first-columns", "last-columns", "middle", "empty"],
)
def test_windowed_trace_operator_holds_the_full_build_on_its_columns(c_lo, c_hi):
    """Blocks built on the columns [c_lo, c_hi) hold the full build's
    entries on those columns, bit for bit, and nothing else: the blocks of
    the build that took every stencil term of every row, too."""
    times = TimeGrid(t_max=4.0, nt=97)
    params = SolverParams(table_points=1024).resolved(t_scale=times.t_max)
    r_grid = trace_grid_2d(times, params)
    full = _stacked_blocks(times, params, r_grid)
    got = _stacked_blocks(times, params, r_grid, c_lo, c_hi)
    assert_same_bits(got, full[:, c_lo:c_hi])
    assert got.shape[1] == (1024 if c_hi is None else c_hi) - c_lo
    every_term = trace_operator_blocks_full_columns(times.samples, params, r_grid, c_lo, c_hi)
    assert_same_bits(got, np.concatenate([w for _, w in every_term]))


def _nodes(boundary, keep):
    return BoundaryQuadrature(
        boundary.points[keep], boundary.normals[keep], boundary.weights[keep], boundary.resolution
    )


# bumps near (1, 0) and (-1, 0): a node near either reaches one at about 0.4
# and the other at about 1.6, so every table is zero between the two bands
APART_ON_THE_AXIS = Phantom(
    (Bump(center=(0.6, 0.0), radius=0.15), Bump(center=(-0.6, 0.05), radius=0.12))
)


@pytest.mark.parametrize(
    "f, t_max, near_axis, case",
    [
        (APART_ON_THE_AXIS, 4.0, True, "gap"),
        # the far side of the disk is more than t_max + 2 h_t + radius from the bump
        (Phantom((Bump(center=(0.6, 0.0), radius=0.2),)), 1.0, False, "zero-table"),
        (Phantom((Bump(center=(0.0, 0.1), radius=0.2),)), 0.5, False, "all-zero"),
    ],
    ids=["window-spans-a-gap", "a-node-with-a-zero-table", "no-table-reaches-a-bump"],
)
def test_windowed_simulation_equals_the_full_operator_apply(
    unit_disk, monkeypatch, f, t_max, near_axis, case
):
    """simulate_traces keeps each node's span of non-zero table values,
    builds the operator blocks on the columns the spans reach, and applies
    them to the stacked spans of the nodes whose table is not all zero: every
    row equals the per-node sparse route's to within the roundoff of the
    summation order, and the rows of zero tables are +0.0.  When every
    table is zero, no block is built."""
    bq = boundary_quadrature(unit_disk, 24)
    if near_axis:
        bq = _nodes(bq, np.abs(bq.points[:, 1]) < 0.3)
    times = TimeGrid(t_max=t_max, nt=40)
    params = SolverParams(table_points=1024).resolved(t_scale=times.t_max)
    got, window = _simulate_and_window(monkeypatch, f, unit_disk, bq, times, params)
    tables = _check_block_apply(got, window, f, bq, times, params)
    live = tables.any(axis=1)
    if case == "gap":
        reached = np.flatnonzero(tables.any(axis=0))
        assert np.diff(reached).max() > 100
    elif case == "zero-table":
        assert live.any() and not live.all()
        assert np.count_nonzero(got[~live]) == 0 < np.count_nonzero(got[live])
    else:
        assert not live.any() and window is None
        assert np.count_nonzero(got) == 0


# a bump 0.05 from the unit circle: on a 16-point table (columns 0.067
# apart) the nearest node's table is non-zero from column 1, whose stencils
# also read column 0, and at t_max = 1 the tables of the nodes a quarter
# turn away are non-zero up to the table's last column
AT_THE_TABLE_ENDS = Phantom((Bump(center=(0.6, 0.0), radius=0.35),))


@pytest.mark.parametrize(
    "case", ["two-bumps", "apart", "superellipse-p4", "nt-97", "window-at-the-table-ends"]
)
def test_simulated_traces_equal_the_full_grid_route_bit_for_bit(unit_disk, monkeypatch, case):
    """simulate_traces takes each node's circle means on its annulus only,
    evaluates all-inside arcs whole and builds the operator from the terms
    that reach the table window: the traces have the bits of the route that
    took every table on the whole grid through the masked means and built
    every term of every operator row."""
    domain, f, t_max, nt, points = unit_disk, TWO_BUMPS_2D, 4.0, 40, 1024
    if case == "apart":
        f = APART_BANDS
    elif case == "superellipse-p4":
        domain = superellipse((0.0, 0.0), (1.2, 0.9), 4.0)
        f = Phantom((Bump(center=(0.25, 0.1), radius=0.3),))
    elif case == "nt-97":
        nt = 97
    elif case == "window-at-the-table-ends":
        f, t_max, points = AT_THE_TABLE_ENDS, 1.0, 16
    bq = boundary_quadrature(domain, 12)
    times = TimeGrid(t_max=t_max, nt=nt)
    params = SolverParams(table_points=points)
    got, window = _simulate_and_window(monkeypatch, f, domain, bq, times, params)
    assert_same_bits(got, traces_2d_full_grid(f, bq, times, params))
    assert np.count_nonzero(got) > 0
    if case == "apart":
        # some node's annulus is two rings with a gap between them
        d = [np.hypot(*(bq.points - b.center).T) for b in f.bumps]
        inner = np.minimum(d[0] + f.bumps[0].radius, d[1] + f.bumps[1].radius)
        outer = np.maximum(d[0] - f.bumps[0].radius, d[1] - f.bumps[1].radius)
        assert np.any(outer > inner)
    elif case == "window-at-the-table-ends":
        assert window == (1, points)


def _bump_at_a_pad_column(bq, r_grid, center, rim):
    """A mu = 1 poly bump about ``center``, whose slope does not vanish at
    its rim, with, for some node, a table radius r_k within rounding of that
    node's d - R (``rim`` "lower") or d + R ("upper") that the node's
    annulus takes by its one-column pad only, and at which the node's circle
    means of <grad f, nu> are not zero; None if the scan of the nodes and of
    radii a few ulps around |r_k - d| finds none."""
    d = forward._distance(bq.points, center)
    sign = -1.0 if rim == "lower" else 1.0
    for j, (y, nu) in enumerate(zip(bq.points, bq.normals)):
        for k in np.searchsorted(r_grid, d[j] + 0.1 * sign) + np.array([-1, 0]):
            r0 = abs(r_grid[k] - d[j])
            for s in range(-40, 41):
                radius = r0 + s * np.spacing(r0)
                if rim == "lower":
                    pad_only = np.searchsorted(r_grid, d[j] - radius, side="right") - 1 == k
                else:
                    pad_only = np.searchsorted(r_grid, d[j] + radius) == k
                f = Phantom((Bump(center=center, radius=float(radius), profile="poly", mu=1),))
                if pad_only and circle_means(f, y, r_grid[k : k + 1], direction=nu)[0] != 0.0:
                    return f
    return None


@pytest.mark.parametrize("rim", ["lower", "upper"])
def test_the_annulus_pads_keep_the_means_at_a_bumps_rim(unit_disk, rim):
    """Each node's annulus is padded by one table column on each side,
    because ``circle_means`` may find a circle within rounding of a bump's
    rim to meet the bump where |r - d| < R, computed otherwise, says it does
    not: with the mean there not zero, the traces still have the bits of the
    route that took every table on the whole grid."""
    bq = boundary_quadrature(unit_disk, 12)
    times = TimeGrid(t_max=4.0, nt=40)
    params = SolverParams(table_points=1024)
    r_grid = trace_grid_2d(times, params.resolved(t_scale=times.t_max))
    f = _bump_at_a_pad_column(bq, r_grid, (0.65, -0.05), rim)
    assert f is not None
    got = simulate_traces(f, unit_disk, bq, times, params).values
    assert_same_bits(got, traces_2d_full_grid(f, bq, times, params))


def _terms_on_the_window(times, params, r_grid, c_lo, c_hi):
    """Per block of 32 rows, the (row, time offset, phi node) terms of the
    trace operator with a stencil column k - 1 .. k + 2 in [c_lo, c_hi),
    counted from the stencils of every term."""
    sin_phi, _ = sine_ball_rule_by_hand(params.radial_quad)
    counts = []
    for lo in range(0, times.nt, 32):
        taus = times.samples[lo : lo + 32, None] + params.h_t * _D4_OFFSETS
        radii = np.abs(taus)[..., None] * sin_phi
        k, _ = forward.cubic_stencil(radii, r_grid[0], r_grid[1] - r_grid[0], r_grid.size)
        cols = k[..., None] + np.arange(-1, 3)
        counts.append(int(np.count_nonzero(((cols >= c_lo) & (cols < c_hi)).any(axis=-1))))
    return counts


@pytest.mark.parametrize(
    "window", [None, (0, 1024), (0, 3), (300, 301), (1021, 1024)],
    ids=["simulated", "full", "first-columns", "one-column", "last-columns"],
)
def test_the_operator_takes_the_stencils_of_the_terms_that_reach_the_window(
    unit_disk, monkeypatch, window
):
    """The operator computes stencils, and so cardinal weights, scales and
    keys, only for the terms whose stencil columns meet the window: each
    block hands ``cubic_stencil`` exactly as many radii as there are such
    terms, well under half of all terms on the window that simulate_traces
    asks for."""
    times = TimeGrid(t_max=4.0, nt=97)
    params = SolverParams(table_points=1024).resolved(t_scale=times.t_max)
    r_grid = trace_grid_2d(times, params)
    if window is None:
        bq = boundary_quadrature(unit_disk, 12)
        _, window = _simulate_and_window(monkeypatch, TWO_BUMPS_2D, unit_disk, bq, times, params)
    want = _terms_on_the_window(times, params, r_grid, *window)
    counted = []

    def counting(q, *args):
        counted.append(np.size(q))
        return stencil(q, *args)

    stencil = forward.cubic_stencil
    monkeypatch.setattr(forward, "cubic_stencil", counting)
    list(_trace_operator_blocks(times.samples, params, r_grid, *window))
    assert counted == want
    every = times.nt * 4 * params.radial_quad
    if window == (0, 1024):
        assert sum(counted) == every
    elif window[1] - window[0] > 100:
        assert 0 < sum(counted) < 0.5 * every


# a bump of each profile, and centres, directions and radii at which the
# arc nodes of a bump are all inside it, some of them outside only because
# u rounds to 1 or more next to the arc's ends, or none of them live
ARC_BUMPS = [
    Bump(center=(0.3, -0.2), radius=0.5),
    Bump(center=(0.3, -0.2), radius=0.5, profile="poly"),
]


def _arc_case(bump, case):
    c = np.asarray(bump.center)
    big = bump.radius
    if case == "all-inside":
        return c + (0.1, 0.0), np.linspace(0.0, big - 0.1, 41)[:-1]
    if case == "centre":
        return c.copy(), np.linspace(0.0, 1.2 * big, 41)
    x = c + 0.8 * np.array([0.6, 0.8])
    d = math.hypot(*(c - x).tolist())
    if case == "no-live-radius":
        return x, np.concatenate([np.linspace(0.0, d - big, 20), np.linspace(d + big, 2.0, 20)])
    steps = np.arange(400)
    below_top = np.nextafter(d + big, 0.0) - steps * np.spacing(d + big)
    above_bottom = d - big + (steps + 1) * np.spacing(d - big)
    return x, np.concatenate([below_top, above_bottom, np.linspace(d - big, d + big, 41)[1:-1]])


@pytest.mark.parametrize("bump", ARC_BUMPS, ids=["cinf", "poly"])
@pytest.mark.parametrize("direction", [None, (0.6, -0.8)], ids=["means", "slopes"])
@pytest.mark.parametrize("case", ["all-inside", "mixed", "no-live-radius", "centre"])
def test_circle_means_have_the_bits_of_the_masked_route(monkeypatch, bump, direction, case):
    """circle_means evaluates a bump's arc nodes whole when every one has
    u < 1, and through the mask u < 1 otherwise: the means have the bits of
    the route that always took the mask, on every kind of input."""
    routes = []

    def spy(inside, *args):
        routes.append("empty" if not inside.size else "all" if inside.all() else "mixed")
        return on_support(inside, *args)

    on_support = transforms._on_support
    monkeypatch.setattr(transforms, "_on_support", spy)
    f = Phantom((bump,))
    x, radii = _arc_case(bump, case)
    got = circle_means(f, x, radii, direction=direction)
    assert_same_bits(got, circle_means_masked(f, x, radii, direction=direction))
    want = {
        "all-inside": ["all"],
        "mixed": ["mixed"],
        "no-live-radius": ["empty"],
        "centre": ["all"] if direction is None else [],
    }[case]
    assert routes == want
    assert np.any(got) == (want in (["all"], ["mixed"]))


def test_table_2d_threads_do_not_change_values(unit_disk):
    bq = boundary_quadrature(unit_disk, 12)
    times = TimeGrid(t_max=4.0, nt=40)
    params = SolverParams(table_points=1024)
    serial = simulate_traces(TWO_BUMPS_2D, unit_disk, bq, times, params)
    threaded = simulate_traces(TWO_BUMPS_2D, unit_disk, bq, times, params, threads=2)
    np.testing.assert_array_equal(serial.values, threaded.values)


# ---------------------------------------------------------------------------
# trace files


def _small_traces(f, domain):
    bq = boundary_quadrature(domain, 8)
    return simulate_traces(f, domain, bq, TimeGrid(t_max=3.0, nt=12))


PAYLOAD_MARKER = b"\n# payload = <f8\n"


def _split(path):
    """The text lines of a trace file before its payload marker line, and
    the payload bytes after it."""
    text, marker, payload = path.read_bytes().partition(PAYLOAD_MARKER)
    assert marker
    return text.decode("ascii").splitlines(), payload


def _join(path, lines, payload):
    path.write_bytes("\n".join(lines).encode() + PAYLOAD_MARKER + payload)


def _node_rows(lines):
    return [l for l in lines if not l.startswith("#")]


def _assert_same_traces(back, traces):
    np.testing.assert_array_equal(back.values, traces.values)
    np.testing.assert_array_equal(back.boundary.points, traces.boundary.points)
    np.testing.assert_array_equal(back.boundary.normals, traces.boundary.normals)
    np.testing.assert_array_equal(back.boundary.weights, traces.boundary.weights)
    assert back.boundary.resolution == traces.boundary.resolution
    assert back.times == traces.times
    assert back.domain == traces.domain
    assert back.params == traces.params
    assert back.phantom_hash == traces.phantom_hash


def test_trace_file_round_trip(tmp_path, bump3d, unit_ball):
    traces = _small_traces(bump3d, unit_ball)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces)
    back = read_trace_file(path)
    _assert_same_traces(back, traces)
    assert back.domain.kind == traces.domain.kind
    assert back.domain.semi_axes == traces.domain.semi_axes


def test_trace_file_round_trip_superellipse_with_timestamp(tmp_path):
    domain = superellipse((0.05, -0.02), (1.2, 0.9), 4.0)
    f = Phantom((Bump(center=(0.25, 0.1), radius=0.3),))
    bq = boundary_quadrature(domain, 16)
    params = SolverParams(table_points=512)
    traces = simulate_traces(f, domain, bq, TimeGrid(t_max=4.0, nt=20), params)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces, timestamp="2026-01-02T03:04:05+00:00")
    assert "# generated = 2026-01-02T03:04:05+00:00" in _split(path)[0][:3]
    back = read_trace_file(path)
    _assert_same_traces(back, traces)
    assert back.domain.kind == "superellipse"
    assert back.domain.exponent == 4.0


def test_3d_trace_file_with_table_points_zero_reads_back(tmp_path, bump3d, unit_ball):
    """Three-dimensional simulation ignores table_points, and trace files
    that record it as 0 keep reading."""
    traces = _small_traces(bump3d, unit_ball)
    zero = simulate_traces(
        bump3d, unit_ball, traces.boundary, traces.times, SolverParams(table_points=0)
    )
    np.testing.assert_array_equal(zero.values, traces.values)
    path = tmp_path / "traces.csv"
    write_trace_file(path, zero)
    assert "# solver.table_points = 0" in _split(path)[0]
    back = read_trace_file(path)
    _assert_same_traces(back, zero)
    assert back.params.table_points == 0


def test_trace_file_layout(tmp_path, bump3d, unit_ball):
    """Header lines, a columns line, one text row per node ending in its
    span, the marker line, then the spans as little-endian float64."""
    traces = _small_traces(bump3d, unit_ball)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces)
    lines, payload = _split(path)
    assert lines[0] == f"# {TRACE_FORMAT}" == "# neumann-trace/5"
    # the traces are exact normal derivatives, and the circle means take a
    # fixed arc rule: no normal step or direction count is recorded
    removed = ("# solver.h_nu", "# solver.nu_order", "# solver.mean_res")
    assert not [l for l in lines if l.startswith(removed)]
    columns = next(l for l in lines if l.startswith("# columns: "))
    names = columns[len("# columns: ") :].split(",")
    assert names == ["y_1", "y_2", "y_3", "nu_1", "nu_2", "nu_3", "weight", "first", "end"]
    rows = _node_rows(lines)
    assert len(rows) == len(traces.boundary)
    b = traces.boundary
    spans = trace_spans_by_scan(traces.values)
    nodes = np.column_stack([b.points, b.normals, b.weights]).tolist()
    assert rows == [
        ",".join("%.17g" % v for v in node) + f",{a},{z}" for node, (a, z) in zip(nodes, spans)
    ]
    want = [v for row, (a, z) in zip(traces.values.tolist(), spans) for v in row[a:z]]
    assert payload == struct.pack(f"<{len(want)}d", *want)
    # most of a 3-D row is +0.0 outside the Huygens band
    assert len(want) < 0.7 * traces.values.size


#: rows with -0.0, all zeros, a trailing zero run, no zeros, and zero runs
#: at the start and in the middle
ZERO_RUN_ROWS = [
    [-0.0, 0.0, 0.0, 1.5, -0.0, 0.0],
    [0.0] * 6,
    [1.0, -2.5e-300, 0.0, 0.0, 0.0, 0.0],
    [0.1, -1e300, 5e-324, 3.0, -7.25, 1.0 / 3.0],
    [0.0, 0.0, 2.0, 0.0, 0.0, 1e-17],
]


def test_trace_rows_with_zero_runs_read_back_bit_exact(tmp_path, unit_disk):
    """Signed zeros and runs of zeros, which a writer that skips zeros must
    keep apart, give each row's span from its first to its last value that
    is not +0.0, and read back to the bit."""
    bq = boundary_quadrature(unit_disk, 8)
    values = np.zeros((len(bq), 6))
    values[: len(ZERO_RUN_ROWS)] = ZERO_RUN_ROWS
    params = SolverParams().resolved(t_scale=1.0)
    traces = TraceGrid(unit_disk, bq, TimeGrid(t_max=1.0, nt=6), values, params)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces)
    rows = _node_rows(_split(path)[0])
    ends = [tuple(int(v) for v in row.split(",")[-2:]) for row in rows]
    assert ends[: len(ZERO_RUN_ROWS)] == [(0, 5), (6, 6), (0, 2), (0, 6), (2, 6)]
    assert ends[len(ZERO_RUN_ROWS) :] == [(6, 6)] * (len(bq) - len(ZERO_RUN_ROWS))
    back = read_trace_file(path)
    assert back.values.tobytes() == values.tobytes()


#: rows of each case, repeated over the nodes: +0.0 only; -0.0 at the row
#: ends and inside the +0.0 runs; +0.0 inside the span; no zero; nt = 2
WRITER_ROWS = {
    "all-plus-zero": [[0.0] * 6],
    "minus-zero-at-and-inside-the-run-ends": [
        [-0.0, 0.0, 0.0, 1.5, 0.0, -0.0],
        [0.0, -0.0, 0.0, 2.0, -0.0, 0.0],
        [0.0, 0.0, -0.0, 0.0, 0.0, 0.0],
        [-0.0] * 6,
    ],
    "plus-zero-inside-the-span": [
        [0.0, 1.0, 0.0, 0.0, -3.0, 0.0],
        [2.0, 0.0, 0.0, 0.0, 0.0, 5e-324],
    ],
    "no-zero": [[0.1, -1e300, 5e-324, 3.0, -7.25, 1.0 / 3.0]],
    "nt-2": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [2.5, -1.0]],
}


@pytest.mark.parametrize("case", list(WRITER_ROWS))
def test_trace_file_bytes_equal_the_per_value_writer(tmp_path, unit_disk, case):
    """Spans found by masks and written from the buffer of the values give
    the bytes of the writer that scans each row and packs every value on its
    own, and read back to the bit."""
    bq = boundary_quadrature(unit_disk, 8)
    rows = WRITER_ROWS[case]
    values = np.array([rows[j % len(rows)] for j in range(len(bq))])
    times = TimeGrid(t_max=1.0, nt=values.shape[1])
    traces = TraceGrid(unit_disk, bq, times, values, SolverParams().resolved(t_scale=1.0))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trace_file(got, traces)
    write_trace_file_per_value(want, traces)
    assert got.read_bytes() == want.read_bytes()
    assert read_trace_file(got).values.tobytes() == values.tobytes()


def test_simulated_trace_files_equal_the_per_value_writer(tmp_path, bump3d, unit_ball):
    ellipse_bump = Phantom((Bump(center=(0.2, -0.1), radius=0.3),))
    for traces in (
        _small_traces(bump3d, unit_ball),
        _small_traces(ellipse_bump, ellipsoid((0.0, 0.0), (1.5, 1.0))),
    ):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trace_file(got, traces, timestamp="2026-01-02T03:04:05+00:00")
        write_trace_file_per_value(want, traces, timestamp="2026-01-02T03:04:05+00:00")
        assert got.read_bytes() == want.read_bytes()
        assert np.count_nonzero(traces.values == 0.0) > 0.3 * traces.values.size


def test_a_lossy_format_changes_the_node_rows_read_back(tmp_path, monkeypatch, bump3d, unit_ball):
    """The floats of the header and the node columns go through ``_fmt``,
    whose body is the one ``"%.17g" % x`` of the module.  A lossy ``_fmt``
    changes the node rows, and the nodes read back are not the nodes
    written, so a bit-exact round-trip check of the nodes sees it; the
    trace values do not go through it."""
    source = Path(forward.__file__).read_text()
    assert len(re.findall(r'"%\.17g" % x', source)) == 1
    traces = _small_traces(bump3d, unit_ball)
    exact, lossy = tmp_path / "exact.csv", tmp_path / "lossy.csv"
    write_trace_file(exact, traces)
    monkeypatch.setattr(forward, "_fmt", lambda x: "%.12g" % x)
    write_trace_file(lossy, traces)
    monkeypatch.undo()
    assert _node_rows(_split(exact)[0]) != _node_rows(_split(lossy)[0])
    _assert_same_traces(read_trace_file(exact), traces)
    back = read_trace_file(lossy)
    assert not np.array_equal(back.boundary.points, traces.boundary.points)
    np.testing.assert_array_equal(back.values, traces.values)


def _rewrite_payload(path, edit):
    lines, payload = _split(path)
    _join(path, lines, edit(payload))


def test_a_float32_payload_is_seen_in_the_values_read_back(tmp_path, bump3d, unit_ball):
    """Span values kept only to float32 read back as values that are not
    the traces; packed as 4-byte values, the same spans are a short payload."""
    traces = _small_traces(bump3d, unit_ball)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces)
    spans = np.frombuffer(_split(path)[1], dtype="<f8")
    _rewrite_payload(path, lambda _: spans.astype("<f4").astype("<f8").tobytes())
    back = read_trace_file(path)
    assert not np.array_equal(back.values, traces.values)
    np.testing.assert_array_equal(back.values, traces.values.astype(np.float32))
    _rewrite_payload(path, lambda _: spans.astype("<f4").tobytes())
    with pytest.raises(InsufficientDataError, match="time samples"):
        read_trace_file(path)


@pytest.mark.parametrize("byte", [0, 7, -1])
def test_a_flipped_payload_byte_is_seen_in_the_values_read_back(
    tmp_path, bump3d, unit_ball, byte
):
    traces = _small_traces(bump3d, unit_ball)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces)

    def flip(payload):
        edited = bytearray(payload)
        edited[byte] ^= 0x10
        return bytes(edited)

    _rewrite_payload(path, flip)
    back = read_trace_file(path)
    assert np.count_nonzero(back.values != traces.values) == 1


def test_trace_file_rejects_foreign_content(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("node,time,value\n0,0,0.0\n")
    with pytest.raises(TraceFormatError, match="unsupported trace format"):
        read_trace_file(path)


def _format_4_text(traces):
    """A format-4 file of ``traces``: the same header lines and one text row
    per node holding every trace value, no spans and no payload."""
    b = traces.boundary
    block = np.column_stack([b.points, b.normals, b.weights, traces.values])
    return [",".join("%.17g" % v for v in row) for row in block.tolist()]


@pytest.mark.parametrize(
    "tag, extra",
    [
        ("neumann-trace/1", None),
        # stencil traces and the normal-step header lines
        ("neumann-trace/2", "# solver.h_nu = 0.001"),
        # 2-D means over a uniform rule and its size
        ("neumann-trace/3", "# solver.mean_res = 32"),
        # every trace value as text in its node's row
        ("neumann-trace/4", None),
    ],
)
def test_trace_file_rejects_earlier_format_tags(tmp_path, bump3d, unit_ball, tag, extra):
    """Files of earlier formats are refused by their tag, with the format
    that is read named."""
    traces = _small_traces(bump3d, unit_ball)
    path = tmp_path / "traces.csv"
    write_trace_file(path, traces)
    lines = [l for l in _split(path)[0] if not l.startswith("# columns: ")]
    header = [l for l in lines if l.startswith("#")]
    header[0] = f"# {tag}"
    if extra:
        header.insert(1, extra)
    path.write_text("\n".join(header + _format_4_text(traces)) + "\n")
    with pytest.raises(TraceFormatError, match=f"expected '# neumann-trace/5'"):
        read_trace_file(path)


def _edit_row(path, index, edit):
    lines, payload = _split(path)
    rows = [i for i, l in enumerate(lines) if not l.startswith("#")]
    lines[rows[index]] = edit(lines[rows[index]])
    _join(path, lines, payload)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row + ",0.5", "malformed"),
        (lambda row: row.replace(",", ",abc,", 1).rsplit(",", 1)[0], "malformed"),
        (lambda row: row.replace(",", ",,", 1).rsplit(",", 1)[0], "malformed"),
        (lambda row: row.rsplit(",", 1)[0], "malformed"),
    ],
    ids=["ragged", "non-numeric", "empty-field", "short"],
)
def test_trace_file_malformed_row(tmp_path, bump3d, unit_ball, edit, message):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    _edit_row(path, 3, edit)
    with pytest.raises(TraceFormatError, match=message):
        read_trace_file(path)


def test_trace_file_rejects_node_rows_of_the_wrong_width(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    for j in range(len(_node_rows(_split(path)[0]))):
        _edit_row(path, j, lambda row: row + ",0")
    with pytest.raises(TraceFormatError, match="have 10 values, expected 9"):
        read_trace_file(path)


@pytest.mark.parametrize(
    "span",
    [(5, 4), (0, 13), (-1, 4), (2.5, 4), (2, 4.5), ("nan", 4)],
    ids=["first-after-end", "end-after-nt", "negative", "first-non-integer", "end-non-integer",
         "nan"],
)
def test_trace_file_rejects_a_bad_span(tmp_path, bump3d, unit_ball, span):
    """A span that is not integers with 0 <= first <= end <= nt is refused,
    whatever the payload, before any of it is read."""
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    _edit_row(path, 3, lambda row: ",".join(row.split(",")[:-2] + [str(v) for v in span]))
    with pytest.raises(TraceFormatError, match="node row 3 has the span"):
        read_trace_file(path)


def test_trace_file_payload_one_value_short_or_long(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    lines, payload = _split(path)
    _join(path, lines, payload[:-8])
    with pytest.raises(InsufficientDataError, match="time samples"):
        read_trace_file(path)
    _join(path, lines, payload + payload[-8:])
    with pytest.raises(TraceFormatError, match="payload"):
        read_trace_file(path)


def test_trace_file_rejects_a_time_grid_too_large_to_allocate(tmp_path, unit_ball):
    """Rows of +0.0 only take no payload bytes, so a header can claim any
    time.nt; one too large to allocate is refused as a format error."""
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(Phantom(()), unit_ball))
    lines, payload = _split(path)
    huge = 10**13
    lines = [l.replace(",12,12", f",{huge},{huge}") for l in lines]
    lines = [f"# time.nt = {huge}" if l.startswith("# time.nt = ") else l for l in lines]
    rows = _node_rows(lines)
    assert payload == b"" and all(r.endswith(f",{huge},{huge}") for r in rows)
    _join(path, lines, payload)
    with pytest.raises(TraceFormatError, match="more than can be allocated"):
        read_trace_file(path)


def test_trace_file_rejects_extra_node_rows(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    lines, payload = _split(path)
    _join(path, lines + lines[-1:], payload)
    with pytest.raises(TraceFormatError, match="node rows"):
        read_trace_file(path)


def test_trace_file_missing_node_rows(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    lines, payload = _split(path)
    _join(path, lines[:-3], payload)
    with pytest.raises(InsufficientDataError, match="node rows"):
        read_trace_file(path)


def test_trace_file_missing_header_key(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    lines, payload = _split(path)
    _join(path, [l for l in lines if not l.startswith("# time.nt")], payload)
    with pytest.raises(TraceFormatError, match="missing 'time.nt'"):
        read_trace_file(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("time.nt", "forty"),
        ("nodes", "1.5"),
        ("domain.center", "0, zero, 0"),
        ("time.t_max", "soon"),
        ("solver.h_t", ""),
    ],
    ids=["int", "int-non-integer", "float-list", "float", "float-empty"],
)
def test_trace_file_rejects_a_header_value_that_does_not_parse(
    tmp_path, bump3d, unit_ball, key, value
):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    lines, payload = _split(path)
    lines = [f"# {key} = {value}" if l.startswith(f"# {key} = ") else l for l in lines]
    _join(path, lines, payload)
    with pytest.raises(TraceFormatError, match=f"'{key}' has a malformed value"):
        read_trace_file(path)


def test_a_superellipse_trace_header_needs_its_exponent(tmp_path):
    """A superellipse header without ``domain.exponent`` is refused with the
    key named, not read back as the p = 2 of an ellipse."""
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(Phantom(()), superellipse((0.0, 0.0), (1.2, 0.9), 4.0)))
    lines, payload = _split(path)
    _join(path, [l for l in lines if not l.startswith("# domain.exponent")], payload)
    with pytest.raises(TraceFormatError, match="missing 'domain.exponent'"):
        read_trace_file(path)


def test_trace_file_truncated_in_the_payload(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    raw = path.read_bytes()
    path.write_bytes(raw[:-43])
    with pytest.raises(InsufficientDataError, match="6 of the"):
        read_trace_file(path)


def test_trace_file_truncated_before_the_payload(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    raw = path.read_bytes()
    path.write_bytes(raw[: raw.index(PAYLOAD_MARKER) + 5])
    with pytest.raises(TraceFormatError, match="no '# payload = <f8' line"):
        read_trace_file(path)


def test_trace_file_rejects_text_that_is_not_ascii(tmp_path, bump3d, unit_ball):
    path = tmp_path / "traces.csv"
    write_trace_file(path, _small_traces(bump3d, unit_ball))
    lines, payload = _split(path)
    _join(path, [lines[0], "# note = été", *lines[1:]], payload)
    with pytest.raises(TraceFormatError, match="not ASCII"):
        read_trace_file(path)


def test_trace_grid_shape_validation(bump3d, unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    with pytest.raises(ValueError, match="shape"):
        TraceGrid(
            domain=unit_ball,
            boundary=bq,
            times=TimeGrid(t_max=3.0, nt=12),
            values=np.zeros((5, 12)),
            params=SolverParams(),
        )


def test_phantom_hash_distinguishes_phantoms(bump3d):
    h = phantom_hash(bump3d)
    assert h.startswith("sha256:") and len(h) == len("sha256:") + 16
    assert h == phantom_hash(bump3d)
    other = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.36),))
    assert phantom_hash(other) != h
