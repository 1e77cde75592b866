"""Cross-checks of the certification module itself."""

import math

import numpy as np
import pytest

from neutrace import validation
from neutrace.calculus import stencil_derivative
from neutrace.cli import _lemma_field
from neutrace.forward import SolverParams
from neutrace.geometry import boundary_quadrature
from neutrace.transforms import Bump, Phantom, bump_radial
from neutrace.validation import (
    _PRIMITIVE_CELLS,
    IdentityReport,
    _cinf_primitive,
    _radial_primitive,
    check_even_equivalence,
    check_integral_identity,
    check_lemma_coefficients,
    check_lemma_symbolic,
    check_mollifier,
    phantom_pressure,
    phantom_velocity,
    radial_pressure,
    radial_velocity,
)

from _oracles import (
    GOMPERTZ,
    assert_same_bits,
    cinf_primitive_plain,
    ball_profile_per_call,
    cinf_primitive_closed,
    cinf_table_bound,
    integral_identity_pressure_then_velocity,
    integral_identity_terms_ungated,
    phantom_pressure_full_broadcast,
    radial_pressure_ungated,
    radial_velocity_two_lookups,
    radial_velocity_ungated,
    sections_field_3d,
    times_velocity_per_pair,
    velocity_route_tolerance,
)


def quadratic_field(pts):
    pts = np.asarray(pts)
    x, y = pts[..., 0], pts[..., 1]
    return 1.0 + 0.5 * x - 0.25 * y + 0.3 * x * x + 0.1 * x * y


# ---------------------------------------------------------------------------
# reports


def test_identity_report_residuals():
    r = IdentityReport("demo", 2.0, 1.5)
    assert r.abs_residual == pytest.approx(0.5)
    assert r.rel_residual == pytest.approx(0.25)
    # the relative denominator is floored so exact-zero identities stay finite
    tiny = IdentityReport("demo", 1e-20, 0.0)
    assert tiny.rel_residual == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# closed radial fields


def test_radial_pressure_matches_the_quadrature_solver():
    b = Bump(center=(0.0, 0.0, 0.0), radius=0.5)
    f = Phantom((b,))
    params = SolverParams().resolved(t_scale=1.0)
    for d, t in ((0.2, 0.2), (0.0, 0.3)):
        closed = float(radial_pressure(b, d, t))
        quad = sections_field_3d(f, np.array([[d, 0.0, 0.0]]), np.array([t]), params, 32)[0, 0]
        assert closed == pytest.approx(quad, abs=1e-7)


def test_radial_pressure_is_continuous_at_the_center():
    b = Bump(center=(0.0, 0.0, 0.0), radius=0.5)
    at_zero = float(radial_pressure(b, 0.0, 0.3))
    near_zero = float(radial_pressure(b, 1e-6, 0.3))
    assert at_zero == pytest.approx(near_zero, abs=1e-9)


_PRESSURE_BUMPS = [
    Bump(center=(0.0, 0.0, 0.0), radius=0.5),
    Bump(center=(0.0, 0.0, 0.0), radius=0.375, amplitude=-0.8, profile="poly", mu=3),
]


@pytest.mark.parametrize("bump", _PRESSURE_BUMPS, ids=["cinf", "poly-negative"])
def test_radial_pressure_equals_the_ungated_limit(bump):
    """The d -> 0 limit, evaluated only where d < 1e-8 radius, leaves every
    value bitwise where evaluating it everywhere and selecting puts it."""
    cut = 1e-8 * bump.radius
    d = np.concatenate(
        [[0.0, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0), 1e-6], np.arange(17) / 16.0]
    )
    t = np.arange(41) / 32.0
    got = radial_pressure(bump, d[:, None], t)
    want = radial_pressure_ungated(bump, d[:, None], t)
    assert got.shape == want.shape == (d.size, t.size)
    assert np.array_equal(got, want)
    # both sides of the cutoff are exercised, and the limit is not trivially zero
    assert np.any(d < cut) and np.any(d >= cut)
    assert np.any(got[d < cut] != 0.0)
    for dd, tt in ((0.0, 0.3), (np.nextafter(cut, 0.0), 0.2), (cut, 0.2), (0.25, 0.3125)):
        one = radial_pressure(bump, dd, tt)
        assert np.ndim(one) == 0
        assert one == radial_pressure_ungated(bump, dd, tt)
    assert radial_pressure(bump, np.empty(0), np.empty(0)).shape == (0,)
    assert radial_pressure(bump, np.empty(0), 0.3).shape == (0,)


def test_velocity_field_integrates_the_pressure():
    """d/dt of the (0, b)-data solution is the (b, 0)-data solution."""
    b = Bump(center=(0.0, 0.0, 0.0), radius=0.35)
    for d, t in ((0.2, 0.25), (0.1, 0.15)):
        dv = stencil_derivative(lambda tt: float(radial_velocity(b, d, tt)), t, 1e-3, 1)
        assert dv == pytest.approx(float(radial_pressure(b, d, t)), abs=1e-8)


# dyadic radius and grids, so that |t - d| = radius holds exactly at some entries
_VELOCITY_BUMPS = [
    Bump(center=(0.0, 0.0, 0.0), radius=0.375),
    Bump(center=(0.0, 0.0, 0.0), radius=0.375, amplitude=-0.8, profile="poly", mu=3),
]
_D_GRID = np.arange(17) / 16.0
_T_GRID = np.arange(49) / 32.0


@pytest.mark.parametrize("bump", _VELOCITY_BUMPS, ids=["cinf", "poly-negative"])
def test_radial_velocity_is_odd_in_time(bump):
    """v(d, -t) is -v(d, t) bit for bit, -0.0 included, on both sides of the
    small-d cutoff, paired, broadcast and at one point."""
    cut = 1e-8 * bump.radius
    d = np.concatenate([[0.0, 1e-3 * cut, np.nextafter(cut, 0.0), cut, 1e-6], _D_GRID])
    t = np.concatenate([[0.0, 1e-12], _T_GRID])
    got = radial_velocity(bump, d[:, None], -t)
    assert_same_bits(got, -radial_velocity(bump, d[:, None], t))
    assert np.any(got[d < cut] != 0.0) and np.any(got[d >= cut] != 0.0)
    for dd, tt in ((0.0, 0.1), (1e-6, 0.1), (0.25, 0.3125)):
        one = radial_velocity(bump, dd, -tt)
        assert isinstance(one, np.ndarray) and one.shape == ()
        assert_same_bits(one, -radial_velocity(bump, dd, tt))


def test_radial_velocity_is_continuous_at_the_center_at_negative_times():
    """At t < 0 the field nears its centre value t b(t), not the 0 that
    clipping t + d < 0 to the support would give."""
    b = Bump(center=(0.0, 0.0, 0.0), radius=0.3)
    centre = float(radial_velocity(b, 0.0, -0.1))
    assert centre == pytest.approx(-0.1 * float(bump_radial(b, 0.1, 3)), rel=1e-15)
    assert centre == pytest.approx(-0.0882497, abs=1e-7)
    for d in (1e-9, 1e-7, 1e-6):
        assert float(radial_velocity(b, d, -0.1)) == pytest.approx(centre, abs=1e-9)


def test_phantom_velocity_is_odd_in_time():
    f = Phantom(
        (
            Bump(center=(0.1, 0.0, 0.0), radius=0.3),
            Bump(center=(-0.2, 0.1, 0.0), radius=0.25, amplitude=-0.5, profile="poly", mu=3),
        )
    )
    rng = np.random.default_rng(7)
    pts = np.concatenate([[[0.1, 0.0, 0.0]], rng.uniform(-0.5, 0.5, size=(8, 3))])[:, None, :]
    t = np.linspace(-0.9, 0.9, 19)
    got = phantom_velocity(f, pts, t)
    assert_same_bits(phantom_velocity(f, pts, -t), -got)
    assert np.any(got[:, t < 0.0] != 0.0)
    live = rng.random(got.shape) < 0.5
    assert_same_bits(phantom_velocity(f, pts, t, live=live), got[live])


def test_closed_fields_reject_negative_distances():
    """A negative d is not a distance: it is rejected, not taken as the
    centre; -0.0 is the centre."""
    b = Bump(center=(0.0, 0.0, 0.0), radius=0.3)
    for field in (radial_pressure, radial_velocity):
        for d, t in ((-0.1, 0.15), (np.array([0.2, -1e-300, 0.1]), 0.15)):
            with pytest.raises(ValueError, match="distances must be nonnegative"):
                field(b, d, t)
        assert_same_bits(field(b, -0.0, 0.15), field(b, 0.0, 0.15))


@pytest.mark.parametrize("bump", _VELOCITY_BUMPS, ids=["cinf", "poly-negative"])
def test_radial_velocity_vanishes_outside_the_light_shell(bump):
    d, t = np.meshgrid(_D_GRID, _T_GRID, indexing="ij")
    v = radial_velocity(bump, d, t)
    outside = np.abs(t - d) >= bump.radius
    assert outside.any() and (~outside).any()
    assert np.all(v[outside] == 0.0)
    assert np.count_nonzero(v[~outside]) > 0.9 * np.count_nonzero(~outside)


@pytest.mark.parametrize("bump", _VELOCITY_BUMPS, ids=["cinf", "poly-negative"])
def test_radial_velocity_equals_the_ungated_quadrature(bump):
    """The closed primitive and the 48-node quadrature of rho b(rho) agree
    within the bound derived from both routes' errors; at the centre, where
    both return t b(t), the bound is 0."""
    d, t = np.meshgrid(_D_GRID, _T_GRID, indexing="ij")
    assert np.any(d == 0.0) and np.any(t == d) and np.any(np.abs(t - d) == bump.radius)
    got = radial_velocity(bump, d, t)
    want = radial_velocity_ungated(bump, d, t)
    tol = velocity_route_tolerance(bump, d, t)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol)
    assert np.all(tol[d == 0.0] == 0.0)
    # broadcasting a column of distances against a row of times
    assert np.all(radial_velocity(bump, _D_GRID[:, None], _T_GRID) == got)
    for dd, tt in ((0.25, 0.3125), (0.0, 0.125), (0.875, 0.125), (1e-9, 0.2), (1e-5, 0.2)):
        one = radial_velocity(bump, dd, tt)
        assert np.ndim(one) == 0
        assert abs(one - radial_velocity_ungated(bump, dd, tt)) <= velocity_route_tolerance(bump, dd, tt)
    assert radial_velocity(bump, np.empty(0), np.empty(0)).shape == (0,)


# ---------------------------------------------------------------------------
# closed primitives behind the velocity field


def test_cinf_primitive_endpoints():
    """E(0) = 0 exactly, and E(1) = 1 - delta with delta = e E_1(1) the
    Gompertz constant."""
    assert _cinf_primitive(0.0) == 0.0
    assert abs(_cinf_primitive(1.0) - (1.0 - GOMPERTZ)) <= cinf_table_bound()


def test_cinf_primitive_matches_the_exponential_integral():
    u = np.concatenate([np.linspace(0.0, 1.0, 2001), np.random.default_rng(7).random(500)])
    got = _cinf_primitive(u)
    assert got.shape == u.shape
    # the continued fraction adds at most a few ulps of E(1) < 1
    np.testing.assert_array_less(np.abs(got - cinf_primitive_closed(u)), cinf_table_bound() + 1e-15)


def test_cinf_primitive_derivative_is_the_profile():
    """A central difference of E with step s is E' = exp(1 - 1/(1 - u)) up
    to s^2 / 6 max|E'''|, the table bound divided by s, and the rounding of
    u -+ s (eps / s, as E' <= 1)."""
    step = 1e-5
    g = np.linspace(1.0, 80.0, 400001)
    third = float(np.max(np.abs((g**4 - 2.0 * g**3) * np.exp(1.0 - g))))  # E''' in g = 1/(1-u)
    tol = step**2 / 6.0 * third + (cinf_table_bound() + np.finfo(float).eps) / step
    u = np.linspace(0.002, 0.998, 499)
    fd = (_cinf_primitive(u + step) - _cinf_primitive(u - step)) / (2.0 * step)
    np.testing.assert_array_less(np.abs(fd - np.exp(1.0 - 1.0 / (1.0 - u))), tol)


def test_cinf_primitive_keeps_the_bits_of_the_plain_formula():
    """The lookup with reused temporaries gives the bits of the one-line
    formula, at the table nodes, at both ends, at -0.0, and for a scalar,
    an empty array and a 2-D array."""
    u = np.concatenate(
        [np.arange(_PRIMITIVE_CELLS + 1) / _PRIMITIVE_CELLS, np.random.default_rng(3).random(4000),
         [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324]]
    )
    assert_same_bits(_cinf_primitive(u), cinf_primitive_plain(u))
    assert_same_bits(_cinf_primitive(u[:60].reshape(6, 10)), cinf_primitive_plain(u[:60].reshape(6, 10)))
    assert_same_bits(_cinf_primitive(u[:0]), cinf_primitive_plain(u[:0]))
    for x in (0.0, -0.0, 0.37, 1.0):
        got, want = _cinf_primitive(x), cinf_primitive_plain(x)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_cinf_primitive_rejects_out_of_range_queries():
    for bad in (-1e-12, 1.0 + 1e-12, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _cinf_primitive(np.array([0.5, bad]))


@pytest.mark.parametrize("mu", [1, 2, 3, 4])
def test_poly_radial_primitive_matches_quadrature(mu):
    """G(rho) against a 64-node Gauss-Legendre sum of s b(s) over (0, rho),
    exact for the degree 2 mu + 1 integrand, so the two differ by the
    rounding of that 64-term sum: at most 64 eps times the largest |G|."""
    bump = Bump(center=(0.0, 0.0, 0.0), radius=0.375, amplitude=-0.8, profile="poly", mu=mu)
    x, w = np.polynomial.legendre.leggauss(64)
    rho = np.linspace(0.0, bump.radius, 31)
    s = 0.5 * rho[:, None] * (1.0 + x)
    want = 0.5 * rho * np.sum(w * s * bump_radial(bump, s, 3), axis=-1)
    scale = float(np.max(np.abs(want)))
    assert scale > 0.0
    np.testing.assert_allclose(_radial_primitive(bump, rho), want, rtol=0.0, atol=64 * np.finfo(float).eps * scale)
    assert _radial_primitive(bump, 0.0) == 0.0


def test_cinf_radial_primitive_scales_the_shared_table():
    """For a cinf bump G(rho) = A radius^2 / 2 E(rho^2 / radius^2)."""
    bump = Bump(center=(0.0, 0.0, 0.0), radius=0.4, amplitude=-0.6)
    rho = np.linspace(0.0, bump.radius, 41)
    want = -0.6 * 0.4**2 / 2.0 * cinf_primitive_closed((rho / 0.4) ** 2)
    np.testing.assert_allclose(
        _radial_primitive(bump, rho), want, rtol=0.0, atol=0.6 * 0.4**2 / 2.0 * (cinf_table_bound() + 1e-15)
    )


def test_phantom_fields_superpose():
    b1 = Bump(center=(0.1, 0.0, 0.0), radius=0.3)
    b2 = Bump(center=(-0.2, 0.1, 0.0), radius=0.25, amplitude=-0.5)
    f = Phantom((b1, b2))
    pts = np.array([[0.05, 0.02, -0.1], [0.3, 0.0, 0.0]])
    t = np.array([0.2, 0.4])
    for field, single in ((phantom_pressure, radial_pressure), (phantom_velocity, radial_velocity)):
        combined = field(f, pts, t)
        manual = sum(
            single(b, np.sqrt(np.sum((pts - np.asarray(b.center)) ** 2, axis=-1)), t)
            for b in (b1, b2)
        )
        np.testing.assert_allclose(combined, manual, atol=1e-14)


def test_phantom_velocity_at_live_entries_keeps_the_bits():
    f = Phantom(
        (
            Bump(center=(0.1, 0.0, 0.0), radius=0.3),
            Bump(center=(-0.2, 0.1, 0.0), radius=0.25, amplitude=-0.5, profile="poly", mu=3),
        )
    )
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(6, 3, 1, 3))
    t = np.linspace(0.0, 0.9, 11)
    live = rng.random((6, 3, 11)) < 0.4
    got = phantom_velocity(f, pts, t, live=live)
    np.testing.assert_array_equal(got, phantom_velocity(f, pts, t)[live])
    assert got.shape == (np.count_nonzero(live),)


# ---------------------------------------------------------------------------
# integral identity


def test_integral_identity_rejects_bad_input(unit_disk, unit_ball):
    f = Phantom((Bump(center=(0.0, 0.0), radius=0.3),))
    with pytest.raises(ValueError, match="dimension 3"):
        check_integral_identity(f, f, unit_disk)
    leak = Phantom((Bump(center=(0.8, 0.0, 0.0), radius=0.3),))
    ok = Phantom((Bump(center=(0.0, 0.0, 0.0), radius=0.3),))
    with pytest.raises(ValueError, match="reaches the boundary"):
        check_integral_identity(leak, ok, unit_ball)
    with pytest.raises(ValueError, match="reaches the boundary"):
        check_integral_identity(ok, leak, unit_ball)


def test_integral_identity_empty_side_is_exact(unit_ball, bump3d):
    report = check_integral_identity(bump3d, Phantom(()), unit_ball)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.params["horizon"] == 0.0


def test_integral_identity_disjoint_supports(unit_ball):
    f = Phantom((Bump(center=(0.4, 0.0, 0.0), radius=0.2),))
    g = Phantom((Bump(center=(-0.4, 0.0, 0.0), radius=0.2),))
    report = check_integral_identity(f, g, unit_ball)
    assert report.lhs == 0.0
    assert abs(report.rhs) <= 5e-4


def test_integral_identity_overlapping_supports(unit_ball):
    f = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
    g = Phantom((Bump(center=(-0.05, 0.1, 0.0), radius=0.4),))
    report = check_integral_identity(f, g, unit_ball)
    assert report.lhs != 0.0
    assert report.rel_residual <= 2e-2


def test_integral_identity_terms_ignore_the_quadrature_phase(unit_ball):
    f = Phantom((Bump(center=(0.0, 0.0, 0.0), radius=0.35),))
    g = Phantom((Bump(center=(0.0, 0.0, 0.0), radius=0.45),))
    base = check_integral_identity(f, g, unit_ball)
    turned = check_integral_identity(f, g, unit_ball, phase=0.37)
    assert base.params["term_boundary"] == pytest.approx(
        turned.params["term_boundary"], abs=1e-8
    )
    assert base.params["term_volume"] == pytest.approx(
        turned.params["term_volume"], abs=1e-8
    )


# the phantoms of acceptance criterion 05, and a g whose second bump has a
# negative amplitude and overlaps both
_CRIT05_F = Phantom((Bump(center=(0.1, 0.0, 0.0), radius=0.35),))
_CRIT05_G = Phantom((Bump(center=(-0.05, 0.1, 0.0), radius=0.4),))
_TWO_BUMP_G = Phantom(
    (
        Bump(center=(-0.05, 0.1, 0.0), radius=0.4),
        Bump(center=(0.3, -0.2, 0.1), radius=0.25, amplitude=-0.6),
    )
)


@pytest.mark.parametrize(
    "g, phase",
    [(_CRIT05_G, 0.0), (_CRIT05_G, 0.37), (_TWO_BUMP_G, 0.0)],
    ids=["criterion-05", "phase-0.37", "two-bump-g"],
)
def test_integral_identity_equals_the_ungated_terms(unit_ball, g, phase):
    """The gated closed-primitive velocity gives both terms of the ungated
    quadrature route within the bounds that route carries, the product
    integral is untouched, and the report counts the velocity values
    evaluated against the (point, time) pairs."""
    report = check_integral_identity(_CRIT05_F, g, unit_ball, phase=phase)
    full = integral_identity_terms_ungated(_CRIT05_F, g, unit_ball, phase=phase)
    assert report.lhs == full["lhs"]
    p = report.params
    assert abs(p["term_boundary"] - full["term_boundary"]) <= full["bound_boundary"]
    assert abs(p["term_volume"] - full["term_volume"]) <= full["bound_volume"]
    # the difference of the two terms adds one rounding
    rounding = np.finfo(float).eps * (abs(full["term_boundary"]) + abs(full["term_volume"]))
    assert abs(report.rhs - full["rhs"]) <= full["bound_boundary"] + full["bound_volume"] + rounding

    m_rad, m_pol, m_azi = p["volume_rule"]
    nodes = boundary_quadrature(unit_ball, p["boundary_res"]).points.shape[0]
    assert p["velocity_pairs"] == (nodes + 7 * m_rad * m_pol * m_azi) * p["time_nodes"]
    assert p["velocity_evaluated"] == full["weights_nonzero"]
    assert 0 < p["velocity_evaluated"] < p["velocity_pairs"]


_IDENTITY_KEYS = ("lhs", "rhs", "term_boundary", "term_volume", "velocity_evaluated", "velocity_pairs")


def _identity_bits(terms):
    """Both sides, terms and counts of the integral identity, floats as hex."""
    if isinstance(terms, IdentityReport):
        terms = {"lhs": terms.lhs, "rhs": terms.rhs, **terms.params}
    return [v.hex() if isinstance(v, float) else v for v in (terms[k] for k in _IDENTITY_KEYS)]


@pytest.mark.parametrize("g", [_CRIT05_G, _TWO_BUMP_G], ids=["criterion-05", "two-bump-g"])
def test_integral_identity_equals_the_per_pair_velocity_gather(unit_ball, g):
    """One distance per stencil point, gathered on the band, reports the
    bits of the per-pair 3-vector gather."""
    got = check_integral_identity(_CRIT05_F, g, unit_ball)
    want = integral_identity_pressure_then_velocity(
        _CRIT05_F, g, unit_ball, times_velocity=times_velocity_per_pair
    )
    assert _identity_bits(got) == _identity_bits(want)


# f with a second, negative bump that overlaps the first
_TWO_BUMP_F = Phantom(
    (
        Bump(center=(0.1, 0.0, 0.0), radius=0.35),
        Bump(center=(-0.15, -0.1, 0.05), radius=0.3, amplitude=-0.7, profile="poly", mu=3),
    )
)


@pytest.mark.parametrize(
    "f, g, level, phase",
    [
        (_CRIT05_F, _CRIT05_G, 0, 0.0),
        (_CRIT05_F, _CRIT05_G, 1, 0.0),
        (_CRIT05_F, _CRIT05_G, 0, 0.37),
        (_TWO_BUMP_F, _TWO_BUMP_G, 0, 0.0),
        (_TWO_BUMP_F, _TWO_BUMP_G, 0, 0.37),
    ],
    ids=["criterion-05", "level-1", "phase-0.37", "two-bump-f-and-g", "two-bump-phase-0.37"],
)
def test_integral_identity_equals_the_pressure_then_velocity_route(unit_ball, f, g, level, phase):
    """Both fields taken on one band of f report the bits, terms and counts
    of the pressure scattered into zeros and then the masked velocity
    product."""
    got = check_integral_identity(f, g, unit_ball, level=level, phase=phase)
    want = integral_identity_pressure_then_velocity(f, g, unit_ball, level=level, phase=phase)
    assert _identity_bits(got) == _identity_bits(want)
    assert 0 < got.params["velocity_evaluated"] < got.params["velocity_pairs"]


# ---------------------------------------------------------------------------
# the closed fields on their Huygens band

_POLY_MU3 = Phantom((Bump(center=(0.05, -0.1, 0.2), radius=0.3, amplitude=0.9, profile="poly", mu=3),))
_BAND_PHANTOMS = [_CRIT05_F, _CRIT05_G, _TWO_BUMP_G, _POLY_MU3]
_BAND_IDS = ["criterion-05-f", "criterion-05-g", "two-bump-g", "poly-mu3"]


def _band_edge_samples(f, seed):
    """Paired points and times around every bump of f: distances 0, in the
    small-d branch (below 1e-8 radius) and spread over the domain; for each,
    the times d -+ radius and d -+ radius (1 -+ 1e-6) with their
    floating-point neighbours (negative ones included), and a few more."""
    rng = np.random.default_rng(seed)
    pts, ts = [], []
    for b in f.bumps:
        c, eps = np.asarray(b.center), b.radius
        for dist in np.concatenate([[0.0, 1e-10 * eps, 5e-9 * eps], rng.uniform(0.0, 1.2, 13)]):
            u = rng.normal(size=3)
            x = c + dist * u / np.linalg.norm(u)
            d = float(np.sqrt(np.sum((x - c) ** 2)))
            edges = np.array([d + s * eps * m for s in (-1.0, 1.0) for m in (1.0, 1.0 - 1e-6, 1.0 + 1e-6)])
            times = np.concatenate(
                [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), np.linspace(0.0, 1.6, 9)]
            )
            pts.append(np.broadcast_to(x, (times.size, 3)))
            ts.append(times)
    return np.concatenate(pts), np.concatenate(ts)


@pytest.mark.parametrize("f", _BAND_PHANTOMS, ids=_BAND_IDS)
def test_closed_fields_on_the_band_keep_the_bits(f):
    """The pressure evaluated only on its band and the velocity with the
    primitive looked up only at the ends inside the support give the bits
    of the routes that evaluate every entry, at the band edges, in the
    small-d branch, paired and broadcast.  At negative times the velocity
    is the odd extension of that route's value at |t|."""
    pts, ts = _band_edge_samples(f, 3)
    got = phantom_pressure(f, pts, ts)
    np.testing.assert_array_equal(got, phantom_pressure_full_broadcast(f, pts, ts))
    assert np.any(got != 0.0) and np.any(got == 0.0)
    grid = phantom_pressure(f, pts[::5, None, :], ts[:60])
    np.testing.assert_array_equal(grid, phantom_pressure_full_broadcast(f, pts[::5, None, :], ts[:60]))
    for b in f.bumps:
        d = np.sqrt(np.sum((pts - np.asarray(b.center)) ** 2, axis=-1))
        assert np.any(d < 1e-8 * b.radius)
        vel = radial_velocity(b, d, ts)
        want = radial_velocity_two_lookups(b, d, np.abs(ts))
        assert_same_bits(vel, np.negative(want, out=want, where=np.signbit(ts)))
        assert np.any(vel != 0.0) and np.any(vel == 0.0)
        for dd, tt in ((0.0, 0.1), (d[-1], ts[-1]), (0.2, 0.2 + b.radius)):
            one = radial_velocity(b, dd, tt)
            assert np.ndim(one) == 0 and one == radial_velocity_two_lookups(b, dd, tt)
    assert phantom_pressure(f, np.empty((0, 3)), np.empty(0)).shape == (0,)


@pytest.mark.parametrize("f", _BAND_PHANTOMS, ids=_BAND_IDS)
def test_ungated_pressure_vanishes_off_the_band(f):
    """The premise of the gate: on a dense random sample of points and
    times, negative times included, each bump's field by the ungated route
    is exactly 0 wherever ||t| - d| >= radius, so also outside the band the
    gate evaluates, which is wider by 1e-6 radius."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, size=(1500, 1, 3))
    t = rng.uniform(-0.5, 2.5, size=301)
    for b in f.bumps:
        d = np.sqrt(np.sum((pts - np.asarray(b.center)) ** 2, axis=-1))
        off = np.abs(np.abs(t) - d) >= b.radius
        assert np.count_nonzero(off) > 0.5 * off.size and np.count_nonzero(~off) > 0.05 * off.size
        field = phantom_pressure_full_broadcast(Phantom((b,)), pts, t)
        assert np.all(field[off] == 0.0)
        assert np.count_nonzero(field[~off]) > 0.9 * np.count_nonzero(~off)


# ---------------------------------------------------------------------------
# reduction-lemma coefficients


def test_lemma_check_validation():
    g = quadratic_field
    with pytest.raises(ValueError, match="n in"):
        check_lemma_coefficients(4, (1,), g, (0.0, 0.0), 0.7)
    with pytest.raises(ValueError, match="k in"):
        check_lemma_coefficients(2, (3,), g, (0.0, 0.0), 0.7)
    with pytest.raises(ValueError, match="in \\(0, 2\\)"):
        check_lemma_coefficients(2, (1,), g, (0.0, 0.0), 2.5)


def test_lemma_constant_field_is_exact():
    g = lambda pts: np.full(np.asarray(pts).shape[:-1], 0.7)
    [report] = check_lemma_coefficients(2, (1,), g, (0.1, -0.2), 0.7)
    assert report.abs_residual <= 1e-6


@pytest.mark.parametrize(
    "n, k, bound",
    [(2, 1, 1e-6), (2, 2, 1e-4), (3, 1, 1e-6), (3, 2, 1e-4)],
)
def test_lemma_quadratic_field(n, k, bound):
    x = (0.1, -0.2, 0.05)[:n]
    [report] = check_lemma_coefficients(n, (k,), quadratic_field, x, 0.7)
    assert report.abs_residual <= bound


def test_lemma_bump_field_residual_shrinks_under_refinement(bump2d):
    [coarse] = check_lemma_coefficients(2, (1,), bump2d.eval, (0.1, 0.0), 0.7, level=0)
    [fine] = check_lemma_coefficients(2, (1,), bump2d.eval, (0.1, 0.0), 0.7, level=1)
    assert fine.abs_residual < coarse.abs_residual
    assert fine.abs_residual <= 1e-4


def _profile_points(n, m_phi, m_mean):
    """Sphere points of one ball profile: m_phi radii, each with the
    direction set of ``sphere_means`` (m_mean in 2-D, 2 m_mean^2 in 3-D)."""
    return m_phi * (m_mean if n == 2 else 2 * m_mean * m_mean)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k, lhs_profiles, profiles", [(1, 4, 9), (2, 16, 21)])
def test_lemma_check_evaluates_each_profile_once(n, k, lhs_profiles, profiles):
    """The nested lhs stencil needs 4 (k = 1) or 16 (k = 2) abscissae and
    the rhs derivatives of order 0..k share 5, so a field that counts its
    points sees each of those 9 or 21 profiles once, in cache-sized calls."""
    calls = []

    def g(pts):
        calls.append(np.asarray(pts).shape[:-1])
        return quadratic_field(pts)

    check_lemma_coefficients(n, (k,), g, (0.1, -0.2, 0.05)[:n], 0.7)
    assert lhs_profiles + 5 == profiles
    total = sum(math.prod(shape) for shape in calls)
    assert total == lhs_profiles * _profile_points(n, 40, 48) + 5 * _profile_points(n, 57, 57)
    assert max(math.prod(shape) for shape in calls) <= validation._PROFILE_BLOCK_POINTS


@pytest.mark.parametrize(
    "n, k, field, level",
    [
        (2, 1, "quadratic", 0),
        (2, 2, "quadratic", 0),
        (3, 1, "quadratic", 0),
        (3, 2, "quadratic", 0),
        (2, 1, "cli", 0),
        (3, 2, "cli", 0),
        (2, 1, "bump", 1),
        (2, 2, "bump", 1),
    ],
)
def test_lemma_check_equals_the_per_call_profile(monkeypatch, bump2d, n, k, field, level):
    """Each abscissa evaluated once in blocks gives the bits of the profile
    that re-evaluates every call in one sphere-means call."""
    g = {"quadratic": quadratic_field, "cli": _lemma_field(n), "bump": bump2d.eval}[field]
    x = (0.1, -0.2, 0.05)[:n]
    [got] = check_lemma_coefficients(n, (k,), g, x, 0.7, level=level)
    monkeypatch.setattr(validation, "_ball_profile", ball_profile_per_call)
    [want] = check_lemma_coefficients(n, (k,), g, x, 0.7, level=level)
    assert (got.lhs, got.rhs) == (want.lhs, want.rhs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ks", [(1, 2), (2, 1)])
def test_lemma_check_orders_share_their_profiles(n, ks):
    """One call for several orders reports, for each, the lhs, rhs and
    params of a call for that order alone, and evaluates the five rhs
    profiles once for all orders: 4 + 16 lhs and 5 rhs profiles."""
    calls = []

    def g(pts):
        calls.append(np.asarray(pts).shape[:-1])
        return _lemma_field(n)(pts)

    x = (0.1, -0.2, 0.05)[:n]
    together = check_lemma_coefficients(n, ks, g, x, 0.7)
    total = sum(math.prod(shape) for shape in calls)
    assert total == 20 * _profile_points(n, 40, 48) + 5 * _profile_points(n, 57, 57)
    assert [r.params["k"] for r in together] == list(ks)
    for k, got in zip(ks, together):
        [want] = check_lemma_coefficients(n, (k,), _lemma_field(n), x, 0.7)
        assert (got.name, got.lhs, got.rhs, got.params) == (want.name, want.lhs, want.rhs, want.params)
    assert check_lemma_coefficients(n, (), g, x, 0.7) == []


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_lemma_symbolic_expansion_is_exact(n, k):
    report = check_lemma_symbolic(n, k)
    assert report.params["max_coeff_diff"] == 0.0
    assert report.abs_residual <= 1e-12


def test_lemma_symbolic_rejects_negative_order():
    with pytest.raises(ValueError, match=">= 0"):
        check_lemma_symbolic(2, -1)


@pytest.mark.parametrize(
    "check",
    [
        lambda b2, b3, ball: check_mollifier(2, 2, 0.5, level=-1),
        lambda b2, b3, ball: check_lemma_coefficients(2, (1,), b2.eval, (0.1, 0.0), 0.7, level=-1),
        lambda b2, b3, ball: check_even_equivalence(b2, [(0.3, 0.0)], [0.7], level=-1),
        lambda b2, b3, ball: check_integral_identity(b3, b3, ball, level=-1),
    ],
    ids=["mollifier", "lemma-coefficients", "even-equivalence", "integral-identity"],
)
def test_checks_reject_a_negative_level(check, bump2d, bump3d, unit_ball):
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        check(bump2d, bump3d, unit_ball)


# ---------------------------------------------------------------------------
# even-dimensional equivalence


def test_even_equivalence_needs_matching_counts(bump2d):
    with pytest.raises(ValueError, match="one time per sample point"):
        check_even_equivalence(bump2d, [(0.1, 0.0), (0.2, 0.1)], [0.5])


def test_even_equivalence_on_sample_points(bump2d):
    report = check_even_equivalence(bump2d, [(0.3, 0.0), (-0.2, 0.25)], [0.7, 1.1])
    assert report.abs_residual <= 1e-5
    assert report.params["samples"] == 2
    # the circle means take the fixed arc rule, so no direction count is reported
    assert report.params["radial_quad"] == 192 and "mean_res" not in report.params


def test_even_equivalence_level_doubles_both_rules(bump2d):
    """A level doubles the radial rule of both arrangements, the sine and
    the Chebyshev-angle one."""
    report = check_even_equivalence(bump2d, [(0.3, 0.0)], [0.7], level=1)
    assert report.params["radial_quad"] == 384
    assert report.abs_residual <= 1e-5


def test_even_equivalence_rejects_volume_phantoms(bump3d):
    with pytest.raises(ValueError, match="dimension 2"):
        check_even_equivalence(bump3d, [(0.0, 0.0, 0.0)], [0.5])


# ---------------------------------------------------------------------------
# mollifier certificates


@pytest.mark.parametrize("n, mu, eps", [(2, 2, 0.5), (3, 3, 1.0), (3, 2, 0.8)])
def test_mollifier_certificates(n, mu, eps):
    reports = check_mollifier(n, mu, eps)
    assert [r.name for r in reports] == [
        "mollifier-mass",
        "mollifier-radon",
        "mollifier-radon-mass",
    ]
    for r in reports:
        assert r.abs_residual <= 1e-6


def test_mollifier_residual_does_not_depend_on_the_width():
    a = max(r.abs_residual for r in check_mollifier(2, 2, 0.5))
    b = max(r.abs_residual for r in check_mollifier(2, 2, 0.25))
    # both sit at the quadrature floor; allow a factor plus the floor itself
    assert a <= 2.0 * b + 1e-12
    assert b <= 2.0 * a + 1e-12


def test_mollifier_check_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        check_mollifier(1, 2, 0.5)
    with pytest.raises(ValueError, match="order"):
        check_mollifier(2, 0, 0.5)
    with pytest.raises(ValueError, match="width"):
        check_mollifier(2, 2, 0.0)
