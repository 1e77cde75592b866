"""Phantoms, spherical means, mollifiers, section profiles and kernels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrace.geometry import ellipsoid, superellipse, support_halfwidth
from neutrace.transforms import (
    Bump,
    OutOfRegionError,
    Phantom,
    build_kernel_profile,
    bump_radial,
    bump_radial_deriv,
    mollifier_eval,
    mollifier_radon,
    sphere_means,
    _build_profiles,
    _centre_offsets,
    _sections,
    _superellipse_chord,
)
from neutrace.inversion import _angular_set
from neutrace.calculus import richardson, stencil_derivative

from _oracles import (
    adaptive_simpson,
    assert_same_bits,
    ellipsoid_sections_per_direction,
    hilbert_exclusion,
    hilbert_pv,
    phantom_slope,
    radon_chi,
    radon_chi_deriv,
    radon_line_integral,
    radon_plane_integral,
    superellipse_chord_bisection,
)

# spherical mean of the radius-0.6 bump at x = (0.3, 0), r = 0.5, converged
# in the direction count (the m = 2048 and m = 512 values agree to 13 digits)
# roundoff: 128 terms <= 1 at weight 1/128 stay within 128 eps = 2.8e-14, far under abs 1e-8
MEAN_2D_CONVERGED = 0.2510725292425515

# offset-derivative values of the exponent-4 superellipse profiles, frozen
# from runs at doubled table and quadrature resolution
# roundoff: one-ulp chord-length noise moves them by 9e-12 / 1.4e-10 / 9e-11 (std),
# under their rel 1e-6 / 1e-7 / 1e-7 pins (2.4e-7 / 4.9e-8 / 7.4e-8)
SE4_PLAIN_D2_AT_03 = -0.23598582052259587
SE4_HILBERT_D2_AT_02 = 0.4925683842710253
SE4_HILBERT_D2_AT_03 = 0.7435085781573967

# roundoff: a closed form, a few ulps (~1e-15 relative) against its rel 1e-10 pin
ELLIPSE_D2_DIAG = -1.395852974094201  # ellipse (2,1), theta = (0.6, 0.8), s = 0.25


# ---------------------------------------------------------------------------
# phantoms


def test_bump_validation():
    with pytest.raises(ValueError):
        Bump(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(ValueError):
        Bump(center=(0.0, 0.0), radius=0.5, profile="spline")
    with pytest.raises(ValueError):
        Bump(center=(0.0, 0.0), radius=0.5, profile="poly", mu=0)


def test_phantom_validation():
    with pytest.raises(ValueError, match="mixed dimension"):
        Phantom((Bump(center=(0.0, 0.0), radius=0.5), Bump(center=(0.0, 0.0, 0.0), radius=0.5)))
    with pytest.raises(ValueError):
        Phantom(()).dimension


def test_phantom_eval_superposes(bump2d):
    b1 = Bump(center=(0.2, 0.0), radius=0.5)
    b2 = Bump(center=(-0.1, 0.3), radius=0.4, amplitude=-0.7)
    pts = np.array([[0.2, 0.0], [0.0, 0.1], [2.0, 2.0]])
    both = Phantom((b1, b2)).eval(pts)
    np.testing.assert_allclose(
        both, Phantom((b1,)).eval(pts) + Phantom((b2,)).eval(pts), atol=1e-15
    )
    assert both[-1] == 0.0


def test_smooth_bump_is_peak_normalised(bump2d):
    assert bump2d.eval(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert bump2d.peak() == pytest.approx(1.0)
    # support is the open ball of the stated radius
    assert bump2d.eval(np.array([0.5, 0.0])) == 0.0
    assert bump2d.eval(np.array([0.45, 0.0])) > 0.0


def test_peak_is_the_largest_value_at_the_bump_centres():
    """Where bumps overlap, f is larger between the centres than at them:
    ``peak`` is a scale of f, not a bound on it."""
    f = Phantom((Bump(center=(-0.2, 0.0), radius=0.5), Bump(center=(0.2, 0.0), radius=0.5)))
    at_centres = 1.0 + math.exp(1.0 - 1.0 / (1.0 - 0.4**2 / 0.5**2))
    assert f.peak() == pytest.approx(at_centres, rel=1e-15)
    assert f.peak() == pytest.approx(1.169, abs=1e-3)
    assert float(f.eval(np.zeros(2))) == pytest.approx(1.653, abs=1e-3)
    assert Phantom(()).peak() == 0.0


def test_bump_radial_matches_eval():
    b = Bump(center=(0.3, -0.2), radius=0.45, amplitude=1.3)
    rho = np.array([0.0, 0.2, 0.449, 0.6])
    pts = np.array([0.3, -0.2]) + np.stack([rho, np.zeros_like(rho)], axis=-1)
    np.testing.assert_allclose(bump_radial(b, rho), Phantom((b,)).eval(pts), atol=1e-15)


def test_bump_radial_deriv_matches_difference_quotient():
    b = Bump(center=(0.0, 0.0), radius=0.5)
    for rho in (0.1, 0.3, 0.42):
        fd = stencil_derivative(lambda r: float(bump_radial(b, np.array([r]))[0]), rho, 1e-5, 1)
        got = float(bump_radial_deriv(b, np.array([rho]))[0])
        assert got == pytest.approx(fd, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_phantom_slope_is_the_directional_derivative(n, rng):
    """``_oracles.phantom_slope``, the gradient field behind the circle-means
    check, is <grad f, direction>: a Richardson-extrapolated
    central difference of f along it (error O(h^4), 1e-12 at h = 1e-3, and
    roundoff eps / h) agrees to 1e-8 of the largest slope, over two
    overlapping bumps of both profiles, at points whose stencils stay off
    the rims (the mu = 3 bump is only C^2 there), and it is an exact zero
    off the supports."""
    f = Phantom(
        (
            Bump(center=(0.1,) + (0.0,) * (n - 1), radius=0.4),
            Bump(center=(-0.2, 0.25) + (0.1,) * (n - 2), radius=0.3, amplitude=-0.6,
                 profile="poly", mu=3),
        )
    )
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    pts = rng.uniform(-0.5, 0.5, (400, n))
    off_rims = [np.abs(np.linalg.norm(pts - b.center, axis=-1) - b.radius) > 1e-2 for b in f.bumps]
    pts = pts[np.logical_and.reduce(off_rims)]
    slope = phantom_slope(f, v)
    got = slope(pts)

    def central(h):
        return (f.eval(pts + h * v) - f.eval(pts - h * v)) / (2.0 * h)

    want = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    assert np.count_nonzero(got) > 100
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8 * np.abs(got).max())
    outside = np.array([[0.9] + [0.0] * (n - 1), [-0.8] + [0.5] * (n - 1)])
    assert np.all(slope(outside) == 0.0)


def test_poly_bump_has_unit_mass():
    # (1 - r^2)^mu / a is normalised over the unit ball; scaling by the
    # radius keeps the mass at 1 in any dimension
    b = Bump(center=(0.0, 0.0), radius=0.7, profile="poly", mu=2)

    def ring(r):
        return 2.0 * math.pi * r * float(bump_radial(b, np.array([r]))[0])

    assert adaptive_simpson(ring, 0.0, 0.7, tol=1e-12) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# spherical means


def test_spherical_mean_of_affine_data_is_exact():
    # mean-value property: averaging an affine function over any sphere
    # returns the value at the center, and the rules integrate degree-1
    # spherical harmonics exactly
    def f(pts):
        return 0.7 - 1.3 * pts[..., 0] + 0.4 * pts[..., 1]

    assert sphere_means(f, (0.3, -0.2), 0.6, 16) == pytest.approx(
        0.7 - 1.3 * 0.3 + 0.4 * -0.2, abs=1e-13
    )

    def g(pts):
        return 0.5 + pts[..., 0] - 2.0 * pts[..., 2]

    assert sphere_means(g, (0.1, 0.0, 0.4), 0.5, 12) == pytest.approx(
        0.5 + 0.1 - 0.8, abs=1e-13
    )


def test_spherical_mean_vanishes_beyond_the_support(bump2d):
    assert sphere_means(bump2d, (3.0, 0.0), 0.5, 32) == 0.0


def test_spherical_mean_frozen_value(bump2d):
    f = Phantom((Bump(center=(0.0, 0.0), radius=0.6),))
    assert sphere_means(f, (0.3, 0.0), 0.5, 128) == pytest.approx(
        MEAN_2D_CONVERGED, abs=1e-8
    )


def test_spherical_mean_spectral_convergence():
    # sphere strictly inside the bump support, so the integrand is analytic
    f2 = Phantom((Bump(center=(0.0, 0.0), radius=0.6),))
    ref2 = sphere_means(f2, (0.3, 0.0), 0.25, 512)
    errs2 = [abs(sphere_means(f2, (0.3, 0.0), 0.25, m) - ref2) for m in (8, 16, 32)]
    assert errs2[1] <= errs2[0] / 10.0
    assert errs2[2] <= errs2[1] / 10.0
    assert errs2[2] < 1e-12

    f3 = Phantom((Bump(center=(0.0, 0.0, 0.0), radius=0.6),))
    ref3 = sphere_means(f3, (0.3, 0.0, 0.0), 0.25, 256)
    errs3 = [abs(sphere_means(f3, (0.3, 0.0, 0.0), 0.25, m) - ref3) for m in (8, 16)]
    assert errs3[1] <= errs3[0] / 10.0
    assert errs3[1] < 1e-12


def test_sphere_means_are_even_in_the_radius(bump2d):
    vals = sphere_means(bump2d, (0.3, 0.0), np.array([-0.5, 0.5]), 64)
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)


# ---------------------------------------------------------------------------
# mollifier pair


def test_mollifier_peak_value_2d():
    # (1 - r^2)^2 kernel in the plane: normalisation 3/pi at the origin
    assert mollifier_eval(2, 1.0, np.zeros(2)) == pytest.approx(3.0 / math.pi, rel=1e-13)


def test_mollifier_supported_on_eps_ball():
    assert mollifier_eval(2, 0.5, np.array([0.5, 0.0])) == 0.0
    assert mollifier_radon(2, 0.5, 0.6, 2) == 0.0
    assert mollifier_radon(2, 0.5, -0.5, 2) == 0.0


@pytest.mark.parametrize("n,mu,eps", [(2, 2, 0.5), (3, 3, 1.0), (3, 2, 0.8)])
def test_mollifier_unit_mass(n, mu, eps):
    surf = 2.0 * math.pi if n == 2 else 4.0 * math.pi

    def shell(r):
        return surf * r ** (n - 1) * float(mollifier_eval(mu, eps, np.r_[r, np.zeros(n - 1)], n))

    assert adaptive_simpson(shell, 0.0, eps, tol=1e-12) == pytest.approx(1.0, abs=1e-9)


def test_mollifier_radon_matches_line_integral():
    mu, eps = 2, 0.5

    def kernel(pts):
        return mollifier_eval(mu, eps, pts)

    for s in (0.0, 0.2, -0.35):
        direct = radon_line_integral(kernel, np.array([1.0, 0.0]), s, eps, m=20001)
        closed = mollifier_radon(mu, eps, s, 2)
        assert closed == pytest.approx(direct, abs=5e-9)


def test_mollifier_radon_matches_plane_integral():
    mu, eps = 3, 1.0

    def kernel(pts):
        return mollifier_eval(mu, eps, pts, 3)

    direct = radon_plane_integral(kernel, np.array([0.0, 0.0, 1.0]), 0.3, eps, m=241)
    assert mollifier_radon(mu, eps, 0.3, 3) == pytest.approx(direct, abs=1e-8)


def test_mollifier_radon_profile_mass():
    # the Radon profile of a unit-mass kernel integrates to 1 in s
    for n, mu, eps in ((2, 2, 0.5), (3, 3, 1.0)):
        mass = adaptive_simpson(lambda s: float(mollifier_radon(mu, eps, s, n)), -eps, eps, tol=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# section profiles


def test_radon_chi_disk_chords(unit_disk):
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    chords = _sections(unit_disk, dirs, np.array([[0.0, 0.6], [1.0, -1.2]]))
    assert chords[0, 0] == pytest.approx(2.0, rel=1e-13)
    assert chords[0, 1] == pytest.approx(1.6, rel=1e-13)
    assert chords[1, 0] == 0.0
    assert chords[1, 1] == 0.0


def test_radon_chi_ball_sections(unit_ball):
    s = 0.4
    areas = _sections(unit_ball, np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, s]]))[0]
    assert areas[0] == pytest.approx(math.pi, rel=1e-13)
    assert areas[1] == pytest.approx(math.pi * (1.0 - s * s), rel=1e-13)


def test_radon_chi_accepts_arrays(ellipse21):
    """Each row of offsets is read along its own direction."""
    s = np.array([-0.5, 0.0, 0.5, 3.0])
    vals = _sections(ellipse21, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([s, s]))
    assert vals.shape == (2, s.size)
    assert np.all(vals[:, 3] == 0.0)
    assert vals[0, 1] == pytest.approx(2.0, rel=1e-13)
    assert vals[1, 1] == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_ellipsoid_sections_keep_the_bits_of_the_per_direction_widths(n, rng):
    """The ellipsoid sections take their halfwidths from the batched
    support_halfwidth, with the bits of each direction's own width."""
    if n == 2:
        domain = ellipsoid((0.1, -0.2), (1.3, 0.7))
        dirs, _ = _angular_set(2, 37)
    else:
        domain = ellipsoid((0.1, -0.2, 0.05), (1.3, 0.7, 0.95))
        dirs, _ = _angular_set(3, 9)
    sp = rng.uniform(-1.4, 1.4, size=(len(dirs), 33))
    assert_same_bits(_sections(domain, dirs, sp), ellipsoid_sections_per_direction(domain, dirs, sp))


def test_radon_chi_rejects_non_unit_direction(unit_disk):
    with pytest.raises(ValueError, match="unit"):
        build_kernel_profile(unit_disk, (2.0, 0.0), 2, margin=0.1)


def test_centre_offsets_have_the_same_bits_in_a_batch():
    """<c, theta> of a direction is the same float alone and in any batch."""
    dom = ellipsoid((0.1, -0.3, 0.25), (1.0, 1.2, 0.9))
    dirs, _ = _angular_set(3, 6)
    batch = _centre_offsets(dom, dirs)
    assert np.array_equal(batch, [_centre_offsets(dom, th) for th in dirs])
    assert np.array_equal(_centre_offsets(dom, dirs[1::3]), batch[1::3])
    np.testing.assert_allclose(batch, dirs @ np.asarray(dom.center), rtol=0.0, atol=1e-15)


def test_radon_chi_superellipse_against_line_integral(se4):
    def indicator(pts):
        u = (pts - np.array([0.0, 0.0])) / np.array([1.2, 0.9])
        return (np.sum(np.abs(u) ** 4.0, axis=-1) <= 1.0).astype(float)

    for theta, s in (((1.0, 0.0), 0.3), ((0.0, 1.0), -0.2), ((0.6, 0.8), 0.45)):
        direct = radon_line_integral(indicator, np.asarray(theta), s, 2.0, m=40001)
        assert radon_chi(se4, theta, s) == pytest.approx(direct, abs=1e-3)


@given(s=st.floats(-1.4, 1.4), phi=st.floats(0.0, math.pi))
@settings(max_examples=60, deadline=None)
def test_radon_chi_flip_symmetry(s, phi):
    """The chord (theta, s) and (-theta, -s) are the same line, for any
    domain, centered or not."""
    dom = ellipsoid((0.3, -0.2), (1.1, 0.7))
    th = np.array([math.cos(phi), math.sin(phi)])
    a = radon_chi(dom, th, s)
    b = radon_chi(dom, -th, -s)
    assert a == pytest.approx(b, abs=1e-12)


def test_radon_chi_even_for_centered_domains(se4):
    for s in (0.15, 0.4, 0.77):
        assert radon_chi(se4, (1.0, 0.0), s) == pytest.approx(
            radon_chi(se4, (1.0, 0.0), -s), rel=1e-10
        )


# ---------------------------------------------------------------------------
# offset derivatives


def test_radon_chi_deriv_ball_closed_forms(unit_ball):
    th = (0.0, 0.0, 1.0)
    assert radon_chi_deriv(unit_ball, th, 0.3, 2) == pytest.approx(-2.0 * math.pi, rel=1e-12)
    assert radon_chi_deriv(unit_ball, th, 0.3, 3) == 0.0
    assert radon_chi_deriv(unit_ball, th, 0.2, 1) == pytest.approx(-2.0 * math.pi * 0.2, rel=1e-12)


def test_radon_chi_deriv_analytic_vs_fd(ellipse21):
    th, s = (0.6, 0.8), 0.25
    ana = radon_chi_deriv(ellipse21, th, s, 2, method="analytic")
    fd = radon_chi_deriv(ellipse21, th, s, 2, method="fd")
    assert ana == pytest.approx(ELLIPSE_D2_DIAG, rel=1e-10)
    assert fd == pytest.approx(ana, rel=1e-8)


def test_radon_chi_deriv_superellipse_vs_difference_oracle(se4):
    th, s = np.array([1.0, 0.0]), 0.3
    got = radon_chi_deriv(se4, th, s, 2)

    def prof(t):
        return float(radon_chi(se4, th, t))

    # independent differencing: fixed small step, its own Richardson pair
    h = 0.004
    oracle = richardson(stencil_derivative(prof, s, h, 2), stencil_derivative(prof, s, 2 * h, 2))
    assert got == pytest.approx(oracle, rel=1e-5)
    assert got == pytest.approx(SE4_PLAIN_D2_AT_03, rel=1e-6)


def test_radon_chi_deriv_window_and_validation(se4, unit_disk):
    w = support_halfwidth(se4, (1.0, 0.0))
    with pytest.raises(OutOfRegionError):
        radon_chi_deriv(se4, (1.0, 0.0), w - 0.01, 2, margin=0.1)
    with pytest.raises(OutOfRegionError, match="tangent"):
        radon_chi_deriv(unit_disk, (1.0, 0.0), 1.0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        radon_chi_deriv(se4, (1.0, 0.0), 0.0, 2, margin=-0.1)


# ---------------------------------------------------------------------------
# principal-value transform


def phi_semicircle(t):
    return np.sqrt(np.clip(1.0 - np.asarray(t) ** 2, 0.0, None))


def exclusion_oracle(phi, a, b, s, eps=4e-3, m=200000):
    """Symmetric-exclusion value extrapolated to the eps -> 0 limit.

    The excluded window contributes 2 eps phi'(s)/pi + O(eps^3), so one
    Richardson step in eps removes the linear term."""
    return 2.0 * hilbert_exclusion(phi, a, b, s, eps, m=m) - hilbert_exclusion(
        phi, a, b, s, 2.0 * eps, m=m
    )


def test_hilbert_pv_semicircle_inside():
    # the half-circle density maps to the identity inside its support; the
    # square-root edges limit the rule to ~1e-9 at this node count
    for s in (-0.5, 0.25, 0.5):
        got = hilbert_pv(phi_semicircle, (-1.0, 1.0), s, 512)
        assert got == pytest.approx(s, abs=1e-8)
        assert got == pytest.approx(
            exclusion_oracle(phi_semicircle, -1.0, 1.0, s), abs=1e-6
        )


def test_hilbert_pv_even_input_vanishes_at_zero():
    assert hilbert_pv(phi_semicircle, (-1.0, 1.0), 0.0, 256) == pytest.approx(0.0, abs=1e-12)


def test_hilbert_pv_outside_support():
    got = hilbert_pv(phi_semicircle, (-1.0, 1.0), 2.0, 512)
    assert got == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-8)


# ---------------------------------------------------------------------------
# kernel profiles


def test_hilbert_of_disk_profile_is_linear(unit_disk):
    # R chi = 2 sqrt(1 - s^2), whose transform is 2s on (-1, 1)
    prof = build_kernel_profile(unit_disk, (1.0, 0.0), 2, margin=0.1)
    ss = np.linspace(-0.6, 0.6, 41)
    np.testing.assert_allclose(prof.eval(ss, order=0, hilbert=True), 2.0 * ss, atol=1e-10)


@pytest.mark.parametrize("domain_key", ["unit_disk", "ellipse21"])
def test_composite_kernel_vanishes_on_ellipses(domain_key, request):
    dom = request.getfixturevalue(domain_key)
    prof = build_kernel_profile(dom, (1.0, 0.0), 2, margin=0.1, with_hilbert=True)
    for s in (-0.3, 0.0, 0.4):
        assert abs(prof.eval(s * min(dom.semi_axes))) <= 1e-8


def test_composite_kernel_superellipse_frozen_values(se4):
    prof = build_kernel_profile(se4, (1.0, 0.0), 2, margin=0.1, with_hilbert=True)
    v2, v3 = prof.eval(0.2), prof.eval(0.3)
    assert v2 == pytest.approx(SE4_HILBERT_D2_AT_02, rel=1e-7)
    assert v3 == pytest.approx(SE4_HILBERT_D2_AT_03, rel=1e-7)
    # refining the table and quadrature together leaves the value in place
    v2r = build_kernel_profile(
        se4, (1.0, 0.0), 2, margin=0.1, num_table=1024, num_quad=512, with_hilbert=True
    ).eval(0.2)
    assert v2r == pytest.approx(v2, rel=1e-6)


def test_composite_kernel_is_odd_under_chord_flip(se4):
    """(theta, s) -> (-theta, -s) keeps the chord but flips the transform
    direction, so the odd-order Hilbert factor negates the composite."""
    for th, s in ((np.array([1.0, 0.0]), 0.1), (np.array([0.6, 0.8]), 0.15)):
        a = build_kernel_profile(se4, th, 2, margin=0.1, with_hilbert=True).eval(s)
        b = build_kernel_profile(se4, -th, 2, margin=0.1, with_hilbert=True).eval(-s)
        assert b == pytest.approx(-a, rel=1e-7)
        assert abs(a) > 0.1  # away from the parity zeros


def test_plain_even_derivative_is_flip_invariant(ellipse21):
    th, s = np.array([0.6, 0.8]), 0.25
    a = radon_chi_deriv(ellipse21, th, s, 2)
    b = radon_chi_deriv(ellipse21, -th, -s, 2)
    assert b == pytest.approx(a, rel=1e-13)


def test_kernel_profile_tables_and_window(se4):
    prof = build_kernel_profile(se4, (1.0, 0.0), 2, margin=0.15)
    assert np.all(prof.rchi >= 0.0)
    assert prof.query_halfwidth == pytest.approx(prof.halfwidth - 0.15)
    with pytest.raises(OutOfRegionError):
        prof.eval(prof.s_center + prof.query_halfwidth + 1e-6)
    # grid nodes reproduce the tabulated section values
    mid = len(prof.s_grid) // 2
    assert prof.eval(prof.s_grid[mid], order=0, hilbert=False) == pytest.approx(
        prof.rchi[mid], rel=1e-12
    )


def test_kernel_window_admits_its_edges_formed_off_centre():
    """A query at s_center +- query_halfwidth, formed as the kernel dump forms
    its grid, lies in the window even where the roundings of s and of
    s - s_center put it an ulp beyond; a query 1e-9 beyond raises."""
    domain = superellipse((0.7, -0.4), (1.2, 0.9), 4.0)
    rounded_out = 0
    for a in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
        prof = build_kernel_profile(
            domain, (np.cos(a), np.sin(a)), 1, margin=0.1, num_table=256, num_quad=16
        )
        q = prof.query_halfwidth
        edges = prof.s_center + np.array([-q, q])
        rounded_out += np.count_nonzero(np.abs(edges - prof.s_center) > q)
        assert np.all(np.isfinite(prof.eval(edges, order=0, hilbert=False)))
        for side in (-1.0, 1.0):
            with pytest.raises(OutOfRegionError, match="outside safe window"):
                prof.eval(prof.s_center + side * (q + 1e-9))
    assert rounded_out > 0


def test_kernel_profile_validation(unit_disk):
    with pytest.raises(ValueError):
        build_kernel_profile(unit_disk, (1.0, 0.0), 2, margin=0.0)
    with pytest.raises(ValueError):
        build_kernel_profile(unit_disk, (1.0, 0.0), 2, margin=1.5)
    with pytest.raises(ValueError):
        build_kernel_profile(unit_disk, (1.0, 0.0), 2, margin=0.1, num_table=32)
    with pytest.raises(ValueError):
        build_kernel_profile(unit_disk, (1.0, 0.0), 0, margin=0.1)
    with pytest.raises(ValueError):
        build_kernel_profile(unit_disk, (1.0, 0.0), 3, margin=0.1)


def _assert_same_profile(a, b):
    assert (a.theta, a.s_center, a.halfwidth, a.with_hilbert) == (
        b.theta, b.s_center, b.halfwidth, b.with_hilbert
    )
    for name in ("s_grid", "rchi", "hrchi"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y, equal_nan=True)
    for name in ("rchi_d", "hrchi_d"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.keys() == y.keys()
            for k in x:
                assert np.array_equal(x[k], y[k], equal_nan=True)


@pytest.mark.parametrize("order,with_hilbert", [(2, True), (1, False)])
@pytest.mark.parametrize("domain_key", ["se4", "ellipse21"])
def test_batched_profiles_equal_single_builds(domain_key, order, with_hilbert, request):
    """Profiles built together in one batch, of all directions or of every
    other one, are bitwise the profiles built one direction at a time."""
    dom = request.getfixturevalue(domain_key)
    dirs, _ = _angular_set(2, 12)
    args = (order, 0.4, 96, 48, with_hilbert)
    single = [
        build_kernel_profile(
            dom, th, order, margin=0.4, num_table=96, num_quad=48, with_hilbert=with_hilbert
        )
        for th in dirs
    ]
    for a, b in zip(single, _build_profiles(dom, dirs, *args)):
        _assert_same_profile(a, b)
    for a, b in zip(single[1::2], _build_profiles(dom, dirs[1::2], *args)):
        _assert_same_profile(a, b)


def test_radon_chi_equals_a_row_of_the_batched_chord(se4):
    dirs, _ = _angular_set(2, 8)
    # every row its own offsets, some beyond the domain
    sp = np.linspace(-1.4, 1.4, 29)[None, :] + 0.013 * np.arange(len(dirs))[:, None]
    chords = _superellipse_chord(se4, dirs, sp)
    assert chords.shape == sp.shape
    assert np.any(chords == 0.0) and np.any(chords > 1.0)
    for th, offsets, row in zip(dirs, sp, chords):
        # se4 is centred, so the offsets are the chord offsets themselves
        assert np.array_equal(radon_chi(se4, th, offsets), row)
        assert radon_chi(se4, th, float(offsets[14])) == row[14]
        assert np.array_equal(radon_chi(se4, th, offsets[:28].reshape(4, 7)), row[:28].reshape(4, 7))


# How far roundoff can move one end of a chord.  Both chord routes evaluate
# the level function L at x = fl(fl(c + fl(s' theta)) + fl(tau theta_perp)),
# then d_i = fl(fl(x_i - c_i) / a_i) and the sum of |d_i|^p (the Newton route
# as |d_i|^(p-1) |d_i|).  With u = eps / 2, each coordinate is off by at most
# 3 u R_i, R_i = |c_i| + |s' theta_i| + |tau theta_perp_i|, which moves L by
# |dL/dx_i| 3 u R_i <= 3 u p R_i / a_i near the boundary (|d_i| <= 1); d_i
# carries 2 u relative, so |d_i|^p carries 2 p u, the power and the product
# 2 u, and the sum 2 u.  So the computed L is within
#     delta = u (3 sum_i p R_i / a_i + 2 p + 4)
# of the exact one.  Both routes stop where the computed L crosses 1 (the
# Newton route once its step is below one ulp of tau), so each end is within
# delta / |L'(tau)| + ulp(tau) of the root, to first order; the slope L' along
# the line is taken from the exact formula at the end.
def chord_end_roundoff(domain, th, sp, tau):
    p = domain.exponent
    a = np.asarray(domain.semi_axes)
    perp = np.stack([-th[:, 1], th[:, 0]], axis=-1)[:, None, :]
    along = sp[..., None] * th[:, None, :]
    d = (along + tau[..., None] * perp) / a
    slope = np.abs(np.sum(p * np.sign(d) * np.abs(d) ** (p - 1.0) * perp / a, axis=-1))
    reach = np.abs(np.asarray(domain.center)) + np.abs(along) + np.abs(tau[..., None] * perp)
    delta = 0.5 * np.finfo(float).eps * (3.0 * np.sum(p * reach / a, axis=-1) + 2.0 * p + 4.0)
    return delta / slope + np.spacing(np.abs(tau))


def _chord_batch(domain, count):
    """Directions (the angular set plus both axes) and offsets at fractions z
    of each direction's support halfwidth, and z itself: interior lines,
    near-tangent lines at 1 - 1e-10, tangent lines and lines that miss."""
    dirs, _ = _angular_set(2, count)
    diagonal = math.sqrt(0.5)
    dirs = np.concatenate([dirs, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [diagonal, diagonal]]])
    w = np.array([support_halfwidth(domain, th) for th in dirs])
    z = np.concatenate(
        [
            np.linspace(-0.999, 0.999, 41),
            [0.99, -0.99, 1.0 - 1e-10, -(1.0 - 1e-10), 1.0, -1.0, 1.001, -1.5],
        ]
    )
    return dirs, w[:, None] * z, np.broadcast_to(z, (len(dirs), z.size))


@pytest.mark.parametrize(
    "domain",
    [
        superellipse((0.0, 0.0), (1.1, 0.8), 2.0),
        superellipse((0.35, -0.25), (1.0, 0.7), 3.3),
        superellipse((0.0, 0.0), (1.2, 0.9), 4.0),
        superellipse((0.1, 0.2), (0.9, 1.3), 8.0),
        superellipse((0.0, 0.0), (1.0, 1.0), 100.0),
        superellipse((0.2, -0.1), (1.0, 1.0), 200.0),
    ],
    ids=["p2", "p3.3-off-centre", "p4", "p8-off-centre", "p100", "p200-off-centre"],
)
def test_superellipse_chords_match_the_bisection_route(domain):
    """The Newton chords equal the golden-section and bisection chords within
    the roundoff of both routes at each end; a line at or beyond the support
    halfwidth gives exactly 0, and the masked misses raise no warning."""
    dirs, sp, z = _chord_batch(domain, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _superellipse_chord(domain, dirs, sp)
    want, tau_lo, tau_hi = superellipse_chord_bisection(domain, dirs, sp)
    miss = np.abs(z) >= 1.0
    assert np.all(got[miss] == 0.0)
    bound = 2.0 * (
        chord_end_roundoff(domain, dirs, sp, tau_lo) + chord_end_roundoff(domain, dirs, sp, tau_hi)
    ) + np.spacing(want)
    assert np.all(np.abs(got - want)[~miss] <= bound[~miss])
    assert np.all(got[~miss] > 0.0)
    # away from tangency the bound is a few ulps of the chord, so it has teeth
    assert np.all(bound[np.abs(z) < 0.99] <= 1e-13)


def test_exponent_two_chords_equal_the_closed_form_ellipse():
    """An independent route: a p = 2 superellipse is an ellipse, whose chord
    2 (a1 a2 / w) sqrt(1 - z^2), z = s' / w, comes from _sections' ellipsoid
    branch and shares no code with the chord search.  The search is within
    its per-end roundoff (ends at the chord midpoint tau_m +- half the chord,
    tau_m the minimiser of the quadratic level along the line).  The closed
    form takes about 7 u in a1 a2 V_1 / w and 9 u z^2 in 1 - z^2, halved by
    the root, so it is within u (12 + 6 / (1 - z^2)) relative."""
    for center, axes in (((0.0, 0.0), (1.2, 0.9)), ((0.2, -0.1), (1.3, 0.8))):
        domain = superellipse(center, axes, 2.0)
        dirs, sp, z = _chord_batch(domain, 24)
        hit = np.abs(z[0]) < 1.0
        sp, z = sp[:, hit], z[:, hit]
        got = _superellipse_chord(domain, dirs, sp)
        closed = _sections(ellipsoid(center, axes), dirs, sp)
        a2 = np.asarray(axes) ** 2
        perp = np.stack([-dirs[:, 1], dirs[:, 0]], axis=-1)
        tau_m = -sp * (np.sum(dirs * perp / a2, axis=-1) / np.sum(perp * perp / a2, axis=-1))[:, None]
        search = chord_end_roundoff(domain, dirs, sp, tau_m + 0.5 * closed) + chord_end_roundoff(
            domain, dirs, sp, tau_m - 0.5 * closed
        )
        exact = 0.5 * np.finfo(float).eps * (12.0 + 6.0 / (1.0 - z * z)) * closed
        assert np.all(np.abs(got - closed) <= search + exact + np.spacing(closed))


@pytest.mark.parametrize("p", [4.0, 100.0, 1000.0, 1e4])
def test_axis_chords_equal_the_closed_form_at_any_exponent(p):
    """A line x_1 = c_1 + s' meets the superellipse where |d_2| is at most
    (1 - X)^(1/p), X = |s' / a_1|^p, so its chord is 2 a_2 (1 - X)^(1/p),
    and likewise along the other axis.  The search starts where the level is
    at most 2, so no |d_i|^p overflows, however large p.  Its ends sit at
    +- half the chord; the closed form carries (p + 1) u relative in X, so
    u X (1 + 1/p) / (1 - X) + u / p + 2 u relative in the chord."""
    domain = superellipse((0.3, -0.2), (1.2, 0.7), p)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    w = np.array([support_halfwidth(domain, th) for th in dirs])
    sp = w[:, None] * np.linspace(-0.999, 0.999, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _superellipse_chord(domain, dirs, sp)
    a = np.asarray(domain.semi_axes)
    along, across = np.abs(dirs) @ a, np.abs(dirs[:, ::-1]) @ a
    x = np.abs(sp / along[:, None]) ** p
    closed = 2.0 * across[:, None] * (1.0 - x) ** (1.0 / p)
    u = 0.5 * np.finfo(float).eps
    exact = u * (x * (1.0 + 1.0 / p) / (1.0 - x) + 1.0 / p + 2.0) * closed
    search = chord_end_roundoff(domain, dirs, sp, 0.5 * closed) + chord_end_roundoff(
        domain, dirs, sp, -0.5 * closed
    )
    assert np.all(np.abs(got - closed) <= search + exact + np.spacing(closed))


def test_large_exponent_chords_lie_between_nested_domains():
    """A superellipse grows with p towards its box |x_i - c_i| <= a_i, so at
    p = 1e4 each chord lies between the p = 100 chord (checked against the
    bisection route above) and the box chord, the overlap of the two slabs
    along the line.  The search starts where every |d_i|^p is at most 1, so
    nothing overflows at such an exponent."""
    c, a = np.array([0.2, -0.1]), np.array([1.0, 0.6])
    outer, inner = superellipse(c, a, 1e4), superellipse(c, a, 100.0)
    dirs, _ = _angular_set(2, 24)  # no direction along an axis
    w = np.array([support_halfwidth(outer, th) for th in dirs])
    sp = w[:, None] * np.linspace(-0.999, 0.999, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _superellipse_chord(outer, dirs, sp)
    perp = np.stack([-dirs[:, 1], dirs[:, 0]], axis=-1)[:, None, :]
    slabs = (np.array([-1.0, 1.0])[:, None, None, None] * a - sp[..., None] * dirs[:, None, :]) / perp
    box = np.maximum(slabs.max(axis=0).min(axis=-1) - slabs.min(axis=0).max(axis=-1), 0.0)
    assert np.all(got > 0.0)
    assert np.all(got <= box + 1e-12)
    assert np.all(got >= _superellipse_chord(inner, dirs, sp) - 1e-12)


def test_chord_search_raises_rather_than_return_an_unconverged_end(se4, monkeypatch):
    """An end still moving when its Newton steps run out raises; the search
    never returns a chord from an end it has not converged."""
    dirs, sp, _ = _chord_batch(se4, 8)
    monkeypatch.setattr("neutrace.transforms.CHORD_NEWTON_STEPS", 3)
    with pytest.raises(RuntimeError, match="did not converge in 3 Newton steps"):
        _superellipse_chord(se4, dirs, sp)
