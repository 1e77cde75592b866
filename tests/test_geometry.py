"""Convex domains, boundary quadratures, support widths and grid margins."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrace.forward import TimeGrid, support_margin
from neutrace.geometry import (
    boundary_distance,
    boundary_quadrature,
    contains,
    domain_diameter,
    ellipsoid,
    grid_corners,
    grid_margin,
    level_value,
    outward_normal,
    superellipse,
    support_halfwidth,
)
from neutrace.inversion import ImageGrid, ReconstructionOptions, _angular_set, _grid_margin
from neutrace.transforms import Bump, Phantom

from _oracles import (
    adaptive_simpson,
    boundary_distance_per_point,
    level_value_broadcast,
    support_halfwidth_per_direction,
    support_margin_per_bump,
)

# boundary lengths of the session domains, integrated independently with
# adaptive Simpson on the parametric speed
ELLIPSE21_PERIMETER = 9.688448220547677
SE4_PERIMETER = 7.385006960566761


# ---------------------------------------------------------------------------
# construction


def test_constructor_validation():
    with pytest.raises(ValueError):
        ellipsoid((0.0, 0.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        ellipsoid((0.0,), (1.0,))  # dimension 1 unsupported
    with pytest.raises(ValueError):
        ellipsoid((0.0, 0.0, 0.0), (1.0, 1.0))  # center/axes mismatch
    with pytest.raises(ValueError):
        superellipse((0.0, 0.0), (1.0, 1.0), 1.5)
    with pytest.raises(ValueError):
        superellipse((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: superellipse((0.0, 0.0), (1.2, 0.9), x),
        lambda x: superellipse((0.0, 0.0), (x, 0.9), 4.0),
        lambda x: ellipsoid((0.0, x, 0.0), (1.0, 1.0, 1.0)),
        lambda x: ellipsoid((0.0, 0.0), (1.0, x)),
        lambda x: Bump(center=(0.0, 0.0), radius=x),
        lambda x: Bump(center=(x, 0.0), radius=0.3),
        lambda x: Bump(center=(0.0, 0.0), radius=0.3, amplitude=x),
        lambda x: TimeGrid(t_max=x, nt=20),
    ],
    ids=[
        "exponent", "superellipse-axis", "centre", "ellipsoid-axis",
        "bump-radius", "bump-centre", "bump-amplitude", "t_max",
    ],
)
def test_constructors_reject_non_finite_values(build, bad):
    """A NaN passes every ordered comparison as false, so a NaN exponent
    passed ``exponent < 2``; each constructor now refuses nan and +-inf in
    every float field."""
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_dimension_property(unit_disk, unit_ball, se4):
    assert unit_disk.dimension == 2
    assert unit_ball.dimension == 3
    assert se4.dimension == 2


# ---------------------------------------------------------------------------
# membership


def test_contains_simple_points(unit_disk, ellipse21, unit_ball):
    assert contains(unit_disk, (0.5, 0.0))
    assert not contains(unit_disk, (1.5, 0.0))
    assert contains(ellipse21, (1.9, 0.0))
    assert not contains(ellipse21, (0.0, 1.1))
    assert contains(unit_ball, (0.5, 0.5, 0.5))
    assert not contains(unit_ball, (0.7, 0.7, 0.2))


def test_superellipse_corners_are_fuller_than_the_ellipse():
    # the exponent-4 ball contains points of Euclidean norm above 1
    se = superellipse((0.0, 0.0), (1.0, 1.0), 4.0)
    p = (0.74, 0.74)
    assert np.linalg.norm(p) > 1.0
    assert contains(se, p)
    assert not contains(ellipsoid((0.0, 0.0), (1.0, 1.0)), p)


def test_contains_vectorized(unit_disk):
    pts = np.array([[0.0, 0.0], [0.99, 0.0], [1.01, 0.0]])
    np.testing.assert_array_equal(contains(unit_disk, pts), [True, True, False])


_LEVEL_DOMAINS = [
    ellipsoid((0.3, -0.2), (1.5, 0.7)),
    ellipsoid((0.1, 0.2, -0.3), (1.0, 1.3, 0.6)),
    superellipse((0.25, -0.4), (1.2, 0.9), 4.0),
    superellipse((-0.3, 0.15), (0.8, 1.1), 3.3),
]


@pytest.mark.parametrize("dom", _LEVEL_DOMAINS, ids=["ellipse", "ellipsoid", "se4", "se3.3"])
def test_level_value_equals_the_broadcast_formula(dom, rng):
    """One coordinate plane at a time gives the broadcast-and-sum formula's
    values bit for bit, for any leading shape, on and off the boundary."""
    n = dom.dimension
    c, a = np.asarray(dom.center), np.asarray(dom.semi_axes)
    rim = boundary_quadrature(dom, 8).points
    inside = c + 0.5 * a * rng.uniform(-1.0, 1.0, (20, n))
    outside = c + a * rng.uniform(1.0, 3.0, (20, n)) * rng.choice([-1.0, 1.0], (20, n))
    pts = np.concatenate([rim, inside, outside, c[None, :], (c + a * np.eye(n))])
    on_rim = level_value(dom, rim)
    assert np.all(np.abs(on_rim - 1.0) < 1e-12) and np.any(level_value(dom, outside) > 1.0)
    for batch in (pts, pts[3], pts[: 4 * 5].reshape(4, 5, n), pts[:0]):
        got = level_value(dom, batch)
        want = level_value_broadcast(dom, batch)
        assert np.shape(got) == np.shape(want) == batch.shape[:-1]
        assert np.array_equal(got, want)
    # a coordinate-first array handed over as a view reads the same values
    assert np.array_equal(level_value(dom, np.moveaxis(np.ascontiguousarray(pts.T), 0, -1)),
                          level_value_broadcast(dom, pts))
    with pytest.raises(ValueError, match="coordinates"):
        level_value(dom, np.zeros((3, n + 1)))


@given(
    u=st.floats(-1.0, 1.0),
    v=st.floats(-1.0, 1.0),
    p=st.floats(2.0, 8.0),
)
@settings(max_examples=60, deadline=None)
def test_superellipse_contains_the_inscribed_ellipse(u, v, p):
    """|x/a|^p + |y/b|^p <= (x/a)^2 + (y/b)^2 for p >= 2, so every point of
    the ellipse with the same semi-axes stays inside."""
    se = superellipse((0.3, -0.1), (1.4, 0.8), p)
    r = math.hypot(u, v)
    if r == 0.0:
        u1, v1 = 0.0, 0.0
    else:
        u1, v1 = u / max(r, 1.0), v / max(r, 1.0)
    x = (0.3 + 1.4 * u1 * 0.999, -0.1 + 0.8 * v1 * 0.999)
    assert contains(se, x)


@given(p=st.floats(2.0, 8.0), s=st.floats(1.001, 3.0))
@settings(max_examples=40, deadline=None)
def test_superellipse_excludes_beyond_axis_extent(p, s):
    se = superellipse((0.0, 0.0), (1.2, 0.9), p)
    assert not contains(se, (1.2 * s, 0.0))
    assert not contains(se, (0.0, -0.9 * s))


# ---------------------------------------------------------------------------
# boundary quadrature


@pytest.mark.parametrize("res,expected", [(8, 8), (12, 12), (64, 64)])
def test_node_count_2d(unit_disk, res, expected):
    assert len(boundary_quadrature(unit_disk, res)) == expected


def test_node_count_3d(unit_ball):
    bq = boundary_quadrature(unit_ball, 8)
    assert len(bq) == 2 * 8 * 8
    assert bq.points.shape == (128, 3)
    assert bq.resolution == 8


def test_resolution_minimum(unit_disk):
    with pytest.raises(ValueError, match="resolution"):
        boundary_quadrature(unit_disk, 7)


def test_nodes_lie_on_the_boundary(unit_disk, ellipse21, se4, unit_ball):
    for dom, res in ((unit_disk, 16), (ellipse21, 16), (se4, 16), (unit_ball, 8)):
        bq = boundary_quadrature(dom, res)
        np.testing.assert_allclose(level_value(dom, bq.points), 1.0, atol=1e-12)


def test_normals_unit_and_outward(ellipse21, se4, unit_ball):
    for dom, res in ((ellipse21, 16), (se4, 16), (unit_ball, 8)):
        bq = boundary_quadrature(dom, res)
        norms = np.linalg.norm(bq.normals, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)
        outward = np.sum(bq.normals * (bq.points - np.asarray(dom.center)), axis=-1)
        assert np.all(outward > 0.0)


def test_outward_normal_matches_quadrature(unit_disk):
    bq = boundary_quadrature(unit_disk, 32)
    np.testing.assert_allclose(outward_normal(unit_disk, bq.points), bq.normals, atol=1e-12)


def test_weight_sums_match_surface_measures(unit_disk, unit_ball, ellipse21, se4):
    assert np.sum(boundary_quadrature(unit_disk, 256).weights) == pytest.approx(
        2.0 * math.pi, abs=1e-10
    )
    assert np.sum(boundary_quadrature(unit_ball, 24).weights) == pytest.approx(
        4.0 * math.pi, abs=1e-8
    )
    assert np.sum(boundary_quadrature(ellipse21, 512).weights) == pytest.approx(
        ELLIPSE21_PERIMETER, abs=1e-8
    )
    assert np.sum(boundary_quadrature(se4, 512).weights) == pytest.approx(
        SE4_PERIMETER, abs=1e-8
    )


def test_ellipse_perimeter_oracle_is_self_consistent(ellipse21):
    # recompute the frozen constant: arc length of (2 cos t, sin t)
    def speed(t):
        return math.hypot(2.0 * math.sin(t), math.cos(t))

    got = 4.0 * adaptive_simpson(speed, 0.0, 0.5 * math.pi, tol=1e-13)
    assert got == pytest.approx(ELLIPSE21_PERIMETER, abs=1e-11)


def test_phase_rotates_nodes_but_keeps_the_measure(se4):
    a = boundary_quadrature(se4, 64)
    b = boundary_quadrature(se4, 64, phase=0.37)
    assert not np.allclose(a.points, b.points)
    # both phases sample the same curve; each sum carries only its own
    # angular discretisation error
    assert np.sum(a.weights) == pytest.approx(SE4_PERIMETER, abs=1e-7)
    assert np.sum(b.weights) == pytest.approx(SE4_PERIMETER, abs=1e-7)


# ---------------------------------------------------------------------------
# support widths and distances


def test_support_halfwidth_values(unit_ball, ellipse21):
    assert support_halfwidth(unit_ball, (0.0, 0.0, 1.0)) == pytest.approx(1.0)
    assert support_halfwidth(ellipse21, (1.0, 0.0)) == pytest.approx(2.0)
    assert support_halfwidth(ellipse21, (0.0, 1.0)) == pytest.approx(1.0)
    d = 1.0 / math.sqrt(2.0)
    assert support_halfwidth(ellipse21, (d, d)) == pytest.approx(math.sqrt(2.5))


def test_support_halfwidth_superellipse_diagonal():
    # max of (x + y)/sqrt(2) on the exponent-4 unit curve is 2^{1/4}
    se = superellipse((0.0, 0.0), (1.0, 1.0), 4.0)
    d = 1.0 / math.sqrt(2.0)
    assert support_halfwidth(se, (d, d)) == pytest.approx(2.0**0.25, rel=1e-12)


@pytest.mark.parametrize("domain", ["ball", "se4"])
def test_support_halfwidth_batch_equals_the_per_direction_calls(se4, domain):
    """One call on a batch of directions gives the bits of one call per
    direction: the correction's default direction set on an off-centre ball,
    and a dense angular set on the exponent-4 superellipse."""
    if domain == "ball":
        dom = ellipsoid((0.1, -0.2, 0.05), (0.7, 0.7, 0.7))
        dirs, _ = _angular_set(3, ReconstructionOptions().k_angular)
    else:
        dom = se4
        dirs, _ = _angular_set(2, 1024)
    got = support_halfwidth(dom, dirs)
    assert isinstance(got, np.ndarray) and got.shape == (dirs.shape[0],)
    np.testing.assert_array_equal(got, support_halfwidth_per_direction(dom, dirs))
    one = support_halfwidth(dom, dirs[3])
    assert isinstance(one, float) and one == got[3]


def test_support_halfwidth_touches_the_domain(se4):
    # the halfwidth is attained: some boundary point projects onto it
    th = np.array([0.6, 0.8])
    w = support_halfwidth(se4, th)
    bq = boundary_quadrature(se4, 512)
    proj = bq.points @ th
    assert proj.max() == pytest.approx(w, abs=1e-4)
    assert proj.max() <= w + 1e-12


def test_boundary_distance_values(unit_disk, ellipse21):
    assert boundary_distance(unit_disk, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-9)
    assert boundary_distance(unit_disk, (0.5, 0.0)) == pytest.approx(0.5, abs=1e-9)
    assert boundary_distance(ellipse21, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-6)


def test_boundary_distance_superellipse_center():
    # nearest rim point of the exponent-4 unit curve sits on an axis
    se = superellipse((0.0, 0.0), (1.0, 1.0), 4.0)
    assert boundary_distance(se, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-6)


def test_boundary_distance_shrinks_toward_the_rim(se4):
    d_center = boundary_distance(se4, (0.0, 0.0))
    d_mid = boundary_distance(se4, (0.6, 0.0))
    d_edge = boundary_distance(se4, (1.1, 0.0))
    assert d_center > d_mid > d_edge > 0.0


# the superellipse search resolves the nearest rim point to about 1e-10 of
# the domain scale (an ellipsoid's root is exact to rounding), so two routes
# to the same minimum agree to that resolution
DISTANCE_RESOLUTION = 1e-9


@pytest.mark.parametrize(
    "name, lo, hi, shape",
    [
        ("ellipse21", (-0.3, -0.6), (0.7, 0.4), (6, 5)),
        ("se4", (-0.1, -0.25), (0.6, 0.45), (5, 6)),
        # the third axis has one sample, at lo = 0; hi = 0.6 is no grid point
        ("unit_ball", (-0.5, -0.4, 0.0), (0.5, 0.3, 0.6), (5, 4, 1)),
    ],
)
def test_grid_margin_equals_the_minimum_over_every_grid_point(request, name, lo, hi, shape):
    domain = request.getfixturevalue(name)
    grid = ImageGrid(lo, hi, shape)
    brute = min(boundary_distance(domain, p) for p in grid.points())
    got, corner = grid_margin(domain, grid.axes())
    assert got == pytest.approx(brute, abs=DISTANCE_RESOLUTION)
    assert any(np.array_equal(corner, p) for p in grid.points())
    assert len(grid_corners(domain, grid.axes())) == 2 ** sum(k > 1 for k in shape)
    assert _grid_margin(domain, grid) == got
    if name == "unit_ball":
        # corners taken at (lo, hi) would understate the margin
        box = min(boundary_distance(domain, c) for c in itertools.product(*zip(lo, hi)))
        assert box < brute - 0.1


# an ellipse, the exponent-4 superellipse, an off-centre ellipsoid with three
# different semi-axes and the ball, each with a grid whose corners lie inside
_BATCH_CASES = [
    ("ellipse21", (-0.3, -0.6), (0.7, 0.4), (6, 5)),
    ("se4", (-0.1, -0.25), (0.6, 0.45), (5, 6)),
    ("ellipsoid3", (-0.4, -0.3, -0.2), (0.5, 0.3, 0.25), (3, 4, 2)),
    ("unit_ball", (-0.5, -0.5, 0.0), (0.5, 0.5, 0.0), (15, 15, 1)),
]


@pytest.fixture(scope="module")
def ellipsoid3():
    return ellipsoid((0.1, 0.0, -0.1), (1.2, 0.8, 0.6))


def _reference_distance(domain):
    """The per-point search of a superellipse, which keeps its bits; an
    ellipsoid's own single-point call, whose exactness the tests below check
    by independent routes."""
    return boundary_distance_per_point if domain.kind == "superellipse" else boundary_distance


@pytest.mark.parametrize("name, lo, hi, shape", _BATCH_CASES)
def test_batched_boundary_distances_equal_the_per_point_ones(request, rng, name, lo, hi, shape):
    """A batch gives each point the bits of its own search or root, and so
    does a single point."""
    domain = request.getfixturevalue(name)
    n = domain.dimension
    pts = np.asarray(domain.center) + (rng.random((40, n)) - 0.5) * np.asarray(domain.semi_axes)
    pts = np.vstack([pts[contains(domain, pts)], grid_corners(domain, ImageGrid(lo, hi, shape).axes())])
    single = [boundary_distance(domain, p) for p in pts]
    assert all(type(d) is float for d in single)
    np.testing.assert_array_equal(boundary_distance(domain, pts), single)
    if domain.kind == "superellipse":
        np.testing.assert_array_equal(single, [boundary_distance_per_point(domain, p) for p in pts])


@pytest.mark.parametrize("name, lo, hi, shape", _BATCH_CASES)
def test_batched_margins_equal_the_per_corner_distances(request, name, lo, hi, shape):
    domain = request.getfixturevalue(name)
    distance = _reference_distance(domain)
    axes = ImageGrid(lo, hi, shape).axes()
    want = min((distance(domain, c), c) for c in grid_corners(domain, axes))
    assert grid_margin(domain, axes) == want
    n = domain.dimension
    centres = [(0.1, -0.05, 0.0), (-0.3, 0.2, 0.1), (0.9, 0.0, 0.0), (1.5, 0.1, 0.0)]
    for bumps in (centres[:1], centres[:2], centres):
        f = Phantom(tuple(Bump(center=c[:n], radius=0.15 + 0.1 * i) for i, c in enumerate(bumps)))
        assert support_margin(f, domain) == support_margin_per_bump(f, domain, distance)
    assert support_margin(Phantom(()), domain) == math.inf


# a bump of radius 0.345 near the south pole of the unit ball, 4.5e-3 beyond
# the sphere; the sampled 3-D search put the pole on the wrong meridian and
# reported a margin of +2.7e-3 for it
POLE_BUMP = ((0.003, -0.057, -0.657), 0.345)


def _near_z_axis(rng, count, reach):
    """Points scattered about the z-axis (standard deviation 0.01 in x and
    y), |z| <= reach."""
    return np.column_stack([rng.normal(scale=0.01, size=(count, 2)), rng.uniform(-reach, reach, count)])


def test_ball_distances_are_one_minus_the_radius(unit_ball, rng):
    """Within 2 ulps of 1 - |p| where 1 - |p| >= 0.25, so that 2 ulps of the
    result cover the ulp by which |p| itself rounds."""
    pts = np.vstack([POLE_BUMP[0], _near_z_axis(rng, 400, 0.7)])
    want = np.array([1.0 - math.hypot(*p) for p in pts])
    assert np.all(want >= 0.25)
    got = boundary_distance(unit_ball, pts)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))


def _nearest_points(domain, pts):
    """The nearest boundary points a^2 y / (a^2 + lam), with the signs of
    p - c, from the secular root t = lam + m; a^2 + lam is taken as
    (a^2 - m) + t, which keeps its digits near the pole lam = -m."""
    from neutrace.geometry import _secular_root

    a2 = np.asarray(domain.semi_axes) ** 2
    y = pts - np.asarray(domain.center)
    t, _ = _secular_root(domain, list(np.abs(y).T))
    return np.asarray(domain.center) + a2 * y / ((a2 - a2.min()) + t[:, None])


@pytest.mark.parametrize("axes", [(1.3, 1.0, 0.8), (1.6, 1.0, 0.7)])
def test_ellipsoid_distances_by_independent_routes(axes, rng):
    """Interior points, points near the z-axis and outside points: the
    nearest point lies on the surface, p - x is normal to it there, |p - x|
    is the distance, and no point of a dense (u, phi) sample is closer."""
    from neutrace.geometry import _distance, _ellipsoid_rim

    domain = ellipsoid((0.1, -0.05, 0.02), axes)
    a = np.asarray(axes)
    inner = (rng.random((200, 3)) - 0.5) * 2.0 * a
    inner = inner[level_value(domain, inner + domain.center) < 1.0]
    outer = rng.normal(size=(40, 3))
    outer *= a * rng.uniform(1.05, 2.0, (40, 1)) / np.linalg.norm(outer, axis=1, keepdims=True)
    near = _near_z_axis(rng, 60, 0.95 * a[2])
    pts = np.asarray(domain.center) + np.vstack([inner, near, outer])
    d = boundary_distance(domain, pts)
    x = _nearest_points(domain, pts)
    assert np.all(np.abs(level_value(domain, x) - 1.0) <= 8 * np.finfo(float).eps)
    np.testing.assert_allclose(_distance(pts, x), d, rtol=1e-14, atol=1e-15)
    inside = contains(domain, pts)
    sign = np.where(inside, -1.0, 1.0)[:, None]
    np.testing.assert_allclose(sign * (pts - x) / d[:, None], outward_normal(domain, x), atol=1e-12)
    u = np.cos(np.linspace(0.0, np.pi, 401))
    phi = np.linspace(0.0, 2.0 * np.pi, 801)
    rim = (np.asarray(domain.center) + _ellipsoid_rim(domain, u[:, None], phi)).reshape(-1, 3)
    sampled = np.array([_distance(rim, p).min() for p in pts])
    assert np.all(sampled >= d - 1e-14)
    assert np.all(sampled <= d + 2e-2)


def test_boundary_distance_edge_cases_raise_no_warning(unit_ball):
    """Centres, points on the major axis in the evolute region (the closed
    branch) and beyond it, equal smallest axes with y_S = 0, and outside
    points; a batch of them keeps each point's single-call bits."""
    ellipse = ellipsoid((0.0, 0.0), (1.5, 1.0))
    spheroid = ellipsoid((0.0, 0.0, 0.0), (1.2, 1.0, 1.0))
    cases = [
        (ellipsoid((0.0, 0.0, 0.0), (0.7, 0.7, 0.7)), (0.0, 0.0, 0.0), 0.7),
        (ellipse, (0.0, 0.0), 1.0),
        # nearest point (0.81, 0.8417...): x1 = a1^2 y1 / (a1^2 - a2^2)
        (ellipse, (0.45, 0.0), math.hypot(0.36, math.sqrt(1.0 - (0.81 / 1.5) ** 2))),
        (ellipse, (1.4, 0.0), 1.5 - 1.4),
        (ellipse, (3.0, 0.0), 1.5),
        (ellipse, (0.0, -2.5), 1.5),
        # nearest point (0.327..., 0.962...) in the (x1, |x_S|) plane
        (spheroid, (0.1, 0.0, 0.0), math.hypot(0.1 / 0.44, math.sqrt(1.0 - 1.44 * (0.1 / 0.44) ** 2))),
        (spheroid, (1.1, 0.0, 0.0), 1.2 - 1.1),
        (spheroid, (0.0, 0.0, 0.3), 0.7),
        (unit_ball, (0.0, 0.0, 2.0), 1.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for domain, p, want in cases:
            assert boundary_distance(domain, p) == pytest.approx(want, rel=4e-15, abs=1e-15)
            # the closed branch and the Newton root agree across y_S = 0
            nudged = np.array(p) + 1e-9 * (np.arange(len(p)) == len(p) - 1)
            assert abs(boundary_distance(domain, nudged) - want) <= 2e-9
        for domain in (ellipse, spheroid):
            pts = np.array([p for dom, p, _ in cases if dom is domain])
            np.testing.assert_array_equal(
                boundary_distance(domain, pts), [boundary_distance(domain, p) for p in pts]
            )
    f = Phantom((Bump(center=(1.5, 0.0, 0.0), radius=0.1),))
    assert support_margin(f, unit_ball) == pytest.approx(-0.4, abs=1e-15)
    f = Phantom((Bump(center=(0.3, 0.0), radius=0.2), Bump(center=(3.0, 0.0), radius=0.5)))
    assert support_margin(f, ellipse) == pytest.approx(-1.0, abs=1e-15)


def test_a_bump_leaving_the_ball_near_the_pole_is_refused(unit_ball):
    from neutrace.cli import ConfigError, parse_config
    from neutrace.forward import ConfigurationError, simulate_traces

    centre, radius = POLE_BUMP
    f = Phantom((Bump(center=centre, radius=radius),))
    assert support_margin(f, unit_ball) < -4e-3
    text = (
        "dimension = 3\ndomain.semi_axes = 1.0, 1.0, 1.0\n"
        f"phantom.bump1.center = {', '.join(map(str, centre))}\nphantom.bump1.radius = {radius}\n"
    )
    with pytest.raises(ConfigError, match=r"support margin -0\.004.* must be positive"):
        parse_config(text)
    with pytest.raises(ConfigurationError, match="support margin .* must be positive"):
        simulate_traces(f, unit_ball, boundary_quadrature(unit_ball, 8), TimeGrid(t_max=3.0, nt=16))


def test_grid_corners_reject_a_corner_outside_the_domain(unit_ball, se4):
    with pytest.raises(ValueError, match=r"grid corner \(-1\.2, 0\.0, 0\.0\) lies outside"):
        grid_corners(unit_ball, ImageGrid((-1.2, 0.0, 0.0), (1.2, 0.0, 0.0), (5, 1, 1)).axes())
    with pytest.raises(ValueError, match="outside the domain"):
        grid_margin(se4, ImageGrid((-0.1, -0.25), (1.2, 0.45), (3, 3)).axes())


def test_domain_diameter(unit_ball, ellipse21):
    assert domain_diameter(unit_ball) == pytest.approx(2.0, abs=1e-9)
    assert domain_diameter(ellipse21) == pytest.approx(4.0, abs=1e-9)
    se = superellipse((0.0, 0.0), (1.0, 1.0), 4.0)
    assert domain_diameter(se) == pytest.approx(2.0 * 2.0**0.25, rel=1e-9)
