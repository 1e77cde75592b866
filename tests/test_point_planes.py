"""Point arithmetic done one coordinate plane at a time keeps the bits of the
broadcast forms it replaced, on the shapes the pipeline uses, and rejects
points whose coordinate count differs from the centre's."""

import numpy as np
import pytest

from neutrace import forward, geometry, validation
from neutrace.cli import _lemma_field
from neutrace.forward import SolverParams, TimeGrid, TraceGrid, phantom_pressure
from neutrace.geometry import _distance, _ray_points, boundary_quadrature, ellipsoid
from neutrace.inversion import _node_distances
from neutrace.transforms import Bump, Phantom, _mean_directions, mollifier_eval, sphere_means
from neutrace.validation import check_integral_identity, check_lemma_coefficients, phantom_velocity

from _oracles import (
    assert_same_bits,
    distance_broadcast,
    ellipsoid_rim_on_the_grid,
    mollifier_eval_broadcast,
    phantom_eval_broadcast,
    ray_points_broadcast,
    sphere_means_broadcast,
)

# off-origin centres with negative coordinates
CENTRES = {2: (-0.37, 0.81), 3: (-0.62, 0.18, -1.05)}


def _phantom(n, profile):
    """Two overlapping bumps around the centre of dimension n, one with a
    negative amplitude."""
    c = np.asarray(CENTRES[n])
    return Phantom(
        (
            Bump(center=tuple(c + 0.2), radius=0.9, profile=profile),
            Bump(center=tuple(c - 0.3), radius=0.6, amplitude=-0.4, profile=profile, mu=3),
        )
    )


def _pipeline_shapes(n, rng):
    """Point arrays of the shapes the pipeline forms, around the centre:
    one point, a batch, a block of normal-stencil centres (B, 1, n), a
    Laplacian stencil (B, 7, 1, n) and sphere points (R, M, n)."""
    c = np.asarray(CENTRES[n])
    shapes = [(n,), (57, n), (19, 1, n), (11, 7, 1, n), (3, 40, n)]
    return [c + rng.uniform(-1.3, 1.3, shape) for shape in shapes]


def _gathered_arc_points(c, rng):
    """Radii and directions gathered at random (radius, direction) pairs of
    the 32-point circle rule, as 1-D arrays of equal length."""
    dirs, _ = _mean_directions(2, 32)
    radii = np.concatenate([[0.0], rng.uniform(0.0, 2.5, 40)])
    i, j = np.nonzero(rng.random((radii.size, 32)) < 0.4)
    return radii[i], dirs[j]


@pytest.mark.parametrize("n", [2, 3])
def test_ray_points_equal_the_broadcast(n, rng):
    """The bits of the broadcast, laid out as one C-contiguous plane per
    coordinate."""
    c = np.asarray(CENTRES[n])
    for m in (8, 48):
        dirs, _ = _mean_directions(n, m)
        for r in (0.7, rng.uniform(0.0, 2.0, (3, 1)), rng.uniform(0.0, 2.0, (5, 4, 1))):
            got = _ray_points(c, r, dirs)
            assert all(plane.flags.c_contiguous for plane in np.moveaxis(got, -1, 0))
            assert_same_bits(got, ray_points_broadcast(c, r, dirs))
    if n == 2:
        radii, dirs = _gathered_arc_points(c, rng)
        assert_same_bits(_ray_points(c, radii, dirs), ray_points_broadcast(c, radii, dirs))


@pytest.mark.parametrize("n", [2, 3])
def test_distances_equal_the_broadcast(n, rng):
    centre = np.asarray(CENTRES[n]) + 0.1
    for pts in _pipeline_shapes(n, rng):
        # a bump distance: every point to one centre
        assert_same_bits(_distance(pts, centre), distance_broadcast(pts, centre))
        assert_same_bits(_distance(centre, pts), distance_broadcast(centre, pts))
    # a horizon distance (nodes to a centre) and node distances (points by nodes)
    nodes = np.asarray(CENTRES[n]) + rng.uniform(-2.0, 2.0, (64, n))
    pts = rng.uniform(-1.0, 1.0, (9, n))
    assert_same_bits(_distance(nodes, centre), distance_broadcast(nodes, centre))
    assert_same_bits(_distance(nodes, pts[:, None, :]), distance_broadcast(nodes, pts[:, None, :]))


def test_node_distances_equal_the_broadcast(rng):
    domain = ellipsoid((0.3, -0.4), (1.1, 0.7))
    boundary = geometry.boundary_quadrature(domain, 32)
    traces = TraceGrid(domain, boundary, TimeGrid(t_max=4.0, nt=8), np.zeros((32, 8)), SolverParams())
    pts = rng.uniform(-0.5, 0.5, (13, 2)) + (0.3, -0.4)
    want = distance_broadcast(boundary.points, pts[:, None, :])
    assert_same_bits(_node_distances(traces, pts), want)


@pytest.mark.parametrize("profile", ["cinf", "poly"])
@pytest.mark.parametrize("n", [2, 3])
def test_phantom_eval_equals_the_broadcast(n, profile, rng):
    f = _phantom(n, profile)
    for pts in _pipeline_shapes(n, rng):
        got = f.eval(pts)
        assert_same_bits(got, phantom_eval_broadcast(f, pts))
        assert np.count_nonzero(got) > 0 or pts.ndim == 1
    if n == 2:
        c = np.asarray(CENTRES[2])
        radii, dirs = _gathered_arc_points(c, rng)
        pts = _ray_points(c, radii, dirs)
        assert_same_bits(f.eval(pts), phantom_eval_broadcast(f, pts))


@pytest.mark.parametrize("n", [2, 3])
def test_mollifier_eval_equals_the_broadcast(n, rng):
    for pts in _pipeline_shapes(n, rng):
        pts = pts - np.asarray(CENTRES[n])
        got = mollifier_eval(2, 1.1, pts)
        want = mollifier_eval_broadcast(2, 1.1, pts)
        if pts.ndim == 1:
            assert type(got) is float and got == want
        else:
            assert_same_bits(got, want)


@pytest.mark.parametrize(
    "shape", [(3, 4608), (5, 96), (40,), ()], ids=["3x4608", "5x96", "40", "one-point"]
)
@pytest.mark.parametrize("n", [2, 3])
def test_lemma_field_bits_do_not_depend_on_the_layout(n, shape, rng):
    """The lemma check's quadratic field at C-ordered points and at a
    plane-major view of the same points: the same bits."""
    pts = rng.uniform(-1.5, 1.5, (*shape, n))
    planes = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, -1, 0)), 0, -1)
    assert not planes.flags.c_contiguous or pts.ndim == 1
    np.testing.assert_array_equal(planes, pts)
    g = _lemma_field(n)
    assert np.asarray(g(planes)).tobytes() == np.asarray(g(pts)).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_means_equal_the_broadcast(n, rng):
    """A phantom and the lemma check's quadratic field, both evaluated one
    coordinate plane at a time, so that their bits depend on the points'
    values and not on how ``sphere_means`` lays them out; radii of the
    shapes the forward path and the lemma check use."""
    c = np.asarray(CENTRES[n])
    radii = [0.4, -0.9, rng.uniform(-2.0, 2.0, 7), rng.uniform(0.0, 2.0, (5, 4, 3))]
    for f in (_phantom(n, "cinf"), _lemma_field(n)):
        for r in radii:
            got = sphere_means(f, c, r, 24, n=n)
            assert_same_bits(got, sphere_means_broadcast(f, c, r, 24, n=n))


def test_arc_means_keep_the_bits_of_the_broadcast_means(rng):
    """Means over the 32-point circle rule of a polynomial phantom, radius 0
    included, around an off-origin centre."""
    f = _phantom(2, "poly")
    c = np.asarray(CENTRES[2]) + 0.05
    radii = np.concatenate([[0.0], rng.uniform(0.0, 2.5, 50)])
    assert_same_bits(sphere_means(f, c, radii, 32, n=2), sphere_means_broadcast(f, c, radii, 32, n=2))


def test_rim_equals_the_rim_on_the_grid():
    """A (u, phi) product grid, the boundary quadrature's meshgrid and a
    stack of small grids."""
    domain = ellipsoid((-0.31, 0.12, -0.47), (1.3, 0.8, 0.55))
    u = np.linspace(-1.0, 1.0, 129)
    phi = np.linspace(0.0, 2.0 * np.pi, 257)
    zoom_u = np.clip(np.linspace(u[[3, 64, 120]] - 0.1, u[[3, 64, 120]] + 0.1, 17, axis=-1), -1.0, 1.0)
    zoom_phi = np.linspace(phi[[0, 100, 256]] - 0.02, phi[[0, 100, 256]] + 0.02, 17, axis=-1)
    for uu, pp in (
        (u[:, None], phi),
        np.meshgrid(u, phi, indexing="ij"),
        (zoom_u[:, :, None], zoom_phi[:, None, :]),
    ):
        assert_same_bits(geometry._ellipsoid_rim(domain, uu, pp), ellipsoid_rim_on_the_grid(domain, uu, pp))


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_boundary_quadrature_keeps_the_bits_of_the_rim_on_the_grid(monkeypatch, phase):
    domain = ellipsoid((-0.31, 0.12, -0.47), (1.3, 0.8, 0.55))
    got = boundary_quadrature(domain, 12, phase)
    monkeypatch.setattr(geometry, "_ellipsoid_rim", ellipsoid_rim_on_the_grid)
    want = boundary_quadrature(domain, 12, phase)
    for name in ("points", "normals", "weights"):
        assert_same_bits(getattr(got, name), getattr(want, name))


# ---------------------------------------------------------------------------
# points whose coordinate count differs from the centre's


def test_mismatched_points_raise():
    f3 = _phantom(3, "cinf")
    short = np.array([[0.1]])
    with pytest.raises(ValueError, match="points have 1 coordinates, the phantom 3"):
        f3.eval(short)
    with pytest.raises(ValueError, match="points have 2 coordinates, the phantom 3"):
        f3.eval(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="points have 1 coordinates"):
        phantom_pressure(f3, short, np.array([0.5]))
    with pytest.raises(ValueError, match="points have 1 coordinates"):
        phantom_velocity(f3, short, np.array([0.5]))
    with pytest.raises(ValueError, match="centre has 1 coordinates, the directions 3"):
        sphere_means(f3, (0.1,), np.array([0.2, 0.3]), 8, n=3)
    with pytest.raises(ValueError, match="points have 2 coordinates, the other points 3"):
        _distance(np.zeros((5, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# both validate checks against a run through the broadcast point routes


def _broadcast_routes(monkeypatch):
    monkeypatch.setattr(validation, "sphere_means", sphere_means_broadcast)
    monkeypatch.setattr(Phantom, "eval", phantom_eval_broadcast)
    monkeypatch.setattr(forward, "_distance", distance_broadcast)
    monkeypatch.setattr(validation, "_distance", distance_broadcast)
    monkeypatch.setattr(geometry, "_ellipsoid_rim", ellipsoid_rim_on_the_grid)


def _hex(report, keys=()):
    return [report.lhs.hex(), report.rhs.hex()] + [report.params[k].hex() for k in keys]


@pytest.mark.parametrize("field", ["quadratic", "phantom"])
@pytest.mark.parametrize("n", [2, 3])
def test_lemma_check_equals_the_broadcast_route(monkeypatch, n, field):
    g = _lemma_field(n) if field == "quadratic" else _phantom(n, "cinf")
    x = np.asarray(CENTRES[n]) + 0.15
    got = check_lemma_coefficients(n, (1, 2), g, x, 0.7)
    _broadcast_routes(monkeypatch)
    want = check_lemma_coefficients(n, (1, 2), g, x, 0.7)
    assert [_hex(r) for r in got] == [_hex(r) for r in want]


def test_integral_identity_equals_the_broadcast_route(monkeypatch):
    domain = ellipsoid((-0.1, 0.05, 0.02), (1.1, 1.0, 0.9))
    f = Phantom((Bump(center=(0.1, -0.05, 0.0), radius=0.35),))
    g = Phantom(
        (
            Bump(center=(-0.05, 0.1, -0.1), radius=0.4),
            Bump(center=(0.3, -0.2, 0.1), radius=0.25, amplitude=-0.6, profile="poly"),
        )
    )
    keys = ("term_boundary", "term_volume")
    got = check_integral_identity(f, g, domain)
    _broadcast_routes(monkeypatch)
    want = check_integral_identity(f, g, domain)
    assert _hex(got, keys) == _hex(want, keys)
    assert got.params["velocity_evaluated"] == want.params["velocity_evaluated"] > 0
