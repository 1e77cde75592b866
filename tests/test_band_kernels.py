"""The closed fields' band kernels evaluate all-inside input whole and skip
all-outside input, and build sphere points from direction planes; each
keeps the bits of the masked route it replaced, on all-inside, all-outside,
mixed, 0-d and empty input, and returns an array of its input's shape."""

import numpy as np
import pytest

from neutrace import cli, forward, validation
from neutrace.cli import _lemma_field
from neutrace.forward import _radial_pressure, _radial_slope, radial_pressure
from neutrace.transforms import Bump, Phantom, _mean_directions, bump_radial, bump_radial_deriv, sphere_means
from neutrace.validation import _radial_primitive, _radial_velocity

from _oracles import (
    assert_same_bits,
    bump_radial_deriv_masked,
    bump_radial_masked,
    radial_pressure_masked,
    radial_velocity_stacked,
    sphere_means_ray_points,
)

_BUMPS = [
    Bump(center=(0.1, 0.0, 0.0), radius=0.35),
    Bump(center=(0.0, 0.2, -0.1), radius=0.3, amplitude=-0.8, profile="poly", mu=3),
    Bump(center=(0.0, 0.0, 0.0), radius=0.375, profile="poly", mu=2),
]
_BUMP_IDS = ["cinf", "poly-mu3-negative", "poly-mu2"]


def _same(got, want, shape, case=""):
    """``got`` is an array of ``shape`` (not a numpy scalar) with the bits of
    ``want``; ``case`` names the input in a failure."""
    assert isinstance(got, np.ndarray) and got.shape == shape, case
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), case


def _radius_cases(radius, rng):
    """Distances all inside the support (negative ones too), none inside
    (the rim included), mixed, a strided view of mixed ones, 0-d on either
    side and empty, with their names."""
    inside = rng.uniform(-0.99, 0.99, (5, 7)) * radius
    outside = np.concatenate([[radius, -radius], rng.uniform(1.0, 3.0, 11) * radius])
    mixed = rng.uniform(0.0, 2.0, (4, 9)) * radius
    return {
        "all-inside": inside,
        "none-inside": outside,
        "mixed": mixed,
        "mixed-strided": mixed.T[::2],
        "0-d-inside": np.float64(0.5 * radius),
        "0-d-outside": np.array(1.5 * radius),
        "empty": np.empty(0),
        "empty-2d": np.empty((3, 0)),
    }


@pytest.mark.parametrize("n", [None, 2])
@pytest.mark.parametrize("bump", _BUMPS, ids=_BUMP_IDS)
def test_bump_profiles_equal_the_masked_route(bump, n, rng):
    for name, rho in _radius_cases(bump.radius, rng).items():
        shape = np.shape(rho)
        _same(bump_radial(bump, rho, n), bump_radial_masked(bump, rho, n), shape, name)
        _same(bump_radial_deriv(bump, rho, n), bump_radial_deriv_masked(bump, rho, n), shape, name)
    assert np.all(bump_radial(bump, np.array([bump.radius, 2.0 * bump.radius])) == 0.0)
    assert np.all(bump_radial(bump, np.array([0.0, 0.5 * bump.radius])) != 0.0)


@pytest.mark.parametrize("bump", _BUMPS, ids=_BUMP_IDS)
def test_one_point_profiles_keep_the_bits_of_the_array_loops(bump, rng):
    """At a 0-d distance the profile is an array with the bits of a one-entry
    array, even where numpy's scalar power differs from its array loop."""
    for rho in rng.uniform(-0.99, 0.99, 64) * bump.radius:
        for value in (np.float64(rho), np.array(rho)):
            _same(bump_radial(bump, value), bump_radial_masked(bump, value), ())
            _same(bump_radial_deriv(bump, value), bump_radial_deriv_masked(bump, value), ())


def _field_cases(radius, rng):
    """(d, t >= 0) pairs whose ends t +- d lie all inside the support, all
    outside it, on both sides of it, near the centre (below the small-d cutoff) at
    one point or among others, broadcast, 0-d and empty, with their names."""
    cut = 1e-8 * radius
    d_mixed = rng.uniform(0.0, 1.5, 40)
    return {
        "all-inside": (rng.uniform(0.0, 0.4, 30) * radius, rng.uniform(0.0, 0.5, 30) * radius),
        "none-inside": (rng.uniform(0.0, 1.0, 30), rng.uniform(3.0, 4.0, 30) * radius + 1.0),
        "mixed": (d_mixed, np.abs(d_mixed + rng.uniform(-1.5, 1.5, 40) * radius)),
        "near-centre": (np.array([0.0, 0.5 * cut, 2.0 * cut, 0.3]), np.array([0.1, 0.2, 0.2, 0.25])),
        "broadcast": (rng.uniform(0.0, 1.0, (6, 1)), np.linspace(0.0, 1.6, 17)),
        "0-d": (np.float64(0.2), 0.2 + 0.5 * radius),
        "0-d-centre": (0.0, 0.5 * radius),
        "0-d-outside": (0.1, 3.0),
        "empty": (np.empty(0), np.empty(0)),
        "empty-against-one": (np.empty((2, 0)), 0.3),
    }


@pytest.mark.parametrize("bump", _BUMPS, ids=_BUMP_IDS)
def test_one_point_fields_keep_the_bits_of_the_array_loops(bump, rng):
    rim = _radial_primitive(bump, bump.radius)
    for d, t in rng.uniform(0.0, 0.9, (64, 2)) * bump.radius:
        for dd, tt in ((np.float64(d), t), (np.array(d), np.array(t))):
            _same(radial_pressure(bump, dd, tt), radial_pressure_masked(bump, dd, tt), ())
            _same(_radial_velocity(bump, dd, tt, rim), radial_velocity_stacked(bump, dd, tt), ())


@pytest.mark.parametrize("bump", _BUMPS, ids=_BUMP_IDS)
def test_radial_pressure_equals_the_masked_route(bump, rng):
    for name, (d, t) in _field_cases(bump.radius, rng).items():
        shape = np.broadcast_shapes(np.shape(d), np.shape(t))
        want = radial_pressure_masked(bump, d, t)
        _same(_radial_pressure(bump, d, t), want, shape, name)
        _same(radial_pressure(bump, d, t), want, shape, name)


@pytest.mark.parametrize("bump", _BUMPS, ids=_BUMP_IDS)
def test_radial_slope_equals_the_masked_route(bump, rng, monkeypatch):
    cases = [(d, t) for d, t in _field_cases(bump.radius, rng).values() if np.all(np.asarray(d) > 0.0)]
    got = [_radial_slope(bump, np.asarray(d), np.asarray(t)) for d, t in cases]
    monkeypatch.setattr(forward, "bump_radial", bump_radial_masked)
    monkeypatch.setattr(forward, "bump_radial_deriv", bump_radial_deriv_masked)
    for (d, t), one in zip(cases, got):
        assert_same_bits(one, _radial_slope(bump, np.asarray(d), np.asarray(t)))


@pytest.mark.parametrize("bump", _BUMPS, ids=_BUMP_IDS)
def test_radial_velocity_equals_the_stacked_route(bump, rng):
    rim = _radial_primitive(bump, bump.radius)
    for name, (d, t) in _field_cases(bump.radius, rng).items():
        shape = np.broadcast_shapes(np.shape(d), np.shape(t))
        want = radial_velocity_stacked(bump, d, t)
        _same(_radial_velocity(bump, d, t, rim), want, shape, name)
        _same(validation.radial_velocity(bump, d, t), want, shape, name)


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_means_on_direction_planes_equal_the_ray_points_route(n, rng):
    """The mean directions are one set of contiguous coordinate planes, and
    the means built from them have the bits of the stride-n route, for
    radii of any shape and fields read by plane or by point."""
    dirs, _ = _mean_directions(n, 16)
    assert all(dirs[:, k].flags.c_contiguous for k in range(n)) and not dirs.flags.writeable
    centre = rng.uniform(-0.3, 0.3, n)
    f = Phantom(
        (
            Bump(center=tuple(centre + 0.2), radius=0.9),
            Bump(center=tuple(centre - 0.3), radius=0.6, amplitude=-0.4, profile="poly", mu=3),
        )
    )
    radii = [0.4, np.float64(-0.7), rng.uniform(-2.0, 2.0, 7), rng.uniform(0.0, 2.0, (5, 4, 3)),
             rng.uniform(0.0, 1.0, (2, 1)), np.empty(0)]
    for field in (f, _lemma_field(n)):
        for r in radii:
            got = sphere_means(field, centre, r, 16, n=n)
            assert got.shape == np.shape(r)
            assert_same_bits(got, sphere_means_ray_points(field, centre, r, 16, n=n))
    with pytest.raises(ValueError, match=f"centre has {n + 1} coordinates, the directions {n}"):
        sphere_means(f, np.zeros(n + 1), np.array([0.2, 0.3]), 8, n=n)


# the benchmark's 3-D ball round trip and validate config at seed 1
_BALL3D = """\
dimension = 3
domain.semi_axes = 1.0, 1.0, 1.0
phantom.bump1.radius = 0.35
phantom.bump1.center = 0.099672, -0.000139, 0.000191
phantom2.bump1.radius = 0.4
phantom2.bump1.center = -0.050378, 0.100382, -0.000450
time.t_max = 3.0
time.nt = 300
validate.level = 0
"""


def _masked_routes(monkeypatch):
    monkeypatch.setattr(forward, "bump_radial", bump_radial_masked)
    monkeypatch.setattr(forward, "bump_radial_deriv", bump_radial_deriv_masked)
    monkeypatch.setattr(forward, "_radial_pressure", radial_pressure_masked)
    monkeypatch.setattr(validation, "bump_radial", bump_radial_masked)
    monkeypatch.setattr(validation, "_radial_velocity", radial_velocity_stacked)
    monkeypatch.setattr(validation, "sphere_means", sphere_means_ray_points)


def test_validate_report_bytes_equal_the_masked_routes(tmp_path, monkeypatch):
    """``neutrace validate`` on the 3-D ball writes the same report on a rerun
    and with every band kernel and the sphere means on their masked routes."""
    config = tmp_path / "ball3d.cfg"
    config.write_text(_BALL3D)

    def report(name):
        out = tmp_path / name
        assert cli.main(["validate", "--config", str(config), "--out", str(out)]) == 0
        return out.read_bytes()

    first = report("first.csv")
    assert report("again.csv") == first
    _masked_routes(monkeypatch)
    assert report("masked.csv") == first
    rows = first.decode().splitlines()[1:]
    assert len(rows) == 7 and all(row.endswith(",pass") for row in rows)
    assert sum(row.startswith(("lemma-coefficients", "integral-identity")) for row in rows) == 3
