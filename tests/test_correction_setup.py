"""The correction's set-up against the per-direction routes it replaced.

The chord search on flat live arrays, the Hilbert tables formed in place,
the profiles finished on stacked tables, K_h assembled by blocks of
directions and the grid's corner weights built from shared factors all give
the bits of the earlier per-direction or per-corner code, which
``tests/_oracles.py`` keeps.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _oracles import (
    assert_same_bits,
    build_profiles_per_direction,
    corners_per_corner,
    correction_matrix_per_direction,
    hilbert_core_dense,
    superellipse_chord_gathered,
)

from neutrace.calculus import gauss_legendre
from neutrace.geometry import superellipse, support_halfwidth
from neutrace.inversion import (
    ImageGrid,
    ReconstructionOptions,
    _angular_set,
    _correction_matrix,
    _correction_quadrature,
    _support_radii,
)
from neutrace.transforms import (
    OutOfRegionError,
    _build_profiles,
    _profile_tables,
    _superellipse_chord,
)

DOMAINS = {
    "se4": superellipse((0.0, 0.0), (1.2, 0.9), 4.0),
    "p2.5-off-centre": superellipse((0.15, -0.1), (1.1, 0.85), 2.5),
    "p8-off-centre": superellipse((-0.1, 0.05), (1.0, 1.2), 8.0),
}


def assert_same_profiles(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.theta, a.order, a.margin, a.with_hilbert) == (b.theta, b.order, b.margin, b.with_hilbert)
        assert (a.s_center, a.halfwidth) == (b.s_center, b.halfwidth)
        for name in ("s_grid", "rchi", "hrchi"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None)
            if x is not None:
                assert_same_bits(x, y)
        for name in ("rchi_d", "hrchi_d"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.keys() == y.keys()
                for k in x:
                    assert_same_bits(x[k], y[k])


@pytest.mark.parametrize("count", [15, 16])
@pytest.mark.parametrize("key", sorted(DOMAINS))
def test_chords_equal_the_gathered_search(key, count):
    """Lines across the domain, near tangency, tangent and missing it, in
    the angular set and along both axes: equal bits, and no warning."""
    domain = DOMAINS[key]
    dirs, _ = _angular_set(2, count)
    dirs = np.concatenate([dirs, [[1.0, 0.0], [0.0, 1.0]]])
    w = support_halfwidth(domain, dirs)
    z = np.concatenate([np.linspace(-0.999, 0.999, 57), [1.0 - 1e-10, -1.0, 1.0, 1.2]])
    sp = w[:, None] * z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _superellipse_chord(domain, dirs, sp)
    assert_same_bits(got, superellipse_chord_gathered(domain, dirs, sp))
    assert np.all(got[:, -2:] == 0.0) and np.all(got[:, :57] > 0.0)


@pytest.mark.parametrize(
    "order,with_hilbert", [(1, False), (2, True)], ids=["order1-plain", "order2-hilbert"]
)
@pytest.mark.parametrize("count", [15, 16])
@pytest.mark.parametrize("key", sorted(DOMAINS) + ["ellipse"])
def test_profiles_equal_the_per_direction_finish(key, count, order, with_hilbert, ellipse21):
    domain = ellipse21 if key == "ellipse" else DOMAINS[key]
    dirs, _ = _angular_set(2, count)
    args = (dirs, order, 0.3, 128, 96, with_hilbert)
    assert_same_profiles(_build_profiles(domain, *args), build_profiles_per_direction(domain, *args))


def test_profiles_equal_the_per_direction_finish_at_removable_points():
    """An odd table and an odd Hilbert rule put a table node on the middle
    Gauss node at s_c, within 1e-9 w: there the local slope replaces the
    quotient, in the new route as in the old."""
    domain = DOMAINS["se4"]
    dirs, _ = _angular_set(2, 15)
    num_table, num_quad, margin = 129, 65, 0.3
    rule = gauss_legendre(num_quad, -0.5 * math.pi, 0.5 * math.pi)
    got = _build_profiles(domain, dirs, 2, margin, num_table, num_quad, True)
    for prof in got:
        nodes = prof.s_center + prof.halfwidth * np.sin(rule.nodes)
        assert np.min(np.abs(prof.s_grid[:, None] - nodes)) < 1e-9 * prof.halfwidth
        assert np.all(np.isfinite(prof.hrchi))
    want = build_profiles_per_direction(domain, dirs, 2, margin, num_table, num_quad, True)
    assert_same_profiles(got, want)


@pytest.mark.parametrize("order", [[0, 1], [1, 0]], ids=["too-small-first", "exceeds-first"])
def test_profiles_raise_the_first_offending_direction_error(order):
    """A margin too small for the wide direction's table and wider than the
    narrow direction's halfwidth: the batch raises the message of the first
    direction whose own build raises."""
    domain = superellipse((0.0, 0.0), (1.0, 0.1), 4.0)
    dirs = [[(1.0, 0.0), (0.0, 1.0)][i] for i in order]
    args = (1, 0.11, 64, 32, False)
    messages = []
    for th in dirs:
        with pytest.raises(ValueError) as one:
            _build_profiles(domain, [th], *args)
        messages.append(str(one.value))
    assert "too small" in messages[order.index(0)] and "exceeds" in messages[order.index(1)]
    with pytest.raises(ValueError) as batch:
        _build_profiles(domain, dirs, *args)
    assert str(batch.value) == messages[0]


def test_hilbert_core_takes_the_local_slope_at_removable_points():
    """Table points within 1e-9 w of a node, one at a gap of 1e-12 and one
    on the node, away from s_c where the profile's slope is not zero: the
    quotient is replaced by the slope there, with the bits of the route
    that always took it, and without a warning."""
    s_c, w = 0.1, 1.0
    rule = gauss_legendre(33, -0.5 * math.pi, 0.5 * math.pi)
    t_nodes = s_c + w * np.sin(rule.nodes)
    s_grid = s_c + np.linspace(-0.9, 0.9, 64)
    s_grid[10], s_grid[40] = t_nodes[5] + 1e-12, t_nodes[20]

    def phi(t):
        z = (t - s_c) / w
        return np.sqrt(1.0 - z * z) * (1.0 + 0.3 * z)

    jac = w * np.cos(rule.nodes) * rule.weights
    args = (s_grid, phi(s_grid), t_nodes, phi(t_nodes), jac, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _profile_tables(*args)
    assert_same_bits(got, hilbert_core_dense(*args))
    assert np.all(np.isfinite(got))


# the benchmark's grid on the exponent-4 superellipse: its support radii
# reach past the grid box, so many samples of every direction lie outside it
BOX = ImageGrid(lo=(-0.1, -0.25), hi=(0.6, 0.45), shape=(7, 7))
OPTS = ReconstructionOptions(k_radial=8, k_angular=16, kernel_table=128, kernel_quad=64, kernel_margin=0.25)


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("count", [15, 16])
@pytest.mark.parametrize("key", sorted(DOMAINS))
def test_correction_matrix_equals_the_per_direction_assembly(key, count, block, monkeypatch):
    """K_h by blocks of directions (all at once, one at a time, three at a
    time) has the bits of the per-direction loop."""
    opts = replace(OPTS, k_angular=count)
    if block is not None:
        per = BOX.points().shape[0] * opts.k_radial
        monkeypatch.setattr("neutrace.inversion.BLOCK_ELEMENTS", block * per)
    pts = BOX.points()
    reach = _support_radii(BOX, pts)[:, None] * gauss_legendre(opts.k_radial, 0.0, 1.0).nodes[-1]
    outer = BOX._corners(pts + reach * _angular_set(2, count)[0][0])[1]
    assert not np.all(np.any(outer != 0.0, axis=0))
    got = _correction_matrix(BOX, DOMAINS[key], opts)
    assert np.abs(got).max() > 0.0
    assert_same_bits(got, correction_matrix_per_direction(BOX, DOMAINS[key], opts))


@pytest.mark.parametrize("count,orbits", [(15, 8), (16, 4), (18, 5), (32, 8)])
@pytest.mark.parametrize("key", sorted(DOMAINS))
def test_profiles_are_built_once_per_mirror_orbit(key, count, orbits, monkeypatch):
    """One build of |theta| per orbit of the axis reflections, in order of
    first appearance: an odd count pairs a with -a and leaves (-1, 0) alone;
    a count of 2 mod 4 holds the orbit {(0, 1), (0, -1)}.  Each direction
    shares its orbit's tables and keeps the theta, centre, halfwidth and
    offset grid of a profile built for it."""
    domain = DOMAINS[key]
    opts = replace(OPTS, k_angular=count)
    builds = []

    def counted(domain, thetas, *args):
        builds.append(np.array(thetas))
        return _build_profiles(domain, thetas, *args)

    monkeypatch.setattr("neutrace.inversion._build_profiles", counted)
    field = replace(BOX, values=np.ones(BOX.shape))
    _, _, dirs, _, profiles = _correction_quadrature(
        field, field.interp, BOX.points(), domain, opts, opts.kernel_margin
    )
    assert len(builds) == 1 and len(builds[0]) == orbits
    reps = builds[0]
    _, first = np.unique(np.abs(dirs), axis=0, return_index=True)
    assert_same_bits(reps, np.abs(dirs)[np.sort(first)])
    args = (2, opts.kernel_margin, opts.kernel_table, opts.kernel_quad, True)
    tables, own = _build_profiles(domain, reps, *args), _build_profiles(domain, dirs, *args)
    for th, prof, mine in zip(dirs, profiles, own):
        rep = tables[int(np.flatnonzero(np.all(reps == np.abs(th), axis=1))[0])]
        for name in ("rchi", "hrchi"):
            assert_same_bits(getattr(prof, name), getattr(rep, name))
        for name in ("rchi_d", "hrchi_d"):
            assert getattr(prof, name).keys() == getattr(rep, name).keys()
            for k, col in getattr(prof, name).items():
                assert_same_bits(col, getattr(rep, name)[k])
        for name in ("theta", "s_center", "halfwidth"):
            assert getattr(prof, name) == getattr(mine, name)
        assert_same_bits(prof.s_grid, mine.s_grid)
    for k in range(orbits):
        members = [p for p, o in zip(profiles, np.abs(dirs)) if np.array_equal(o, reps[k])]
        assert all(p.rchi is members[0].rchi and p.hrchi_d is members[0].hrchi_d for p in members)


def test_correction_matrix_checks_each_direction_window_as_the_loop_did():
    """A margin wider than the grid allows: the first direction whose
    samples leave its window raises, with the message of the loop.  At this
    margin the first directions pass and the fourth (halfwidth 0.993) does
    not."""
    opts = replace(OPTS, kernel_margin=0.6)
    domain = DOMAINS["se4"]
    with pytest.raises(OutOfRegionError, match="outside safe window") as want:
        correction_matrix_per_direction(BOX, domain, opts)
    with pytest.raises(OutOfRegionError) as got:
        _correction_matrix(BOX, domain, opts)
    assert str(got.value) == str(want.value)
    first = support_halfwidth(domain, _angular_set(2, opts.k_angular)[0][0])
    assert f"support halfwidth {first:.6g}" not in str(got.value)


@pytest.mark.parametrize(
    "grid",
    [
        BOX,
        ImageGrid((-0.5, -0.5, 0.0), (0.5, 0.5, 0.0), (15, 15, 1)),
        ImageGrid((-0.4, 0.1, -0.2), (0.5, 0.1, 0.25), (3, 1, 2)),
        ImageGrid((-0.4, -0.3, -0.2), (0.5, 0.3, 0.25), (3, 4, 2)),
        ImageGrid((0.2, -0.1), (0.2, -0.1), (1, 1)),
    ],
    ids=["box-7x7", "slice-15x15x1", "3x1x2", "3x4x2", "point"],
)
def test_corners_equal_the_per_corner_build(grid, rng):
    """Points inside the box, on its faces, on its grid points and outside
    it: equal indices and weights, and equal interpolated values."""
    n = grid.dimension
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    pts = lo + (rng.random((500, n)) * 1.4 - 0.2) * (hi - lo)
    on_faces = lo + rng.integers(0, 2, (60, n)) * (hi - lo)
    flat = np.vstack([pts, on_faces, grid.points()])
    got, want = grid._corners(flat), corners_per_corner(grid, flat)
    assert_same_bits(got[0], want[0])
    assert_same_bits(got[1], want[1])
    field = replace(grid, values=rng.standard_normal(grid.shape))
    out = np.zeros(flat.shape[0])
    for k, w in zip(*want):
        out += w * field.values.reshape(-1)[k]
    assert_same_bits(field.interp(flat), out)
