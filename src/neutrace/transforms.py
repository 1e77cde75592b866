"""Phantoms, spherical means and the integral-transform tool chain.

The reconstruction correction operator needs high derivatives in the
offset variable of the Radon transform of the domain indicator, with a
Hilbert transform interposed in even dimension.  It is obtained by
tabulating the transform on a grid of offsets for each direction and
differentiating the table, wrapped up in a :class:`KernelProfile` per
direction.  On an ellipsoid the composite vanishes; its closed form, and
the finite-difference derivatives of single section profiles, live with
the reference routes in ``tests/_oracles.py``.  The profiles of a whole
set of directions are built together: one batched chord search over
every (direction, offset) pair supplies all their section values.  On a
superellipse it tells hits from misses at a closed-form inside point and
finds both ends of every chord in one run of monotone Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import (
    _leggauss,
    _sphere_rule,
    gamma_fn,
    gauss_legendre,
    interp_cubic,
    richardson,
    stencil_apply,
    unit_ball_volume,
)
from .geometry import (
    ELLIPSOID,
    ConvexDomain,
    _level_slope,
    _ray_points,
    level_value,
    support_halfwidth,
)

__all__ = [
    "Bump",
    "Phantom",
    "KernelProfile",
    "OutOfRegionError",
    "sphere_means",
    "circle_means",
    "mollifier_eval",
    "mollifier_radon",
    "build_kernel_profile",
    "bump_radial",
    "bump_radial_deriv",
]

CINF = "cinf"
POLY = "poly"

_UNIT_TOL = 1e-9
#: Newton steps allowed per superellipse chord end; from the box exit, where
#: the level is at most 2, an end takes at most 29 for exponents 2 to 1e6 at
#: offsets up to 1e-16 from tangency, and 10 at p = 4 away from it
CHORD_NEWTON_STEPS = 64
#: Gauss nodes (even) on each bump's arc of a circle mean; the radius-0.5
#: bump's 2-D field 0.3 from its centre at t = 0.7 (radial_quad 192) is off
#: its reference by 1.4e-6 at 16 nodes, 5.2e-8 at 24 and 3.2e-10 at 32
ARC_NODES = 32


class OutOfRegionError(ValueError):
    """Kernel evaluation requested too close to a tangent chord."""


# ---------------------------------------------------------------------------
# phantoms


@dataclass(frozen=True)
class Bump:
    """Radially symmetric bump supported on a ball.

    ``cinf`` is the peak-normalised smooth bump exp(1 - 1/(1 - r^2));
    ``poly`` is the unit-mass polynomial mollifier (1 - r^2)^mu / a of
    smoothness C^{mu-1}, scaled by the amplitude in both cases.
    """

    center: tuple[float, ...]
    radius: float
    amplitude: float = 1.0
    profile: str = CINF
    mu: int = 2

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.center, self.radius, self.amplitude)):
            raise ValueError(
                f"bump centre, radius and amplitude must be finite, got {self.center}, "
                f"{self.radius}, {self.amplitude}"
            )
        if self.radius <= 0:
            raise ValueError(f"bump radius must be positive, got {self.radius}")
        if self.profile not in (CINF, POLY):
            raise ValueError(f"unknown bump profile {self.profile!r}")
        if self.profile == POLY and self.mu < 1:
            raise ValueError(f"poly bump needs mu >= 1, got {self.mu}")

    @property
    def dimension(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Phantom:
    """Finite sum of bumps; the initial pressure of the wave field."""

    bumps: tuple[Bump, ...]

    def __post_init__(self):
        if not self.bumps:
            return
        dims = {b.dimension for b in self.bumps}
        if len(dims) != 1:
            raise ValueError(f"bumps of mixed dimension: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        if not self.bumps:
            raise ValueError("empty phantom has no dimension")
        return self.bumps[0].dimension

    def eval(self, points):
        """Evaluate at an (..., n) array of points; raises ValueError when
        the points have other than n coordinates."""
        pts = np.asarray(points, dtype=float)
        if self.bumps and pts.shape[-1] != self.dimension:
            raise ValueError(f"points have {pts.shape[-1]} coordinates, the phantom {self.dimension}")
        flat = pts if pts.ndim > 1 else pts[None]
        out = np.zeros(flat.shape[:-1])
        for b in self.bumps:
            r2 = _scaled_radius2(flat, b.center, b.radius)
            inside = r2 < 1.0
            out[inside] += _bump_profile(b, r2[inside], b.dimension)
        return out.reshape(pts.shape[:-1])

    def peak(self) -> float:
        """Largest |f| at the bump centres: a scale of f, not a bound, since
        overlapping bumps can exceed it between them.  Its users divide a
        residual by it or multiply a tolerance by it, so a low value makes
        them stricter, not laxer."""
        if not self.bumps:
            return 0.0
        centers = np.array([b.center for b in self.bumps], dtype=float)
        return float(np.abs(self.eval(centers)).max())


def _scaled_radius2(pts, center, scale):
    """Sum of ((x_k - c_k) / scale)^2 over the coordinates of points
    (m, ..., n), m >= 1, added one plane at a time in axis order: the bits
    of the sum along the last axis, without numpy's slow path for it."""
    d = [(pts[..., k] - c) / scale for k, c in enumerate(center)]
    r2 = d[0] * d[0]
    for dk in d[1:]:
        r2 += dk * dk
    return r2


def _bump_profile(bump: Bump, u, n: int):
    """Value of a bump in dimension n at squared scaled radii u < 1."""
    if bump.profile == CINF:
        return bump.amplitude * np.exp(1.0 - 1.0 / (1.0 - u))
    a = _mollifier_norm(n, bump.mu)
    return bump.amplitude * (1.0 - u) ** bump.mu / (a * bump.radius**n)


def _bump_slope(bump: Bump, u, n: int):
    """Derivative of :func:`_bump_profile` in u = |x - c|^2 / R^2, at u < 1."""
    if bump.profile == CINF:
        return -_bump_profile(bump, u, n) / (1.0 - u) ** 2
    a = _mollifier_norm(n, bump.mu)
    return -bump.amplitude * bump.mu * (1.0 - u) ** (bump.mu - 1) / (a * bump.radius**n)


def _on_support(inside, fill: float, value, *args) -> np.ndarray:
    """``value(*args)`` where the boolean array ``inside`` holds and ``fill``
    elsewhere, as a fresh array of its shape; ``args`` are arrays of that
    shape and ``value`` works elementwise and returns a new array.
    All-inside input is evaluated whole and all-outside input not at all;
    only mixed input is gathered and scattered, so every entry has the same
    bits on each route.  A 0-d input is gathered too: ``value`` then sees a
    one-entry array, not a numpy scalar, whose power need not have the bits
    of the array loop's."""
    if inside.ndim and inside.all():
        return np.asarray(value(*args), dtype=float)
    out = np.full(inside.shape, fill)
    if inside.any():
        out[inside] = value(*(a[inside] for a in args))
    return out


def bump_radial(bump: Bump, rho, n: int | None = None):
    """Profile value of a single bump at distance rho from its center."""
    n = bump.dimension if n is None else n
    u = (np.asarray(rho, dtype=float) / bump.radius) ** 2
    return _on_support(u < 1.0, 0.0, lambda v: _bump_profile(bump, v, n), u)


def bump_radial_deriv(bump: Bump, rho, n: int | None = None):
    """Radial derivative of :func:`bump_radial`."""
    n = bump.dimension if n is None else n
    rho = np.asarray(rho, dtype=float)
    u = (rho / bump.radius) ** 2

    def slope(v, r):
        return _bump_slope(bump, v, n) * (2.0 * r / bump.radius**2)

    return _on_support(u < 1.0, 0.0, slope, u, rho)


# ---------------------------------------------------------------------------
# spherical means


@lru_cache(maxsize=None)
def _mean_directions(n: int, m: int):
    """Unit directions (N, n) and mean weights (weights sum to one).

    The directions are the transposed view of n contiguous coordinate
    planes, the only copy kept, so the sphere points of
    :func:`sphere_means` read each coordinate of the directions
    contiguously."""
    dirs, wu = _sphere_rule(n, m)
    # (n - 1) m azimuths, and polar weights that sum to n - 1 per azimuth
    w = wu / ((n - 1) * ((n - 1) * m))
    planes = np.ascontiguousarray(dirs.T)
    planes.setflags(write=False)
    w.setflags(write=False)
    return planes.T, w


def sphere_means(f, x, radii, m: int, n: int | None = None):
    """Means of f over spheres around x, batched over an array of radii.

    Negative radii are treated by absolute value, which is what the
    even-in-radius extension of the means requires.  Raises ValueError when
    x has other than n coordinates.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] if n is None else n
    r = np.abs(np.asarray(radii, dtype=float))
    dirs, w = _mean_directions(n, m)
    vals = getattr(f, "eval", f)(_ray_points(x, r[..., None], dirs))
    return np.sum(vals * w, axis=-1)


def circle_means(f: Phantom, x, radii, direction=None):
    """Means of a 2-D phantom, or of <grad f, direction>, over circles of
    radius |r| around x, batched over an array of radii.

    A circle meets the bump (c, R), d = |c - x|, on the arc |theta| < theta_m
    about c - x: 4 r d sin^2(theta_m / 2) = (R - r + d)(R + r - d), and
    theta_m = pi inside the bump, at r = 0 or at d = 0.  Each arc takes the
    ``ARC_NODES``-point Gauss rule; the nodes +-theta share one value at
    u = ((r - d)^2 + 4 r d sin^2(theta / 2)) / R^2.  Across c - x the
    gradient B'(u) 2 (y - c) / R^2 cancels within a pair, so its mean is
    <(c - x) / d, nu> times the mean of B'(u) 2 (r cos theta - d) / R^2.
    Only radii with |r - d| < R are evaluated, and a bump's nodes by
    :func:`_on_support`, whole when every one has u < 1.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"circle means need a centre of 2 coordinates, got shape {x.shape}")
    flat = np.abs(np.asarray(radii, dtype=float)).reshape(-1)
    out = np.zeros(flat.shape)
    s, w = (v[ARC_NODES // 2 :] for v in _leggauss(ARC_NODES))  # the nodes theta > 0
    for bump in f.bumps:
        e = np.asarray(bump.center, dtype=float) - x
        d, big = math.hypot(*e.tolist()), bump.radius
        if direction is not None and d == 0.0:
            continue  # a radial field's gradient averages to zero around its centre
        a = (big - flat + d) * (big + flat - d)  # 4 r d sin^2(theta_m / 2)
        live = np.flatnonzero(a > 0.0)  # |r - d| < R: the circle meets the bump
        rl = flat[live]
        b = np.maximum((rl + d - big) * (rl + d + big), 0.0)  # 4 r d cos^2(theta_m / 2)
        theta_m = 2.0 * np.arctan2(np.sqrt(a[live]), np.sqrt(b))
        theta = theta_m[:, None] * s
        u = (((rl - d) ** 2)[:, None] + 4.0 * d * rl[:, None] * np.sin(0.5 * theta) ** 2) / big**2
        if direction is None:
            vals = _on_support(u < 1.0, 0.0, lambda v: _bump_profile(bump, v, 2), u)
        else:
            along = (rl[:, None] * np.cos(theta) - d) * (2.0 / big**2)
            vals = _on_support(u < 1.0, 0.0, lambda v, a: _bump_slope(bump, v, 2) * a, u, along)
        mean = theta_m / math.pi * np.sum(vals * w, axis=-1)
        if direction is not None:
            mean *= float(e @ np.asarray(direction, dtype=float)) / d
        out[live] += mean
    return out.reshape(np.shape(radii))


# ---------------------------------------------------------------------------
# mollifier pair


def _mollifier_norm(n: int, mu: int) -> float:
    """Normalisation a with integral of (1 - |x|^2)^mu over the unit ball."""
    return math.pi ** (n / 2.0) * gamma_fn(mu + 1.0) / gamma_fn(n / 2.0 + mu + 1.0)


def mollifier_eval(mu: int, eps: float, x, n: int | None = None):
    """Unit-mass mollifier eps^{-n} psi_mu(x / eps) at x (or a batch)."""
    if mu < 1:
        raise ValueError(f"mollifier order must be >= 1, got mu={mu}")
    if eps <= 0:
        raise ValueError(f"mollifier width must be positive, got eps={eps}")
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    n = pts.shape[-1] if n is None else n
    r2 = _scaled_radius2(pts if pts.ndim > 1 else pts[None], (0.0,) * pts.shape[-1], eps)
    a = _mollifier_norm(n, mu)
    out = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** mu / (a * eps**n), 0.0)
    return float(out[0]) if scalar else out


def mollifier_radon(mu: int, eps: float, s, n: int):
    """Radon transform of the mollifier: an explicit one-dimensional profile.

    Equals Gamma(n/2 + mu + 1) / (eps sqrt(pi) Gamma((n-1)/2 + mu + 1)) *
    (1 - s^2/eps^2)^{(n-3)/2 + mu + 1} for |s| < eps and zero beyond, so
    its mass in s is one as well.
    """
    if mu < 1:
        raise ValueError(f"mollifier order must be >= 1, got mu={mu}")
    if eps <= 0:
        raise ValueError(f"mollifier width must be positive, got eps={eps}")
    ss = np.asarray(s, dtype=float)
    scalar = ss.ndim == 0
    z2 = (ss / eps) ** 2
    pref = gamma_fn(n / 2.0 + mu + 1.0) / (eps * math.sqrt(math.pi) * gamma_fn((n - 1) / 2.0 + mu + 1.0))
    power = (n - 3) / 2.0 + mu + 1.0
    out = np.where(z2 < 1.0, pref * (1.0 - np.minimum(z2, 1.0)) ** power, 0.0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Radon transform of the domain indicator


def _check_unit(theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if abs(float(np.linalg.norm(th)) - 1.0) > _UNIT_TOL:
        raise ValueError(f"direction must be a unit vector, got |theta| = {np.linalg.norm(th)}")
    return th


def _centre_offsets(domain: ConvexDomain, dirs) -> np.ndarray:
    """<c, theta> for one direction or each row of a batch, summed over the
    coordinates in axis order, so a direction gets the same bits in a batch
    as on its own."""
    th = np.asarray(dirs, dtype=float)
    c = domain.center
    out = c[0] * th[..., 0]
    for i in range(1, len(c)):
        out = out + c[i] * th[..., i]
    return out


def _sections(domain: ConvexDomain, th: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Section volumes for a batch of directions: row i of the (m, k) centred
    offsets ``sp`` belongs to the unit direction th[i] of the (m, n) array."""
    if domain.kind != ELLIPSOID:
        return _superellipse_chord(domain, th, sp)
    n = domain.dimension
    w = support_halfwidth(domain, th)[:, None]
    z2 = (sp / w) ** 2
    pref = float(np.prod(domain.semi_axes)) * unit_ball_volume(n - 1) / w
    return np.where(z2 < 1.0, pref * (1.0 - np.minimum(z2, 1.0)) ** ((n - 1) / 2.0), 0.0)


def _superellipse_chord(domain: ConvexDomain, th: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Chord lengths for unit directions th (m, 2) at centred offsets sp (m, k).

    The line at offset s' runs through c + s' theta along theta_perp.  With
    q = p / (p - 1) and w the support halfwidth in direction theta, the
    support point x* has coordinates a_i sgn(theta_i) (|a_i theta_i| / w)^(q-1),
    so for |s'| < w the point c + (s'/w) x* lies on the line strictly inside
    the domain; one level-function call there tells hits from misses.  Each
    end of a hit chord is found by Newton's method on the level function
    minus one, started where the line leaves the box |x_i - c_i| <= a_i.
    The chord ends inside that box, and on the box every |d_i| <= 1, so the
    start is outside with a level of at most 2: no |d_i|^p overflows, for
    any exponent, and the iterates come near the root within a few steps.
    The level function is convex along the line (p >= 2), so the iterates
    only move inward and never pass the root; against roundoff they are
    also kept at or beyond the inside point.  An entry stops once its level
    stops falling or its step no longer moves it inward; one still moving
    after CHORD_NEWTON_STEPS steps raises.  Every entry is searched on its
    own, so its chord does not depend on the batch it comes in.
    """
    c = np.asarray(domain.center)
    a = np.asarray(domain.semi_axes)
    q = domain.exponent / (domain.exponent - 1.0)
    perp = np.stack([-th[:, 1], th[:, 0]], axis=-1)
    w = support_halfwidth(domain, th)
    x_star = a * np.sign(th) * (np.abs(a * th) / w[:, None]) ** (q - 1.0)
    tau0 = sp / w[:, None] * np.sum(x_star * perp, axis=-1)[:, None]
    # the line points are kept as coordinate planes, the layout level_value reads
    perp = perp.T[:, :, None]  # (2, m, 1)
    base = c[:, None, None] + sp * th.T[:, :, None]  # chord foot points, (2, m, k)
    inside = level_value(domain, np.moveaxis(base + tau0 * perp, 0, -1)) < 1.0
    rows, cols = np.nonzero((np.abs(sp) < w[:, None]) & inside)
    # both ends of every hit chord in one search: tau runs along theta_perp
    # for the first copy of each line and along -theta_perp for the second,
    # so inward means a smaller tau
    along = perp[:, rows, 0]
    along = np.concatenate([along, -along], axis=1)
    base = np.tile(base[:, rows, cols], 2)
    floor = tau0[rows, cols]
    speed = np.abs(along)
    exits = np.divide(
        a[:, None] - np.sign(along) * (base - c[:, None]), speed,
        out=np.full(speed.shape, np.inf), where=speed > 0.0,
    )
    tau = _chord_ends(domain, base, along, exits.min(axis=0), np.concatenate([floor, -floor]))
    out = np.zeros(sp.shape)
    out[rows, cols] += tau[: rows.size]
    out[rows, cols] += tau[rows.size :]
    return out


def _chord_ends(domain: ConvexDomain, base, along, tau, floor) -> np.ndarray:
    """Newton search of the chord ends on the lines base + tau along
    (coordinate planes (2, L)), each from its box exit ``tau`` towards its
    inside point ``floor``.  The ends still moving are kept as flat,
    contiguous arrays that shrink as ends converge; ``tau`` is updated in
    place and returned."""
    live = np.arange(tau.size)
    t, level = tau, np.inf
    # a stopped end may divide by a zero slope; its quotient is not used
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(CHORD_NEWTON_STEPS):
            points = t * along
            points += base
            value, slope = _level_slope(domain, np.moveaxis(points, 0, -1), np.moveaxis(along, 0, -1))
            # outside, with the level rising outward and still falling from
            # step to step: a level that stops falling has met its roundoff
            move = (value > 1.0) & (slope > 0.0) & (value < level)
            new = value - 1.0
            new /= slope
            np.subtract(t, new, out=new)
            np.maximum(new, floor, out=new)
            step = move & (new < t)
            if not step.all():
                tau[live] = t  # an end that stops keeps its last iterate
                live, new, value, floor = live[step], new[step], value[step], floor[step]
                base, along = base[:, step], along[:, step]
            if not live.size:
                break
            t, level = new, value
        else:
            raise RuntimeError(
                f"superellipse chord search did not converge in {CHORD_NEWTON_STEPS} Newton steps"
            )
    return tau


def _offset_window(domain: ConvexDomain, th: np.ndarray, s, margin: float, order: int):
    """Support halfwidth and centred offsets of the chords at offsets ``s``
    (a scalar or an array); raises OutOfRegionError unless every chord keeps
    ``margin`` from tangency and, for order > 0, is not tangent."""
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    w = support_halfwidth(domain, th)
    sp = _window_offsets(s, _centre_offsets(domain, th), w, margin)
    if order > 0 and np.any(np.abs(sp) >= w):
        raise OutOfRegionError("chord is tangent to the domain")
    return w, sp


def _window_offsets(s, s_center, halfwidth: float, margin: float) -> np.ndarray:
    """Centred offsets s - s_center of chords at offsets ``s``; raises
    OutOfRegionError unless every one lies in the safe window
    |s - s_center| <= halfwidth - margin.  The one window check of both the
    zero-kernel route (:func:`_offset_window`) and :meth:`KernelProfile.eval`.

    An offset at the window edge, s = s_center + (halfwidth - margin), comes
    back from the two roundings of s and s - s_center up to one ulp of
    |s_center| + halfwidth beyond the edge; the window admits twice that."""
    sp = np.asarray(s, dtype=float) - s_center
    slack = 2.0 * np.spacing(abs(float(s_center)) + halfwidth)
    far = np.abs(sp) > halfwidth - margin + slack
    if np.any(far):
        raise OutOfRegionError(
            f"chord offset {sp[far].flat[0]:.6g} outside safe window |s - s_c| <= "
            f"{halfwidth - margin:.6g} (s_c {s_center:.6g}, support halfwidth {halfwidth:.6g}, "
            f"margin {margin:.6g})"
        )
    return sp


# ---------------------------------------------------------------------------
# tabulated kernel profiles


_PAD = 8  # table nodes kept outside the queryable window for FD stencils


@dataclass(frozen=True)
class KernelProfile:
    """Per-direction table of the section profile, optionally its Hilbert
    transform, and offset-derivative columns of both.  Mirror-image
    directions of a domain hold one set of these tables, each with its own
    ``theta``, ``s_center`` and ``s_grid``.

    The query window is the offset range at distance >= ``margin`` from
    tangency; the value grid extends a little beyond it so every window
    point has a full interior difference stencil.
    """

    domain: ConvexDomain
    theta: tuple[float, ...]
    order: int
    margin: float
    with_hilbert: bool
    s_center: float
    halfwidth: float
    s_grid: np.ndarray
    rchi: np.ndarray
    rchi_d: dict
    hrchi: np.ndarray | None
    hrchi_d: dict | None

    @property
    def query_halfwidth(self) -> float:
        return self.halfwidth - self.margin

    def _column(self, order: int, hilbert: bool) -> np.ndarray:
        if hilbert:
            if self.hrchi is None:
                raise ValueError("profile was built without Hilbert columns")
            return self.hrchi if order == 0 else self.hrchi_d[order]
        return self.rchi if order == 0 else self.rchi_d[order]

    def eval(self, s, order: int | None = None, hilbert: bool | None = None):
        order = self.order if order is None else order
        hilbert = self.with_hilbert if hilbert is None else hilbert
        if not 0 <= order <= self.order:
            raise ValueError(f"profile holds derivative orders 0..{self.order}, got {order}")
        ss = np.asarray(s, dtype=float)
        scalar = ss.ndim == 0
        _window_offsets(ss, self.s_center, self.halfwidth, self.margin)
        col = self._column(order, hilbert)
        ds = self.s_grid[1] - self.s_grid[0]
        out = interp_cubic(np.atleast_1d(ss), self.s_grid[0], ds, col)
        return float(out[0]) if scalar else out.reshape(ss.shape)


def _profile_tables(s_grid, rchi_vals, t_nodes, phi_nodes, jac, w):
    """Quadrature part of the Hilbert transform of the section profile on
    the table grid, before the log term and the division by pi.

    Uses the sine substitution t = s_c + w sin(beta), which absorbs the
    root-type edge behaviour of convex section profiles, with the value
    at the singular point subtracted; ``phi_nodes`` are the section values
    at the substituted quadrature nodes ``t_nodes``, ``jac`` their weights.
    The quotients are formed in place; where a node lies within 1e-9 w of
    a grid point (a removable point) the local slope replaces its quotient.
    """
    gap = s_grid[:, None] - t_nodes
    ratio = phi_nodes - rchi_vals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= gap
    tiny = np.abs(gap, out=gap) < 1e-9 * w
    if tiny.any():
        rows, cols = np.nonzero(tiny)
        ratio[rows, cols] = -np.gradient(phi_nodes, t_nodes)[cols]
    ratio *= jac
    return ratio.sum(axis=1)


def _derivative_columns(vals: np.ndarray, steps, order: int) -> dict:
    """Richardson-extrapolated offset derivatives 1..order of stacked
    tables (D, N), row i with step steps[i]."""
    out = {}
    for m_ in range(1, order + 1):
        d1 = stencil_apply(vals, steps, m_, stride=1)
        d2 = stencil_apply(vals, steps, m_, stride=2)
        out[m_] = richardson(d1, d2)
    return out


def build_kernel_profile(
    domain: ConvexDomain,
    theta,
    order: int,
    *,
    margin: float,
    num_table: int = 512,
    num_quad: int = 256,
    with_hilbert: bool | None = None,
) -> KernelProfile:
    """Kernel profile of one direction: the batch of one of :func:`_build_profiles`."""
    return _build_profiles(domain, [theta], order, margin, num_table, num_quad, with_hilbert)[0]


def _check_profile_table(num_table: int, margin: float | None) -> None:
    """Reject a table below 64 points or a margin (if set) that is not positive."""
    if num_table < 64:
        raise ValueError(f"profile table needs >= 64 points, got {num_table}")
    if margin is not None and margin <= 0:
        raise ValueError(f"profile margin must be positive, got {margin}")


def _table_grids(centres, widths, margin: float, num_table: int):
    """Half-span v and offset grids centres + linspace(-v, v) of the kernel
    tables of directions with support centres ``centres`` and halfwidths
    ``widths``: num_table offsets each, _PAD of them beyond the query window
    at either end."""
    v = (widths - margin) / (1.0 - 2.0 * _PAD / (num_table - 1))
    return v, centres[:, None] + np.linspace(-v, v, num_table, axis=-1)


def _build_profiles(domain, thetas, order, margin, num_table, num_quad, with_hilbert):
    """Kernel profiles of a list of directions.

    Each direction's table grid, and its Hilbert quadrature nodes when the
    profile carries Hilbert columns, are laid out as one row of offsets,
    and the section values of all rows come from one batched
    :func:`_sections` call.  The Hilbert quadrature runs per direction;
    the log term and the derivative columns are then formed once on the
    stacked (D, N) tables, and each profile holds rows of the stacks.
    """
    n = domain.dimension
    if with_hilbert is None:
        with_hilbert = n % 2 == 0
    if not 0 < order <= n:
        raise ValueError(f"profile order must lie in 1..{n}, got {order}")
    _check_profile_table(num_table, margin)
    rule = gauss_legendre(num_quad, -0.5 * math.pi, 0.5 * math.pi) if with_hilbert else None
    ths = np.array([_check_unit(theta) for theta in thetas])
    centres = _centre_offsets(domain, ths)
    widths = support_halfwidth(domain, ths)
    v, offsets = _table_grids(centres, widths, margin, num_table)
    bad = (margin >= widths) | (v >= widths * (1.0 - 1e-9))
    if bad.any():
        w = float(widths[np.argmax(bad)])
        if margin >= w:
            raise ValueError(f"margin {margin} exceeds the support halfwidth {w}")
        raise ValueError(
            f"margin {margin} too small for a {num_table}-point table; "
            "increase the margin or the table size"
        )
    if with_hilbert:
        nodes = centres[:, None] + widths[:, None] * np.sin(rule.nodes)
        offsets = np.concatenate([offsets, nodes], axis=1)
    values = _sections(domain, ths, offsets - centres[:, None])
    s_grid, rchi = offsets[:, :num_table], values[:, :num_table]
    steps = s_grid[:, 1] - s_grid[:, 0]
    rchi_d = _derivative_columns(rchi, steps, order)
    hrchi = hrchi_d = None
    if with_hilbert:
        jac = widths[:, None] * np.cos(rule.nodes) * rule.weights
        core = np.array([
            _profile_tables(g, r, t, phi, j, w)
            for g, r, t, phi, j, w in zip(
                s_grid, rchi, offsets[:, num_table:], values[:, num_table:], jac, widths.tolist()
            )
        ])
        lo, hi = (centres - widths)[:, None], (centres + widths)[:, None]
        hrchi = (core + rchi * np.log((s_grid - lo) / (hi - s_grid))) / math.pi
        hrchi_d = _derivative_columns(hrchi, steps, order)
    return [
        KernelProfile(
            domain=domain,
            theta=tuple(th.tolist()),
            order=order,
            margin=float(margin),
            with_hilbert=with_hilbert,
            s_center=s_center,
            halfwidth=w,
            s_grid=s_grid[i],
            rchi=rchi[i],
            rchi_d={m: col[i] for m, col in rchi_d.items()},
            hrchi=None if hrchi is None else hrchi[i],
            hrchi_d=None if hrchi_d is None else {m: col[i] for m, col in hrchi_d.items()},
        )
        for i, (th, s_center, w) in enumerate(zip(ths, centres.tolist(), widths.tolist()))
    ]
