"""Convex observation domains and their boundary quadratures.

Supported shapes are axis-aligned ellipsoids (any of the two working
dimensions) and planar superellipses |x1/a1|^p + |x2/a2|^p < 1 with
p >= 2.  All operations are plain functions over a frozen dataclass, so
domains are immutable values that compare and hash by their fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import gauss_legendre

__all__ = [
    "ConvexDomain",
    "BoundaryQuadrature",
    "ellipsoid",
    "superellipse",
    "contains",
    "level_value",
    "outward_normal",
    "boundary_quadrature",
    "support_halfwidth",
    "boundary_distance",
    "grid_corners",
    "grid_margin",
    "domain_diameter",
]

ELLIPSOID = "ellipsoid"
SUPERELLIPSE = "superellipse"

@dataclass(frozen=True)
class ConvexDomain:
    kind: str
    center: tuple[float, ...]
    semi_axes: tuple[float, ...]
    exponent: float = 2.0

    def __post_init__(self):
        if self.kind not in (ELLIPSOID, SUPERELLIPSE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if len(self.center) != len(self.semi_axes):
            raise ValueError("center and semi_axes must have equal length")
        n = len(self.center)
        if n not in (2, 3):
            raise ValueError(f"unsupported dimension n={n}, expected 2 or 3")
        if not all(math.isfinite(v) for v in (*self.center, *self.semi_axes, self.exponent)):
            raise ValueError(
                f"domain parameters must be finite, got center {self.center}, "
                f"semi-axes {self.semi_axes}, exponent {self.exponent}"
            )
        if any(a <= 0 for a in self.semi_axes):
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")
        if self.kind == SUPERELLIPSE:
            if n != 2:
                raise ValueError("superellipse domains are two-dimensional")
            if self.exponent < 2:
                raise ValueError(f"superellipse exponent must be >= 2, got {self.exponent}")

    @property
    def dimension(self) -> int:
        return len(self.center)


def ellipsoid(center, semi_axes) -> ConvexDomain:
    return ConvexDomain(ELLIPSOID, tuple(float(c) for c in center), tuple(float(a) for a in semi_axes))


def superellipse(center, semi_axes, exponent) -> ConvexDomain:
    return ConvexDomain(
        SUPERELLIPSE,
        tuple(float(c) for c in center),
        tuple(float(a) for a in semi_axes),
        float(exponent),
    )


def level_value(domain: ConvexDomain, points):
    """Defining level function; < 1 inside, 1 on the boundary, > 1 outside.

    Works one coordinate plane at a time and adds the terms in axis order:
    numpy is slow at broadcasting over, and summing along, a short last axis.
    A single point is handled as a batch of one, since numpy's array power
    can differ from its scalar power in the last bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != domain.dimension:
        raise ValueError(f"points have {pts.shape[-1]} coordinates, the domain {domain.dimension}")
    total = 0.0
    for x, c, a in zip(np.moveaxis(np.atleast_2d(pts), -1, 0), domain.center, domain.semi_axes):
        d = (x - c) / a
        total = total + (d * d if domain.kind == ELLIPSOID else np.abs(d) ** domain.exponent)
    return total if pts.ndim > 1 else total[0]


def _level_slope(domain: ConvexDomain, points, direction):
    """Level function of a superellipse at points (..., 2) and its
    derivative along ``direction`` (broadcast against the points), per point.

    Each coordinate plane raises |d| to the power p - 1 once and gets both
    terms from it: |d|^p = |d|^(p-1) |d| and the slope p sgn(d) |d|^(p-1) u / a.
    The value can therefore differ from :func:`level_value` in the last bits.
    """
    pts = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    dirs = np.moveaxis(np.asarray(direction, dtype=float), -1, 0)
    p = domain.exponent
    value = slope = 0.0
    for x, u, c, a in zip(pts, dirs, domain.center, domain.semi_axes):
        d = (x - c) / a
        size = np.abs(d)
        power = size ** (p - 1.0)
        size *= power
        value = value + size
        np.copysign(power, d, out=power)
        power *= p * u / a
        slope = slope + power
    return value, slope


def contains(domain: ConvexDomain, x) -> bool | np.ndarray:
    """Strict interior test (boundary points are not contained)."""
    v = level_value(domain, x) < 1.0
    return bool(v) if np.ndim(v) == 0 else v


def outward_normal(domain: ConvexDomain, points):
    """Unit outward normal of the level set through each point."""
    pts = np.asarray(points, dtype=float)
    d = pts - np.asarray(domain.center)
    a = np.asarray(domain.semi_axes)
    if domain.kind == ELLIPSOID:
        g = d / a**2
    else:
        p = domain.exponent
        g = np.sign(d) * np.abs(d / a) ** (p - 1.0) / a
    norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
    return g / norm


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Surface quadrature: nodes on the boundary, outward unit normals and
    positive weights summing to (approximately) the surface measure."""

    points: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    resolution: int

    def __len__(self) -> int:
        return self.points.shape[0]


def _superellipse_gauge(domain: ConvexDomain, cos, sin):
    """g = |cos/a1|^p + |sin/a2|^p at angles with these cosines and sines;
    the polar gauge of the superellipse there is r = g^(-1/p)."""
    a1, a2 = domain.semi_axes
    p = domain.exponent
    return (np.abs(cos) / a1) ** p + (np.abs(sin) / a2) ** p


def _superellipse_radius(domain: ConvexDomain, psi):
    """Polar gauge r(psi) of the superellipse and its psi-derivative."""
    a1, a2 = domain.semi_axes
    p = domain.exponent
    c, s = np.cos(psi), np.sin(psi)
    g = _superellipse_gauge(domain, c, s)
    # d/dpsi |cos|^p = -p sin cos |cos|^{p-2} (smooth for p >= 2)
    gp = p * (
        -s * np.sign(c) * np.abs(c) ** (p - 1.0) / a1**p
        + c * np.sign(s) * np.abs(s) ** (p - 1.0) / a2**p
    )
    r = g ** (-1.0 / p)
    rp = -(1.0 / p) * g ** (-1.0 / p - 1.0) * gp
    return r, rp


def _rim_2d(domain: ConvexDomain, psi) -> np.ndarray:
    """Rim points of a planar domain at chart angles ``psi``, relative to its
    centre: the angle map (a1 cos, a2 sin) of the ellipse, the polar gauge
    r(psi)(cos psi, sin psi) of the superellipse."""
    if domain.kind == ELLIPSOID:
        a1, a2 = domain.semi_axes
        return np.stack([a1 * np.cos(psi), a2 * np.sin(psi)], axis=-1)
    r, _ = _superellipse_radius(domain, psi)
    return r[:, None] * np.stack([np.cos(psi), np.sin(psi)], axis=-1)


def _ellipsoid_rim(domain: ConvexDomain, u, phi) -> np.ndarray:
    """Surface points of a 3-D ellipsoid relative to its centre on the
    (u, phi) chart: polar cosine u in [-1, 1] and azimuth phi, arrays that
    broadcast against each other; the points add a last axis of length 3.
    A product grid (u[:, None], phi) takes one sine and cosine per sample."""
    a1, a2, a3 = domain.semi_axes
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    rim = np.empty(np.broadcast(u, phi).shape + (3,))
    np.multiply(a1 * st, np.cos(phi), out=rim[..., 0])
    np.multiply(a2 * st, np.sin(phi), out=rim[..., 1])
    rim[..., 2] = a3 * u
    return rim


def boundary_quadrature(
    domain: ConvexDomain, resolution: int, phase: float = 0.0
) -> BoundaryQuadrature:
    """Build the boundary node set at the requested resolution.

    n = 2: ``resolution`` equally spaced parameter values with arc-length
    Jacobian weights (trapezoid rule on a periodic integrand).  The
    ellipse uses the angle parametrisation (a1 cos, a2 sin); the
    superellipse uses the polar gauge r(psi)(cos psi, sin psi), which is
    smooth for even exponents where the signed-power map is not.

    n = 3 (ellipsoid): product rule with ``resolution`` Gauss-Legendre
    nodes in the polar cosine and ``2 * resolution`` uniform azimuths,
    hence ``2 * resolution**2`` nodes in total.

    ``phase`` rotates the equally spaced angles (the periodic direction),
    which leaves the integral unchanged up to quadrature error; useful for
    probing angular discretisation effects.
    """
    if resolution < 8:
        raise ValueError(f"boundary resolution must be >= 8, got {resolution}")
    c = np.asarray(domain.center)
    n = domain.dimension
    if n == 2:
        psi = 2.0 * np.pi * np.arange(resolution) / resolution + phase
        pts = c + _rim_2d(domain, psi)
        if domain.kind == ELLIPSOID:
            a1, a2 = domain.semi_axes
            speed = np.sqrt((a1 * np.sin(psi)) ** 2 + (a2 * np.cos(psi)) ** 2)
        else:
            r, rp = _superellipse_radius(domain, psi)
            speed = np.sqrt(r * r + rp * rp)
        w = (2.0 * np.pi / resolution) * speed
        return BoundaryQuadrature(pts, outward_normal(domain, pts), w, resolution)

    # n == 3, ellipsoid only
    a1, a2, a3 = domain.semi_axes
    rule = gauss_legendre(resolution, -1.0, 1.0)
    nphi = 2 * resolution
    phi = 2.0 * np.pi * np.arange(nphi) / nphi + phase
    u, ph = np.meshgrid(rule.nodes, phi, indexing="ij")
    wu, _ = np.meshgrid(rule.weights, phi, indexing="ij")
    pts = c + _ellipsoid_rim(domain, u, ph)
    jac = np.sqrt(
        (a2 * a3) ** 2 * (1.0 - u * u) * np.cos(ph) ** 2
        + (a1 * a3) ** 2 * (1.0 - u * u) * np.sin(ph) ** 2
        + (a1 * a2) ** 2 * u * u
    )
    w = wu * (2.0 * np.pi / nphi) * jac
    pts = pts.reshape(-1, 3)
    return BoundaryQuadrature(pts, outward_normal(domain, pts), w.reshape(-1), resolution)


def support_halfwidth(domain: ConvexDomain, theta):
    """Support function of the centered domain in direction theta (n,), as
    a float, or in each direction of a batch (m, n), as an array.

    Chords at offset s touch the domain when |s - <center, theta>| equals
    this value; larger offsets miss it entirely.  Each direction's value is
    computed on its own row, so a batch gives the bits of one call per
    direction.  The superellipse's final root stays a scalar power per
    direction, because numpy's array power rounds differently from its
    scalar power.
    """
    th = np.asarray(theta, dtype=float)
    a = np.asarray(domain.semi_axes)
    if domain.kind == ELLIPSOID:
        w = np.sqrt(np.sum((a * th) ** 2, axis=-1))
        return float(w) if th.ndim == 1 else w
    p = domain.exponent
    q = p / (p - 1.0)
    sums = np.sum(np.abs(a * th) ** q, axis=-1)
    if th.ndim == 1:
        return float(sums ** (1.0 / q))
    return np.array([s ** (1.0 / q) for s in sums])


def boundary_distance(domain: ConvexDomain, points):
    """Distance from a point (n,) to the boundary surface, as a float, or
    from each point of a batch (m, n), as an array.

    On an ellipsoid the nearest boundary point is the root of one secular
    equation (:func:`_ellipsoid_distance`), and the distance is exact to
    rounding, inside the domain and outside it.  A superellipse takes a
    dense angle sample and a golden-section refinement, run for the whole
    batch in lockstep, accurate to about 1e-10 of the domain scale.  Each
    point's work does not depend on the others, so a batch gives the
    distances of one call per point.
    """
    pts = np.asarray(points, dtype=float)
    p = np.atleast_2d(pts)
    d = _ellipsoid_distance(domain, p) if domain.kind == ELLIPSOID else _superellipse_distance(domain, p)
    return d if pts.ndim > 1 else float(d[0])


def _superellipse_distance(domain: ConvexDomain, p) -> np.ndarray:
    """Distances from points (m, 2) to the rim of a superellipse: the
    nearest of 1024 equally spaced angles, then 60 golden-section steps."""
    (c1, c2), (p1, p2) = domain.center, p.T
    inv = -1.0 / domain.exponent

    def dist_at(psi):
        # the rim point of _rim_2d and the sum of _distance, with their bits
        cos, sin = np.cos(psi), np.sin(psi)
        r = _superellipse_gauge(domain, cos, sin) ** inv
        u = r * cos + c1 - p1
        v = r * sin + c2 - p2
        return np.sqrt(u * u + v * v)

    m = 1024
    psi = 2.0 * np.pi * np.arange(m) / m
    k = np.argmin(_distance(_rim_2d(domain, psi) + domain.center, p[:, None, :]), axis=1)
    lo, hi = psi[k] - 2.0 * np.pi / m, psi[k] + 2.0 * np.pi / m
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = dist_at(x1), dist_at(x2)
    for _ in range(60):
        # each point keeps the bracket side its own comparison picks
        left = f1 < f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        step = invphi * (hi - lo)
        x = np.where(left, hi - step, lo + step)
        fx = dist_at(x)
        x1, f1, x2, f2 = (
            np.where(left, x, x2),
            np.where(left, fx, f2),
            np.where(left, x1, x),
            np.where(left, f1, fx),
        )
    return np.minimum(f1, f2)


def _ellipsoid_distance(domain: ConvexDomain, p) -> np.ndarray:
    """Distances from points (m, n) to the surface of an ellipsoid: with
    y = |p - c| per axis and lam = t - m the root of :func:`_secular_root`,
    the nearest point is x = a^2 y / (a^2 + lam) and the distance
    |lam| |y / (a^2 + lam)|, the axes S with a^2 = m taken together as
    |y_S| / t.  On the ball t is |y|, and the distance |1 - |y|| exactly.

    A point with t = 0 has y_S = 0 and F <= 0 at t = 0: it lies in the
    evolute region, and its nearest point has the closed form
    x_i = a_i^2 y_i / (a_i^2 - m) off S, with |x_S|^2 = m (1 - sum x_i^2 / a_i^2).
    """
    ys = [np.abs(x - c) for x, c in zip(p.T, domain.center)]
    t, f0 = _secular_root(domain, ys)
    m, y_s, rest = _secular_axes(domain, ys)
    d = np.empty(p.shape[0])
    closed = t == 0.0
    if closed.any():
        # x_i - y_i = m y_i / (a_i^2 - m), and 1 - sum x_i^2 / a_i^2 = -F(0)
        total = sum((m * y[closed] / e) ** 2 for y, _, e in rest)
        d[closed] = np.sqrt(total - m * f0[closed])
    live = ~closed
    if live.any():
        t = t[live]
        total = (y_s[live] / t) ** 2
        for y, _, e in rest:
            r = y[live] / (e + t)
            total += r * r
        d[live] = np.abs(t - m) * np.sqrt(total)
    return d


def _secular_axes(domain: ConvexDomain, ys):
    """For per-axis distances ys from the centre: m = min a^2, |y_S| over the
    axes S with a^2 = m, and each other axis as (y, a, a^2 - m)."""
    a2 = [a * a for a in domain.semi_axes]
    m = min(a2)
    y_s = np.sqrt(sum(y * y for y, s in zip(ys, a2) if s == m))
    return m, y_s, [(y, a, s - m) for y, a, s in zip(ys, domain.semi_axes, a2) if s != m]


def _secular_root(domain: ConvexDomain, ys):
    """Roots t = lam + m of the secular equation of the nearest boundary
    point, for per-axis distances ys from the centre, and F(0).

    F(lam) = sum (a y / (a^2 + lam))^2 - 1 (Eberly 2011), m = min a^2, has
    one root lam on (-m, inf): negative inside the domain, positive outside.
    It is sought in t, so that a^2 + lam = (a^2 - m) + t keeps its digits
    near the pole; on the axes S with a^2 = m it is t itself.  F is convex
    and decreasing, and F >= 0 at t0 = sqrt(m) |y_S|, so Newton steps from
    t0 rise to the root without passing it; each point stops when its step
    no longer raises t.  Where y_S = 0 (below the smallest normal float,
    which moves the distance by less than that) and F(0) <= 0 the root is
    -m, at the pole, and t = 0.  Terms with y = 0 are exact zeros.  Raises
    ArithmeticError when a point is still rising after 100 steps.
    """
    m, y_s, rest = _secular_axes(domain, ys)
    t0 = math.sqrt(m) * y_s
    t0[t0 < np.finfo(float).tiny] = 0.0
    f0 = sum(((a * y / e) ** 2 for y, a, e in rest), np.zeros(t0.shape)) - 1.0
    t = t0.copy()
    todo = np.flatnonzero((t0 > 0.0) | (f0 > 0.0))
    for _ in range(100):
        if not todo.size:
            return t, f0
        tt, s = t[todo], t0[todo]
        hit = s > 0.0
        # the S axes' term (sqrt(m) |y_S| / t)^2, an exact zero where y_S = 0
        q = np.divide(s, tt, out=np.zeros_like(tt), where=hit)
        f = q * q
        # g = -F'(t) / 2 = sum q_i^2 / (a_i^2 + lam)
        g = np.divide(f, tt, out=np.zeros_like(tt), where=hit)
        for y, a, e in rest:
            den = e + tt
            q = a * y[todo] / den
            q *= q
            f += q
            g += q / den
        # summed as f0 is, so a point that starts at t0 = 0 moves: F(0) > 0 there
        f -= 1.0
        step = tt + f / (2.0 * g)
        rising = step > tt
        t[todo[rising]] = step[rising]
        todo = todo[rising]
    if todo.size:
        raise ArithmeticError(f"{todo.size} boundary distances still rising after 100 Newton steps")
    return t, f0


def _distance(a, b):
    """Euclidean distances between the broadcast of two point arrays (..., n);
    the package's one distance route.

    The squares are added one coordinate plane at a time, in axis order: the
    order in which numpy sums a short last axis, so the bits are those of
    ``np.sqrt(np.sum((a - b) ** 2, axis=-1))`` at a fraction of its cost.
    Raises ValueError when a and b have different numbers of coordinates.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"points have {a.shape[-1]} coordinates, the other points {b.shape[-1]}")
    total = 0.0
    for i in range(a.shape[-1]):
        d = a[..., i] - b[..., i]
        total = total + d * d
    return np.sqrt(total)


def _ray_points(x, r, dirs) -> np.ndarray:
    """``x + r[..., None] * dirs`` for directions (..., n), with the same bits.

    Each coordinate is built as its own contiguous plane, and the points are
    returned as the ``np.moveaxis(planes, 0, -1)`` view of the (n, ...)
    planes: ``pts[..., k]`` is C-contiguous, the whole array is not.  A field
    that reads the points one plane at a time sees the same bits as on
    C-ordered points; one that takes matrix products of them may not.
    Raises ValueError when x and dirs have different numbers of coordinates.
    """
    x = np.asarray(x, dtype=float)
    n = dirs.shape[-1]
    if x.shape[-1] != n:
        raise ValueError(f"centre has {x.shape[-1]} coordinates, the directions {n}")
    planes = np.empty((n,) + np.broadcast(x[..., 0], r, dirs[..., 0]).shape)
    for k in range(n):
        np.multiply(r, dirs[..., k], out=planes[k])
        planes[k] += x[..., k]
    return np.moveaxis(planes, 0, -1)


def grid_corners(domain: ConvexDomain, axes) -> list[tuple[float, ...]]:
    """Distinct corners of the box spanned by a grid's sample axes.

    ``axes`` holds the sample coordinates of each axis; the corners are the
    products of their first and last entries, so they are grid points (an
    axis with one sample contributes that sample only).  Raises ValueError
    when a corner lies outside the domain.  On a convex domain the whole
    grid then lies inside, since every grid point is a convex combination
    of the corners.
    """
    ends = [(float(ax[0]), float(ax[-1])) for ax in axes]
    corners = list(dict.fromkeys(itertools.product(*ends)))
    for corner in corners:
        if not contains(domain, np.asarray(corner)):
            raise ValueError(f"grid corner {corner} lies outside the domain")
    return corners


def grid_margin(domain: ConvexDomain, axes) -> tuple[float, tuple[float, ...]]:
    """Smallest boundary distance over a grid and the corner attaining it.

    Inside a convex domain the distance to the boundary is the infimum of
    the distances to its supporting hyperplanes, each affine there, so it
    is concave and its minimum over the grid box is attained at a corner
    (:func:`grid_corners`, which also rejects corners outside the domain).
    """
    corners = grid_corners(domain, axes)
    return min(zip(boundary_distance(domain, np.array(corners)).tolist(), corners))


def domain_diameter(domain: ConvexDomain) -> float:
    """Diameter of the domain (sup distance between two of its points)."""
    if domain.kind == ELLIPSOID:
        return 2.0 * max(domain.semi_axes)
    # a superellipse is planar and centrally symmetric, so the farthest pair
    # is antipodal: twice the largest rim radius over a dense angle set
    rim = _rim_2d(domain, 2.0 * np.pi * np.arange(4096) / 4096)
    return 2.0 * float(np.sqrt(np.sum(rim * rim, axis=-1)).max())
