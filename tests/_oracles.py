"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own quadrature helpers:
oracles re-derive values through different algorithms (adaptive Simpson,
symmetric-exclusion principal values, brute-force indicator quadrature) so
that agreement is evidence, not circularity.  The ungated integral identity
at the end keeps the package's own outer rules and pressure field; only its
velocity comes by another route, a 48-node quadrature of rho b(rho) at every
(point, time) pair, and it is compared with the package's closed-primitive
velocity within a bound derived from both routes' errors.  The direct 2-D
trace route likewise keeps the package's pointwise wave solution and
replaces the radial table and the trace operator.  The 3-D
sections route replaces the package's closed radial field by the
spherical-means quadrature it converges to.  These trace routes, and the
stencil route that keeps the package's own fields, take the normal
derivative by the central difference across the boundary that the
package's exact normal derivative replaced.  The per-point 2-D
back-projection integrates each trace by a Gauss rule in a substituted time
variable, the route the package's product-integrated Abel weights replaced.
The all-cells Abel weights are the package's earlier weights, with the
t = d cosh(phi) rule in every time cell; the package now keeps that rule
below t = 2d and takes a far-field series beyond, whose weights a Gauss rule
in the time variable itself checks.
The superellipse chords come from a golden-section search for the level
function's minimum on each line and a bisection towards each end, the route
the package's closed-form inside point and Newton steps replaced.
The per-call routes at the end (ball profile, velocity gather, the
integral identity's pressure-then-velocity terms, boundary search,
trace-operator build and its per-node apply, halfwidths) are the
package's earlier code for work it now does once, in blocks or batched, and
the ungated closed fields are its earlier code for work it now does only on
the Huygens band; they share its arithmetic on purpose, so the tests can ask
for equal bits, or for the per-node apply, equal products summed in
another order, for the roundoff of that order.
The hand-built rules after them are its earlier copies of what it now
builds in one place: the product rule on the circle and sphere, the
sine-substituted ball rule, the two radial arrangements of the 2-D field
around one time stencil, the ellipsoid section halfwidth and the per-point
support radius.  Next to them,
the broadcast point routes (sphere and arc points, distances, bump and
mollifier radii, the 3-D rim, the sphere means) are its earlier code for
point arithmetic it now does one coordinate plane at a time; they too share
its arithmetic, so the tests can ask for equal bits.  The pointwise gradient
field among them, with the uniform rule of ``sphere_means``, is the
independent route for the circle means of <grad f, nu> that the package now
takes on each bump's arc.
The per-direction routes of the correction's set-up (the chord search that
gathers its live ends, the dense Hilbert table, the per-direction finish of
the kernel profiles and the per-direction assembly of K_h) and the
one-expression cinf primitive are its earlier code for work it now does
on shrinking flat arrays, in place, on stacked tables, by blocks of
directions or with reused temporaries; they share its arithmetic, so the
tests ask for equal bits.
The single-chord and single-point routes at the very end (one section
profile, its closed-form and differenced offset derivatives, the
principal-value transform, the pointwise Neumann trace) were public routes
of the package that no pipeline stage ran; they keep its calculus helpers
and serve as references for the kernel profiles and the trace grid.
The masked routes last of all (the bump profile and its slope, the radial
pressure, the stacked velocity lookup, the sphere means from C-ordered
directions) are its earlier code for the closed fields' band kernels,
which now skip the mask round trip when every entry or none lies inside a
support; they share its arithmetic, so the tests ask for equal bits.
The full-grid 2-D trace route with its full-column operator build and its
masked circle means, and the per-point image writer, close the file: the
package's earlier code for work it now does only on each node's annulus, on
the operator terms that reach the table window, whole on all-inside arcs,
or in one write; they share its arithmetic, so the tests ask for equal bits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 48) -> float:
    """Classic recursive Simpson with Richardson acceptance test."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, d):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if d <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, d - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * eps, d - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, depth)


def hilbert_exclusion(phi, a: float, b: float, s: float, eps: float, m: int = 4000) -> float:
    """(1/pi) int over [a,b] minus the symmetric window (s-eps, s+eps).

    Midpoint rule on each remaining piece; the principal value is the
    eps -> 0 limit, approached here by an explicit eps sequence in the
    calling test.
    """
    total = 0.0
    for lo, hi in ((a, s - eps), (s + eps, b)):
        if hi <= lo:
            continue
        t = lo + (hi - lo) * (np.arange(m) + 0.5) / m
        total += (hi - lo) / m * float(np.sum(phi(t) / (s - t)))
    return total / math.pi


def radon_line_integral(func, theta, s: float, halfspan: float, m: int = 20001) -> float:
    """Midpoint-rule integral of a 2-D function along the line <x, theta> = s."""
    th = np.asarray(theta, dtype=float)
    perp = np.array([-th[1], th[0]])
    tau = -halfspan + 2.0 * halfspan * (np.arange(m) + 0.5) / m
    pts = s * th + tau[:, None] * perp
    return 2.0 * halfspan / m * float(np.sum(func(pts)))


def radon_plane_integral(func, theta, s: float, halfspan: float, m: int = 241) -> float:
    """Midpoint-grid integral of a 3-D function over the plane <x, theta> = s."""
    th = np.asarray(theta, dtype=float)
    seed = np.array([1.0, 0.0, 0.0]) if abs(th[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(th, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(th, e1)
    tau = -halfspan + 2.0 * halfspan * (np.arange(m) + 0.5) / m
    u, v = np.meshgrid(tau, tau, indexing="ij")
    pts = s * th + u[..., None] * e1 + v[..., None] * e2
    cell = (2.0 * halfspan / m) ** 2
    return cell * float(np.sum(func(pts.reshape(-1, 3))))


def poly_eval(coeffs, x):
    """Horner evaluation, coefficients ordered low degree first."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_integral(coeffs, a: float, b: float) -> float:
    """Exact integral of the polynomial on (a, b)."""
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return total


def trace_table_2d_row(table, times, h_t: float, radial_quad: int, r_grid):
    """Two-dimensional trace row of one node from its table of circular
    means on the uniform ``r_grid``: the table interpolated at the
    sine-substituted radii |tau| sin(phi) with four-point Lagrange weights
    written out here, integrated over phi and only then differenced in
    time, the order of the per-table route the trace operator replaced.
    """
    x, w = np.polynomial.legendre.leggauss(radial_quad)
    half = 0.25 * math.pi  # Gauss-Legendre on (0, pi/2)
    phi = half + half * x
    wphi = half * w * np.sin(phi)
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    d4 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    taus = np.asarray(times)[:, None] + h_t * offsets
    u = np.abs(taus)[..., None] * np.sin(phi) / (r_grid[1] - r_grid[0])
    k = np.clip(np.floor(u).astype(int), 1, len(r_grid) - 3)
    th = u - k
    lagrange = (
        -th * (th - 1.0) * (th - 2.0) / 6.0,
        (th - 1.0) * (th + 1.0) * (th - 2.0) / 2.0,
        -th * (th + 1.0) * (th - 2.0) / 2.0,
        th * (th * th - 1.0) / 6.0,
    )
    means = sum(lw * table[k + l - 1] for l, lw in enumerate(lagrange))
    g = taus * np.sum(means * wphi, axis=-1)
    return np.sum(g * d4, axis=-1) / h_t


def normal_stencil(h_nu: float):
    """Offsets and weights of the central difference of step ``h_nu`` across
    the boundary: the normal derivative of the package's traces before they
    took the exact one.  Its error falls as h_nu^2."""
    return np.array([-1.0, 1.0]) * h_nu, np.array([-0.5, 0.5]) / h_nu


def _default_h_nu(domain) -> float:
    # the package's default step before its traces took the exact derivative
    return 1e-3 * min(domain.semi_axes)


def traces_2d_direct(f, domain, boundary, times, params, h_nu=None):
    """Two-dimensional Neumann traces without a radial table.

    Each normal-stencil centre's field u(c, t) is evaluated pointwise by the
    package's wave solution (``forward._even_field``: spherical means at the
    exact sine-substituted radii), then combined with the normal stencil of
    step ``h_nu``; the first time sample is set to zero, as
    :func:`simulate_traces` does.  What this route does not share with the
    table path is the exact normal derivative, the table, its cubic
    interpolation and the trace operator.
    """
    from neutrace.calculus import _sine_ball_rule
    from neutrace.forward import _even_field

    params = params.resolved(t_scale=times.t_max)
    offsets, stencil_w = normal_stencil(h_nu or _default_h_nu(domain))
    rule = _sine_ball_rule(params.radial_quad, 2)
    t = times.samples
    out = np.empty((len(boundary), times.nt))
    for j, (y, nu) in enumerate(zip(boundary.points, boundary.normals)):
        out[j] = stencil_w @ np.array([_even_field(f, y + o * nu, t, params, rule) for o in offsets])
    out[:, 0] = 0.0
    return out


def sections_field_3d(f, center_pts, times, params, m: int):
    """Rows of u(c, t) = d/dt (t M f(c, t)) via per-bump angular sections of
    the direction set.

    The means M are sums over the m-point direction set of
    ``transforms._mean_directions`` and the time derivative is the
    four-point difference of step ``h_t``.  For each bump only the
    directions whose sample point lands inside the bump support can
    contribute, and those form a contiguous run once the directions are
    sorted by the cosine of the angle against the bump center; everything
    else is skipped as an exact zero.  This turns the cost from (times x directions) phantom
    evaluations into roughly the count of nonzero terms.
    """
    from neutrace.forward import _D4_OFFSETS, _D4_WEIGHTS
    from neutrace.transforms import _mean_directions, bump_radial

    dirs, w = _mean_directions(3, m)
    h = params.h_t
    taus = (times[:, None] + h * _D4_OFFSETS).reshape(-1)
    r = np.abs(taus)
    out = np.empty((center_pts.shape[0], times.shape[0]))
    for i, c in enumerate(center_pts):
        means = np.zeros(taus.shape[0])
        for b in f.bumps:
            diff = np.asarray(b.center, dtype=float) - c
            d = float(np.sqrt(diff @ diff))
            if d < 1e-14:
                means += bump_radial(b, r, n=3)
                continue
            cos = dirs @ (diff / d)
            order = np.argsort(cos, kind="stable")
            cs = cos[order]
            ws = w[order]
            with np.errstate(divide="ignore"):
                thresh = (d * d + r * r - b.radius**2) / (2.0 * r * d)
            thresh[r == 0.0] = np.inf if d >= b.radius else -np.inf
            lo = np.searchsorted(cs, thresh, side="right")
            k = cs.shape[0] - lo
            sel = np.flatnonzero(k > 0)
            if sel.size == 0:
                continue
            ksel = k[sel]
            grp = np.repeat(np.arange(sel.size), ksel)
            pos = np.arange(ksel.sum()) - np.repeat(np.cumsum(ksel) - ksel, ksel)
            cidx = lo[sel][grp] + pos
            rsel = r[sel][grp]
            dist = np.sqrt(np.maximum(d * d + rsel * rsel - 2.0 * rsel * d * cs[cidx], 0.0))
            vals = bump_radial(b, dist, n=3) * ws[cidx]
            means[sel] += np.bincount(grp, weights=vals, minlength=sel.size)
        g = (taus * means).reshape(times.shape[0], _D4_OFFSETS.shape[0])
        out[i] = np.sum(g * _D4_WEIGHTS, axis=-1) / h
    return out


def traces_3d_sections(f, domain, boundary, times, params, m: int, h_nu=None):
    """Three-dimensional Neumann traces by spherical-means quadrature.

    Each normal-stencil centre's field is u = d/dt (t M f) with the means
    summed over the m-point direction set (:func:`sections_field_3d`)
    and the time derivative a four-point difference of step ``h_t``; the
    rows are combined with the normal stencil of step ``h_nu`` and the first
    time sample is set to zero, as :func:`simulate_traces` does.  It shares
    with the package only the bump profile and the direction set, not the
    closed radial field the package evaluates or its exact normal derivative.
    """
    params = params.resolved(t_scale=times.t_max)
    offsets, stencil_w = normal_stencil(h_nu or _default_h_nu(domain))
    t = times.samples
    out = np.empty((len(boundary), times.nt))
    for j in range(len(boundary)):
        centers = boundary.points[j] + offsets[:, None] * boundary.normals[j]
        out[j] = stencil_w @ sections_field_3d(f, centers, t, params, m)
    out[:, 0] = 0.0
    return out


def traces_by_stencil(f, boundary, times, params, h_nu: float):
    """Neumann traces as ``forward.simulate_traces`` computed them before it
    took the exact normal derivative: the normal stencil of step ``h_nu``
    applied to the package's own fields at the two centres y -+ h_nu nu,
    the closed field (``phantom_pressure``) in three dimensions and in two
    the radial tables of the means of f through the package's trace
    operator.  The normal derivative is all that differs."""
    from neutrace.forward import phantom_pressure
    from neutrace.transforms import circle_means

    params = params.resolved(t_scale=times.t_max)
    offsets, stencil_w = normal_stencil(h_nu)
    t = times.samples
    out = np.zeros((len(boundary), times.nt))
    if f.dimension == 2:
        r_grid = trace_grid_2d(times, params)
        rows, cols, coefs, _ = trace_operator_2d_int64(t, params, r_grid)
    for j in range(len(boundary)):
        for s, w in zip(offsets, stencil_w):
            c = boundary.points[j] + s * boundary.normals[j]
            if f.dimension == 3:
                out[j] += w * phantom_pressure(f, c, t)
            else:
                table = w * circle_means(f, c, r_grid)
                out[j] += np.bincount(rows, weights=coefs * table[cols], minlength=times.nt)
    out[:, 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# the 48-node velocity route, and its distance to the closed primitive

GOMPERTZ = 0.5963473623231940743  # delta = e E_1(1); E(1) = 1 - delta


def radial_velocity_ungated(bump, d, t):
    """Closed radial velocity field by a 48-point Gauss-Legendre sum of
    rho b(rho) over (|t-d|, t+d) clipped to the support, run on every (d, t)
    entry: the quadrature route that ``validation.radial_velocity`` replaced
    by the closed primitive G."""
    from neutrace.transforms import bump_radial

    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    eps = bump.radius
    lo = np.clip(np.abs(t - d), 0.0, eps)
    hi = np.clip(t + d, 0.0, eps)
    length = np.maximum(hi - lo, 0.0)
    x, w = np.polynomial.legendre.leggauss(48)
    rho = lo[..., None] + length[..., None] * (0.5 + 0.5 * x)
    integral = length * np.sum(rho * bump_radial(bump, rho, 3) * (0.5 * w), axis=-1)
    small = d < 1e-8 * eps
    v = integral / (2.0 * np.where(small, 1.0, d))
    return np.where(small, t * bump_radial(bump, t, 3), v)


def radial_pressure_ungated(bump, d, t):
    """Closed radial pressure field with its d -> 0 limit b(t) + t b'(t)
    evaluated on every (d, t) entry and kept where d < 1e-8 radius: the
    formula that ``forward.radial_pressure`` gates to the small entries."""
    from neutrace.transforms import bump_radial, bump_radial_deriv

    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    small = d < 1e-8 * bump.radius
    ds = np.where(small, 1.0, d)
    plus = (t + ds) * bump_radial(bump, t + ds, 3)
    minus = (t - ds) * bump_radial(bump, np.abs(t - ds), 3)
    u = (plus - minus) / (2.0 * ds)
    lim = bump_radial(bump, t, 3) + t * bump_radial_deriv(bump, t, 3)
    return np.where(small, lim, u)


def level_value_broadcast(domain, points):
    """Level function of a domain by broadcasting the centred, scaled points
    over their last axis and summing along it: the formula that
    ``geometry.level_value`` evaluates one coordinate plane at a time."""
    pts = np.asarray(points, dtype=float)
    d = (pts - np.asarray(domain.center)) / np.asarray(domain.semi_axes)
    if domain.kind == "ellipsoid":
        return np.sum(d * d, axis=-1)
    return np.sum(np.abs(d) ** domain.exponent, axis=-1)


def superellipse_chord_bisection(domain, th, sp):
    """Chord lengths for unit directions th (m, 2) at centred offsets sp
    (m, k), with the ends of each chord: golden-section minimisation of the
    convex level function along each line, then a bisection towards each
    end.  The search ``transforms._superellipse_chord`` replaced by a
    closed-form inside point and Newton steps; it returns (chord, tau_lo,
    tau_hi), tau measured along theta_perp from the foot point c + s' theta."""
    from neutrace.geometry import level_value

    c = np.asarray(domain.center)
    perp = np.stack([-th[:, 1], th[:, 0]])[:, :, None]
    base = c[:, None, None] + sp * th.T[:, :, None]
    psi = np.linspace(0.0, 2.0 * np.pi, 4097)
    a1, a2 = domain.semi_axes
    p = domain.exponent
    g = (np.abs(np.cos(psi)) / a1) ** p + (np.abs(np.sin(psi)) / a2) ** p
    bracket = float((g ** (-1.0 / p)).max()) + 1.0

    def lev(tau):
        return level_value(domain, np.moveaxis(base + tau * perp, 0, -1))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(sp.shape, -bracket)
    hi = np.full(sp.shape, bracket)
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = lev(x1), lev(x2)
    for _ in range(90):
        take = f1 < f2
        hi = np.where(take, x2, hi)
        lo = np.where(take, lo, x1)
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1, f2 = lev(x1), lev(x2)
    tau_min = 0.5 * (lo + hi)
    hit = lev(tau_min) < 1.0

    def bisect(inner, outer):
        a_, b_ = inner.copy(), outer.copy()
        for _ in range(64):
            mid = 0.5 * (a_ + b_)
            is_in = lev(mid) < 1.0
            a_ = np.where(is_in, mid, a_)
            b_ = np.where(is_in, b_, mid)
        return 0.5 * (a_ + b_)

    tau_hi = bisect(tau_min, np.full(sp.shape, bracket))
    tau_lo = bisect(tau_min, np.full(sp.shape, -bracket))
    return np.where(hit, tau_hi - tau_lo, 0.0), tau_lo, tau_hi


def exponential_integral_e1(x, terms: int = 120):
    """E_1(x) for x >= 1 by its continued fraction
    exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...))), evaluated bottom-up;
    120 terms reach 1e-16 relative at x = 1, the slowest point."""
    x = np.asarray(x, dtype=float)
    tail = x + (2 * terms + 1)
    for k in range(terms, 0, -1):
        tail = x + (2 * k - 1) - k * k / tail
    return np.exp(-x) / tail


def cinf_primitive_closed(u):
    """E(u) = integral of exp(1 - 1/(1 - s)) over (0, u), without quadrature.

    With w = 1/(1 - s) the integral is e times that of exp(-w) / w^2 over
    (1, 1/(1 - u)), that is e [E_2(1) - E_2(w) / w] with
    E_2(x) = exp(-x) - x E_1(x).
    """
    u = np.asarray(u, dtype=float)
    w = 1.0 / (1.0 - np.where(u < 1.0, u, 0.0))
    e2_over = np.where(u < 1.0, (np.exp(-w) - w * exponential_integral_e1(w)) / w, 0.0)
    e2_one = math.exp(-1.0) - float(exponential_integral_e1(1.0))
    return math.e * (e2_one - e2_over)


@lru_cache(maxsize=None)
def cinf_fourth_derivative_max() -> float:
    """Largest |E''''| on [0, 1) for E' = exp(1 - 1/(1 - u)).

    With g = 1/(1 - u), E'''' = -g^4 (g^2 - 6 g + 6) exp(1 - g); sampled on
    g in [1, 80] it peaks at 82.63 near g = 7.76 and is below 1e-22 at 80.
    """
    g = np.linspace(1.0, 80.0, 400001)
    return float(np.max(np.abs(g**4 * (g * g - 6.0 * g + 6.0) * np.exp(1.0 - g))))


def cinf_table_bound() -> float:
    """Bound on the error of ``validation._cinf_primitive`` anywhere on [0, 1].

    The cubic Hermite interpolant of exact node values and slopes errs by at
    most h^4 / 384 max|E''''| with h = 1 / cells.  The node values come from
    a compensated running sum, each within about one rounding of E(1), and
    the lookup combines them in about ten operations; 8 roundings of
    E(1) = 1 - delta cover both.
    """
    from neutrace.validation import _PRIMITIVE_CELLS

    h = 1.0 / _PRIMITIVE_CELLS
    return h**4 / 384.0 * cinf_fourth_derivative_max() + 8.0 * np.finfo(float).eps * (1.0 - GOMPERTZ)


def velocity_route_tolerance(bump, d, t):
    """Bound on |validation.radial_velocity - radial_velocity_ungated| at (d, t).

    Both routes integrate rho b(rho) over the same clipped floating-point
    interval (lo, hi), with hi - lo <= 2d, so the rounding of t -+ d is
    common to them.  What differs, after the division by 2d:

    - table (cinf): the table of E errs by at most ``cinf_table_bound``, dE.
      G is A radius^2 / 2 times E, read at two ends: |A| radius^2 dE / (2d).
    - quadrature (cinf): in sigma = rho / radius the 48-node rule errs by at
      most q per unit length, where q is its error on (0, 1) against
      E(1) / 2 = (1 - delta) / 2; a scan of every subinterval with ends on a
      1/256 grid, against a 16-panel 64-node reference, finds none larger.
      As hi - lo <= 2d, that is |A| radius q, doubled for ends off the grid.
      For poly bumps the rule is exact (degree 2 mu + 1 integrand).
    - rounding: 16 roundings of max|G| at each end of the closed form (a
      lookup is about ten operations), (32 eps max|G|) / (2d), and 64 of
      max|rho b| in the 48-term sum.

    Where d < 1e-8 radius both routes return t b(t), so the bound is 0.
    """
    from neutrace.transforms import CINF, bump_radial

    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    unit = np.finfo(float).eps
    radius, amp = bump.radius, abs(bump.amplitude)
    x, w = np.polynomial.legendre.leggauss(48)
    sigma = 0.5 + 0.5 * x
    rho = np.linspace(0.0, radius, 4097)
    g_max = 0.5 * radius * float(np.sum(w * np.abs(radius * sigma * bump_radial(bump, radius * sigma, 3))))
    per_d = 32.0 * unit * g_max
    flat = 64.0 * unit * float(np.max(np.abs(rho * bump_radial(bump, rho, 3))))
    if bump.profile == CINF:
        per_d += amp * radius**2 * cinf_table_bound()
        rule = 0.5 * float(np.sum(w * sigma * np.exp(1.0 - 1.0 / (1.0 - sigma * sigma))))
        flat += 2.0 * amp * radius * abs(rule - 0.5 * (1.0 - GOMPERTZ))
    small = d < 1e-8 * radius
    return np.where(small, 0.0, flat + per_d / (2.0 * np.where(small, 1.0, d)))


def _phantom_velocity_ungated(f, pts, t):
    """The velocity of f by the quadrature route, and the sum over its bumps
    of ``velocity_route_tolerance``."""
    pts = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(pts.shape[:-1], t.shape))
    tol = np.zeros(out.shape)
    for b in f.bumps:
        d = np.sqrt(np.sum((pts - np.asarray(b.center)) ** 2, axis=-1))
        out = out + radial_velocity_ungated(b, d, t)
        tol = tol + velocity_route_tolerance(b, d, t)
    return out, tol


def integral_identity_terms_ungated(f, g, domain, level: int = 0, *, phase: float = 0.0,
                                    chunk: int = 256) -> dict:
    """Both sides of the three-dimensional integral identity with the velocity
    field by the 48-node quadrature route at every (point, time) pair of the
    boundary and volume terms: ``validation.check_integral_identity`` as it
    was before it gated the velocity on the pressure factor and read it from
    the closed primitive.

    Returns ``lhs``, ``rhs``, ``term_boundary``, ``term_volume``,
    ``weights_nonzero`` (the number of pairs with a non-zero pressure factor:
    normal derivative on the boundary, pressure in the volume), and
    ``bound_boundary`` / ``bound_volume``, which bound how far the terms of
    the closed-primitive route can lie from these.  Each is carried through
    its term with the absolute values of the weights from a per-pair budget:
    ``velocity_route_tolerance`` plus, for the rounding of the weighted sums
    in either route, 2 eps |v| times the longest chain of additions a pair
    passes through (the dot products over nodes, times and stencil points,
    and the running sum over volume chunks).  Assumes both phantoms are
    non-empty and inside the domain.
    """
    from neutrace.calculus import gauss_legendre
    from neutrace.forward import huygens_horizon
    from neutrace.geometry import boundary_quadrature
    from neutrace.validation import _product_integral, phantom_pressure

    scale = 1 << level
    res_b = 16 * scale
    nt = 48 * scale
    m_rad, m_pol, m_azi = 20 * scale, 12 * scale, 24 * scale
    m_box = 24 * scale
    h_lap = 1e-2 * min(domain.semi_axes) / scale

    boundary = boundary_quadrature(domain, res_b, phase=phase)
    horizon = min(huygens_horizon(f, boundary), huygens_horizon(g, boundary))
    lhs = _product_integral(f, g, m_box)
    trule = gauss_legendre(nt, 0.0, horizon)
    wt = np.abs(trule.weights)
    unit = np.finfo(float).eps

    pts, nus, wb = boundary.points, boundary.normals, boundary.weights
    vel, tol = _phantom_velocity_ungated(g, pts[:, None, :], trule.nodes)
    du = phantom_pressure(f, pts[:, None, :], trule.nodes, nus[:, None, :])
    term_boundary = 2.0 * float(wb @ (du * vel) @ trule.weights)
    chain = pts.shape[0] + nt + 6
    budget = tol + 2.0 * chain * unit * np.abs(vel)
    bound_boundary = 2.0 * float(np.abs(wb) @ (np.abs(du) * budget) @ wt)
    nonzero = int(np.count_nonzero(du))

    rr = gauss_legendre(m_rad, 0.0, 1.0)
    dirs, wsph = volume_directions_by_hand(m_pol, m_azi, phase)
    a = np.asarray(domain.semi_axes)
    nodes = (np.asarray(domain.center) + rr.nodes[:, None, None] * dirs[None, :, :] * a).reshape(-1, 3)
    wvol = (float(np.prod(a)) * (rr.weights * rr.nodes**2)[:, None] * wsph[None, :]).reshape(-1)

    stencil = np.zeros((7, 3))
    for i in range(3):
        stencil[1 + 2 * i, i] = h_lap
        stencil[2 + 2 * i, i] = -h_lap
    # absolute values of the Laplacian stencil weights, centre first
    lap_abs = np.array([6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) / h_lap**2
    chain = chunk + nt + 7 + -(-nodes.shape[0] // chunk) + 4
    term_volume = 0.0
    bound_volume = 0.0
    for lo_i in range(0, nodes.shape[0], chunk):
        block = nodes[lo_i : lo_i + chunk]
        sp = block[:, None, :] + stencil[None, :, :]
        pp = phantom_pressure(f, sp[:, :, None, :], trule.nodes)
        vv, tv = _phantom_velocity_ungated(g, sp[:, :, None, :], trule.nodes)
        prod = pp * vv
        lap = (np.sum(prod[:, 1:, :], axis=1) - 6.0 * prod[:, 0, :]) / h_lap**2
        term_volume += float(wvol[lo_i : lo_i + chunk] @ lap @ trule.weights)
        budget = tv + 2.0 * chain * unit * np.abs(vv)
        spread = np.tensordot(np.abs(pp) * budget, lap_abs, axes=(1, 0))
        bound_volume += float(np.abs(wvol[lo_i : lo_i + chunk]) @ spread @ wt)
        nonzero += int(np.count_nonzero(pp))

    return {
        "lhs": lhs,
        "rhs": term_boundary - term_volume,
        "term_boundary": term_boundary,
        "term_volume": term_volume,
        "bound_boundary": bound_boundary,
        "bound_volume": bound_volume,
        "weights_nonzero": nonzero,
    }


def backproject_even_per_point(traces, x, time_quad: int) -> float:
    """Two-dimensional back-projection at one point by a per-point quadrature.

    For each node y the Abel integral of trace(y, t) / sqrt(t^2 - d^2) over
    d < t < t_max, d = |x - y|, is taken after the substitution
    t = sqrt(d^2 + u^2), which removes the inverse-root singularity, by a
    composite Gauss-Legendre rule in u with ``time_quad`` nodes, 16 on each
    of equal panels (one rule of thousands of nodes would cost a dense
    eigenproblem of that size).  The trace is read through
    the four-point Lagrange cubic with its base clipped to [1, nt - 3],
    written out here, so the route converges to the exact integral of the
    interpolant the package integrates; it converges slowly, because that
    interpolant is only continuous at the samples.
    """
    panels = time_quad // 16
    x_gl, w_gl = np.polynomial.legendre.leggauss(16)
    nodes = ((np.arange(panels)[:, None] + 0.5 * (x_gl + 1.0)) / panels).reshape(-1)
    weights = np.tile(0.5 * w_gl / panels, panels)
    d = np.sqrt(np.sum((traces.boundary.points - np.asarray(x, dtype=float)) ** 2, axis=-1))
    u_top = np.sqrt(traces.times.t_max**2 - d * d)
    u = u_top[:, None] * nodes
    t = np.sqrt(d[:, None] ** 2 + u * u)
    nt = traces.values.shape[1]
    s = t / traces.times.dt
    k = np.clip(np.floor(s).astype(int), 1, nt - 3)
    th = s - k
    lagrange = (
        -th * (th - 1.0) * (th - 2.0) / 6.0,
        (th - 1.0) * (th + 1.0) * (th - 2.0) / 2.0,
        -th * (th + 1.0) * (th - 2.0) / 2.0,
        th * (th * th - 1.0) / 6.0,
    )
    rows = np.arange(len(d))[:, None]
    vals = sum(lw * traces.values[rows, k + l - 1] for l, lw in enumerate(lagrange))
    inner = u_top * np.sum(vals / t * weights, axis=-1)
    return float(np.sum(traces.boundary.weights * inner) / math.pi)


def _abel_cells(d, dt: float, nt: int, t_lo: float, t_hi: float, nodes: int):
    """Stencil bases k (cells,) and weights (4, rows, cells) of every time cell
    by the phi rule, per lag of the cell's cubic."""
    from neutrace.calculus import cubic_weights, gauss_legendre

    rule = gauss_legendre(nodes, 0.0, 1.0)
    dr = np.asarray(d, dtype=float)[:, None]
    last = min(nt - 2, math.ceil(t_hi / dt) - 1)
    lo = np.maximum(dr, t_lo)
    cells = np.arange(min(int(lo.min() / dt), last), last + 1)
    t = np.clip(np.append(cells, last + 1) * dt, lo, np.maximum(lo, t_hi))
    phi = np.arcsinh(np.sqrt((t - dr) * (t + dr)) / dr)
    span = np.diff(phi, axis=1)
    at = np.cosh(phi[:, :-1, None] + span[..., None] * rule.nodes)
    at *= dr[..., None] / dt
    k = np.clip(cells, 1, nt - 3)
    at -= k[:, None]
    return k, np.stack([(card @ rule.weights) * span for card in cubic_weights(at)])


def _onto_columns(k, cell_w, nt: int) -> np.ndarray:
    w = np.zeros((cell_w.shape[1], nt))
    for lag, lag_w in enumerate(cell_w):
        np.add.at(w.T, k - 1 + lag, lag_w.T)
    return w


def abel_weights_all_cells(d, dt: float, nt: int, t_lo: float, t_hi: float, nodes: int = 4):
    """Dense Abel weights W (rows, nt) of the interpolated traces, with
    W[i, c] = int L_c(t) / sqrt(t^2 - d_i^2) dt over max(d_i, t_lo) < t < t_hi,
    by ``nodes`` Gauss nodes in phi, t = d cosh(phi), in every time cell of
    every row: the package's earlier route, which it now takes only in the
    cells below t = 2d and in the cells that t_lo or t_hi cut."""
    k, cell_w = _abel_cells(d, dt, nt, t_lo, t_hi, nodes)
    return _onto_columns(k, cell_w, nt)


def abel_cell_gaps(d, dt: float, nt: int, t_lo: float, t_hi: float, nodes: int, ref_nodes: int):
    """Sum over the cells of each weight of :func:`abel_weights_all_cells` of
    |cell weight with ``nodes`` - cell weight with ``ref_nodes``|: with a converged
    reference, a bound on the phi rule's quadrature error in every entry that
    holds for any subset of its cells."""
    k, cell_w = _abel_cells(d, dt, nt, t_lo, t_hi, nodes)
    return _onto_columns(k, np.abs(cell_w - _abel_cells(d, dt, nt, t_lo, t_hi, ref_nodes)[1]), nt)


def abel_far_weights_in_s(delta: float, c0: int, c1: int, nt: int, nodes: int = 16):
    """Abel weights of the time cells c0..c1 alone, s = t / dt in time steps and
    delta = d / dt, with every cell at s >= 2 delta: int L_col(s) / sqrt(s^2 -
    delta^2) ds by ``nodes`` Gauss-Legendre nodes in s per cell, where the
    integrand is smooth (its branch points lie at least half of s away), with
    the four-point Lagrange cubic of each cell written out.  Returns the
    weights (nt,) and the same integrals of |L_col|, the scale of their
    roundoff."""
    x, wq = np.polynomial.legendre.leggauss(nodes)
    cells = np.arange(c0, c1 + 1)
    k = np.clip(cells, 1, nt - 3)
    # the offset from the stencil's base directly, which keeps its digits at large s
    th = (cells - k)[:, None] + 0.5 * (x + 1.0)
    s = k[:, None] + th
    lagrange = (
        -th * (th - 1.0) * (th - 2.0) / 6.0,
        (th - 1.0) * (th + 1.0) * (th - 2.0) / 2.0,
        -th * (th + 1.0) * (th - 2.0) / 2.0,
        th * (th * th - 1.0) / 6.0,
    )
    kernel = 0.5 * wq / np.sqrt((s - delta) * (s + delta))
    w, scale = np.zeros(nt), np.zeros(nt)
    for lag, card in enumerate(lagrange):
        np.add.at(w, k - 1 + lag, np.sum(card * kernel, axis=1))
        np.add.at(scale, k - 1 + lag, np.sum(np.abs(card) * kernel, axis=1))
    return w, scale


# ---------------------------------------------------------------------------
# per-call routes that the package now runs once, in blocks or batched


def ball_profile_per_call(g, x, n: int, m_phi: int, m_mean: int):
    """The singular ball profile A(t) with one sphere-means call over all
    radii of every abscissa, re-evaluated on every call: the closure that
    ``validation._ball_profile`` replaced by a memo over cache-sized blocks."""
    from neutrace.calculus import gauss_legendre, unit_ball_volume
    from neutrace.transforms import sphere_means

    rule = gauss_legendre(m_phi, 0.0, 0.5 * math.pi)
    sin_phi = np.sin(rule.nodes)
    wphi = rule.weights * sin_phi ** (n - 1)
    surf = n * unit_ball_volume(n)

    def profile(t: float) -> float:
        means = sphere_means(g, x, t * sin_phi, m_mean, n=n)
        return surf * float(np.sum(means * wphi))

    return profile


def support_halfwidth_per_direction(domain, dirs):
    """Support halfwidths of a batch of directions (m, n), one call per
    direction: the loop that ``geometry.support_halfwidth`` replaced by one
    batched call."""
    from neutrace.geometry import support_halfwidth

    return np.array([support_halfwidth(domain, omega) for omega in dirs])


def phantom_pressure_full_broadcast(f, pts, t):
    """Closed pressure field of f with ``radial_pressure`` run on every
    (point, time) pair of the broadcast: the route that
    ``forward.phantom_pressure`` gated to the Huygens band of each bump."""
    from neutrace.forward import radial_pressure

    pts = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(pts.shape[:-1], t.shape))
    for b in f.bumps:
        d = np.sqrt(np.sum((pts - np.asarray(b.center)) ** 2, axis=-1))
        out = out + radial_pressure(b, d, t)
    return out


def radial_velocity_two_lookups(bump, d, t):
    """Closed radial velocity field with the primitive G looked up at both
    clipped ends of every entry: the route that ``validation.radial_velocity``
    gated to the ends inside the support."""
    from neutrace.transforms import bump_radial
    from neutrace.validation import _radial_primitive

    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    eps = bump.radius
    lo = np.clip(np.abs(t - d), 0.0, eps)
    hi = np.clip(t + d, lo, eps)
    small = d < 1e-8 * eps
    v = np.asarray(
        (_radial_primitive(bump, hi) - _radial_primitive(bump, lo)) / (2.0 * np.where(small, 1.0, d))
    )
    if small.any():
        v[small] = t[small] * bump_radial(bump, t[small], 3)
    return v


def times_velocity_per_pair(weight, g, pts, times):
    """``weight`` times the velocity of g with a 3-vector gathered at every
    live (point, time) pair and its distances taken there: the route that
    ``times_velocity_masked`` replaced by one distance per point."""
    from neutrace.validation import phantom_velocity

    live = np.nonzero(weight)
    at = np.broadcast_to(pts, weight.shape + pts.shape[-1:])[live]
    vel = np.zeros(weight.shape)
    vel[live] = phantom_velocity(g, at, times[live[-1]])
    return weight * vel, at.shape[0]


def phantom_pressure_scattered(f, pts, t, normals=None):
    """``forward.phantom_pressure`` as written before it took the union of
    the bumps' Huygens bands: each bump's band gathered and its field
    added into zeros of the full broadcast shape, in bump order."""
    from neutrace.forward import _radial_slope, radial_pressure
    from neutrace.geometry import _distance

    pts = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(pts.shape[:-1], t.shape)
    out = np.zeros(shape)
    t_abs = np.abs(t)
    for b in f.bumps:
        d = _distance(pts, b.center)
        gap = np.asarray(t_abs - d)
        band = np.abs(gap, out=gap) < b.radius * (1.0 + 1e-6)
        if not band.any():
            continue
        d_band, t_band = np.broadcast_to(d, shape)[band], np.broadcast_to(t, shape)[band]
        if normals is None:
            out[band] += radial_pressure(b, d_band, t_band)
        else:
            cosine = np.broadcast_to(np.sum((pts - b.center) * normals, axis=-1) / d, shape)[band]
            out[band] += _radial_slope(b, d_band, t_band) * cosine
    return out


def times_velocity_masked(weight, g, pts, times):
    """``weight`` times the velocity of g, evaluated where ``weight`` is
    non-zero through one boolean mask of the broadcast shape and scattered
    back into zeros: the route of ``validation._times_velocity`` before the
    integral identity took both fields on one band.  Returns the product
    and the number of velocity values evaluated."""
    from neutrace.validation import phantom_velocity

    live = weight != 0.0
    prod = np.zeros(weight.shape)
    prod[live] = weight[live] * phantom_velocity(g, pts, times, live=live)
    return prod, int(np.count_nonzero(live))


def integral_identity_pressure_then_velocity(f, g, domain, level: int = 0, *, phase: float = 0.0,
                                             times_velocity=times_velocity_masked) -> dict:
    """Both terms of ``validation.check_integral_identity`` by the route it
    took before both fields shared one Huygens band: the pressure factor
    scattered into zeros by ``phantom_pressure_scattered``, then ``times_velocity``
    (the masked velocity product by default) on the full broadcast shape.
    Returns ``lhs``, ``rhs``, ``term_boundary``, ``term_volume``,
    ``velocity_evaluated`` and ``velocity_pairs``; assumes both phantoms are
    non-empty and inside the domain."""
    from neutrace.calculus import _sphere_rule, gauss_legendre
    from neutrace.forward import _BLOCK_VALUES, huygens_horizon
    from neutrace.geometry import boundary_quadrature
    from neutrace.validation import _VOLUME_CHUNK, _product_integral

    scale = 1 << level
    res_b = 16 * scale
    nt = 48 * scale
    m_rad, m_pol, m_azi = 20 * scale, 12 * scale, 24 * scale
    m_box = 24 * scale
    h_lap = 1e-2 * min(domain.semi_axes) / scale

    boundary = boundary_quadrature(domain, res_b, phase=phase)
    horizon = min(huygens_horizon(f, boundary), huygens_horizon(g, boundary))
    lhs = _product_integral(f, g, m_box)
    trule = gauss_legendre(nt, 0.0, horizon)

    pts, nus, wb = boundary.points, boundary.normals, boundary.weights
    du = phantom_pressure_scattered(f, pts[:, None, :], trule.nodes, nus[:, None, :])
    flux, evaluated = times_velocity(du, g, pts[:, None, :], trule.nodes)
    term_boundary = 2.0 * float(wb @ flux @ trule.weights)
    pairs = du.size

    rr = gauss_legendre(m_rad, 0.0, 1.0)
    dirs, wu = _sphere_rule(3, m_pol, shift=0.5, phase=phase)
    wsph = wu * (2.0 * np.pi / m_azi)
    a = np.asarray(domain.semi_axes)
    nodes = (np.asarray(domain.center) + rr.nodes[:, None, None] * dirs[None, :, :] * a).reshape(-1, 3)
    wvol = (float(np.prod(a)) * (rr.weights * rr.nodes**2)[:, None] * wsph[None, :]).reshape(-1)
    stencil = np.zeros((7, 3))
    for i in range(3):
        stencil[1 + 2 * i, i] = h_lap
        stencil[2 + 2 * i, i] = -h_lap
    term_volume = 0.0
    sub = max(1, _BLOCK_VALUES // (stencil.shape[0] * nt))
    lap = np.empty((_VOLUME_CHUNK, nt))
    for lo_i in range(0, nodes.shape[0], _VOLUME_CHUNK):
        block = nodes[lo_i : lo_i + _VOLUME_CHUNK]
        for lo_s in range(0, block.shape[0], sub):
            sp = (block[lo_s : lo_s + sub, None, :] + stencil[None, :, :])[:, :, None, :]
            pp = phantom_pressure_scattered(f, sp, trule.nodes)
            prod, count = times_velocity(pp, g, sp, trule.nodes)
            rows = slice(lo_s, lo_s + sp.shape[0])
            lap[rows] = (np.sum(prod[:, 1:, :], axis=1) - 6.0 * prod[:, 0, :]) / h_lap**2
            evaluated += count
            pairs += pp.size
        term_volume += float(wvol[lo_i : lo_i + len(block)] @ lap[: len(block)] @ trule.weights)

    return {
        "lhs": lhs,
        "rhs": term_boundary - term_volume,
        "term_boundary": term_boundary,
        "term_volume": term_volume,
        "velocity_evaluated": evaluated,
        "velocity_pairs": pairs,
    }


def boundary_distance_per_point(domain, point) -> float:
    """Distance from one point to the rim of a planar domain by its own
    search, with the squared distances summed along the last axis: the
    per-point route that ``geometry.boundary_distance`` runs for a whole
    batch of superellipse points in lockstep."""
    from neutrace.geometry import _rim_2d

    p = np.asarray(point, dtype=float)

    def dist_at(psi):
        b = _rim_2d(domain, np.atleast_1d(psi)) + np.asarray(domain.center)
        return np.sqrt(np.sum((b - p) ** 2, axis=-1))

    m = 1024
    psi = 2.0 * np.pi * np.arange(m) / m
    k = int(np.argmin(dist_at(psi)))
    lo, hi = psi[k] - 2.0 * np.pi / m, psi[k] + 2.0 * np.pi / m
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = dist_at(x1)[0], dist_at(x2)[0]
    for _ in range(60):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = dist_at(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = dist_at(x2)[0]
    return float(min(f1, f2))


def support_margin_per_bump(f, domain, distance=boundary_distance_per_point) -> float:
    """``forward.support_margin`` with one ``distance(domain, centre)`` call
    per bump centre."""
    from neutrace.geometry import contains

    margin = np.inf
    for b in f.bumps:
        d = distance(domain, b.center) - b.radius
        if not contains(domain, np.asarray(b.center)):
            d = -abs(d) if d > 0 else d
        margin = min(margin, d)
    return float(margin)


def corners_per_corner(grid, flat):
    """``inversion.ImageGrid._corners`` as it built each corner before it
    formed 1 - frac and the outside mask once: a weight grown from
    ``np.ones`` by one factor per axis, and ``np.ravel_multi_index``."""
    idx, frac = [], []
    inside = np.ones(flat.shape[0], dtype=bool)
    for d in range(grid.dimension):
        a, b, m = grid.lo[d], grid.hi[d], grid.shape[d]
        if m == 1:
            idx.append(np.zeros(flat.shape[0], dtype=int))
            frac.append(np.zeros(flat.shape[0]))
            inside &= np.abs(flat[:, d] - a) < 1e-12
            continue
        step = (b - a) / (m - 1)
        u = (flat[:, d] - a) / step
        inside &= (u > -1e-12) & (u < m - 1 + 1e-12)
        k = np.clip(np.floor(u).astype(int), 0, m - 2)
        idx.append(k)
        frac.append(np.clip(u - k, 0.0, 1.0))
    corner_idx, corner_w = [], []
    for corner in range(1 << grid.dimension):
        if any(corner >> d & 1 and grid.shape[d] == 1 for d in range(grid.dimension)):
            continue
        w = np.ones(flat.shape[0])
        sel = []
        for d in range(grid.dimension):
            if corner >> d & 1:
                w = w * frac[d]
                sel.append(idx[d] + 1)
            else:
                w = w * (1.0 - frac[d] if grid.shape[d] > 1 else 1.0)
                sel.append(idx[d])
        w[~inside] = 0.0
        corner_idx.append(np.ravel_multi_index(sel, grid.shape))
        corner_w.append(w)
    return np.array(corner_idx), np.array(corner_w)


def trace_operator_2d_int64(times, params, r_grid):
    """The 2-D trace operator as a sparse matrix on every table column,
    (rows, cols, coefs, ptr) sorted by column and then row, with int64
    indices: the build whose merged entries ``forward._trace_operator_blocks``
    yields as dense row blocks, with ``ptr[k]:ptr[k + 1]`` the entries of
    column k."""
    from neutrace.calculus import cubic_stencil
    from neutrace.forward import _D4_OFFSETS, _D4_WEIGHTS

    sin_phi, wphi = sine_ball_rule_by_hand(params.radial_quad)
    h = params.h_t
    npts = r_grid.shape[0]
    dr = r_grid[1] - r_grid[0]
    rows, cols, coefs = [], [], []
    for lo in range(0, times.shape[0], 32):
        taus = times[lo : lo + 32, None] + h * _D4_OFFSETS
        radii = np.abs(taus)[..., None] * sin_phi
        k, weights = cubic_stencil(radii, r_grid[0], dr, npts)
        scale = (_D4_WEIGHTS / h * taus)[..., None] * wphi
        local = np.arange(taus.shape[0])[:, None, None] * npts + k
        key = np.concatenate([(local + l - 1).ravel() for l in range(4)])
        val = np.concatenate([(scale * w).ravel() for w in weights])
        dense = np.bincount(key, weights=val, minlength=taus.shape[0] * npts)
        nz = np.flatnonzero(dense)
        rows.append(lo + nz // npts)
        cols.append(nz % npts)
        coefs.append(dense[nz])
    rows, cols, coefs = np.concatenate(rows), np.concatenate(cols), np.concatenate(coefs)
    order = np.argsort(cols, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=npts))])
    return rows[order], cols[order], coefs[order], ptr


def trace_grid_2d(times, params):
    """The radial grid ``forward.simulate_traces`` lays its 2-D tables on,
    over [0, t_max + 2 h_t] for resolved ``params``."""
    r_max = (times.t_max + 2.0 * params.h_t) * (1.0 + 1e-9) + 1e-12
    return np.linspace(0.0, r_max, params.table_points)


def traces_2d_per_node(f, boundary, times, params):
    """Two-dimensional traces as ``forward.simulate_traces`` applied the
    sparse trace operator before it applied dense row blocks to all tables
    at once: each node's table of the circle means of <grad f, nu>, and its
    row summed by one ``bincount`` over the operator entries on the node's
    runs of non-zero table columns, in the operator's column order.
    Returns the rows and the whole tables."""
    from neutrace.transforms import circle_means

    params = params.resolved(t_scale=times.t_max)
    r_grid = trace_grid_2d(times, params)
    rows, cols, coefs, ptr = trace_operator_2d_int64(times.samples, params, r_grid)
    out = np.zeros((len(boundary), times.nt))
    tables = np.zeros((len(boundary), len(r_grid)))
    for j, (y, nu) in enumerate(zip(boundary.points, boundary.normals)):
        tables[j] = circle_means(f, y, r_grid, direction=nu)
        runs = np.flatnonzero(np.diff(tables[j] != 0.0, prepend=False, append=False))
        if runs.size:
            sel = np.concatenate([np.arange(ptr[a], ptr[b]) for a, b in runs.reshape(-1, 2)])
            out[j] = np.bincount(
                rows[sel], weights=coefs[sel] * tables[j][cols[sel]], minlength=times.nt
            )
    out[:, 0] = 0.0
    return out, tables


def trace_spans_by_scan(values):
    """Each row's [first, end): its first and last value that is not +0.0,
    found by a scan of the row; [nt, nt) for a row of +0.0 only."""
    nt = values.shape[1]
    spans = []
    for row in values.tolist():
        signed = [i for i, v in enumerate(row) if v != 0.0 or math.copysign(1.0, v) < 0.0]
        spans.append((signed[0], signed[-1] + 1) if signed else (nt, nt))
    return spans


def write_trace_file_per_value(path, traces, timestamp=None) -> None:
    """The ``neumann-trace/5`` layout built value by value: the header of
    ``forward.write_trace_file``, each row's span from
    :func:`trace_spans_by_scan`, and every span value packed on its own by
    ``struct.pack("<d", v)``."""
    import struct

    from neutrace.forward import TRACE_FORMAT, _fmt

    d, p = traces.domain, traces.params
    n = d.dimension
    nt = traces.times.nt
    lines = [f"# {TRACE_FORMAT}"]
    if timestamp:
        lines.append(f"# generated = {timestamp}")
    lines += [
        f"# dimension = {n}",
        f"# domain.kind = {d.kind}",
        "# domain.center = " + ", ".join(_fmt(c) for c in d.center),
        "# domain.semi_axes = " + ", ".join(_fmt(a) for a in d.semi_axes),
        f"# domain.exponent = {_fmt(d.exponent)}",
        f"# boundary.resolution = {traces.boundary.resolution}",
        f"# nodes = {len(traces.boundary)}",
        f"# time.nt = {nt}",
        f"# time.t_max = {_fmt(traces.times.t_max)}",
        f"# solver.h_t = {_fmt(p.h_t)}",
        f"# solver.radial_quad = {p.radial_quad}",
        f"# solver.table_points = {p.table_points}",
        f"# phantom.hash = {traces.phantom_hash}",
    ]
    cols = [f"y_{i+1}" for i in range(n)] + [f"nu_{i+1}" for i in range(n)]
    lines.append("# columns: " + ",".join(cols + ["weight", "first", "end"]))
    b = traces.boundary
    payload = []
    for j, (first, end) in enumerate(trace_spans_by_scan(traces.values)):
        row = [float(v) for v in traces.values[j]]
        node = [*b.points[j].tolist(), *b.normals[j].tolist(), float(b.weights[j])]
        lines.append(",".join(_fmt(v) for v in node) + f",{first},{end}")
        payload += [struct.pack("<d", v) for v in row[first:end]]
    lines.append("# payload = <f8")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(b"".join(payload))


# ---------------------------------------------------------------------------
# broadcast point routes that the package now runs one coordinate plane at a
# time


def assert_same_bits(got, want):
    """Equal shapes and equal bits, so that -0.0 and +0.0 differ and NaNs match."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def ray_points_broadcast(x, r, dirs):
    """The points x + r u broadcast over their short last axis: the sphere,
    arc and window points before ``geometry._ray_points``."""
    return np.asarray(x, dtype=float) + np.asarray(r, dtype=float)[..., None] * dirs


def distance_broadcast(a, b):
    """Distances with the squares summed along the last axis: the bump, node,
    horizon and support distances before ``geometry._distance`` served them."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.sqrt(np.sum((a - b) ** 2, axis=-1))


def mean_directions_by_hand(n: int, m: int):
    """Directions and mean weights of ``transforms._mean_directions`` as
    written out before the shared rule ``calculus._sphere_rule``."""
    from neutrace.calculus import gauss_legendre

    if n == 2:
        ang = 2.0 * np.pi * np.arange(m) / m
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.full(m, 1.0 / m)
    rule = gauss_legendre(m, -1.0, 1.0)
    nphi = 2 * m
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    u, ph = np.meshgrid(rule.nodes, phi, indexing="ij")
    wu, _ = np.meshgrid(rule.weights, phi, indexing="ij")
    st = np.sqrt(1.0 - u * u)
    dirs = np.stack([st * np.cos(ph), st * np.sin(ph), u], axis=-1).reshape(-1, 3)
    return dirs, (wu / (2.0 * nphi)).reshape(-1)


def angular_set_by_hand(n: int, m: int):
    """Directions and weights of ``inversion._angular_set`` (total measure)
    as written out before the shared rule."""
    from neutrace.calculus import gauss_legendre

    if n == 2:
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.full(m, 2.0 * math.pi / m)
    rule = gauss_legendre(m, -1.0, 1.0)
    nphi = 2 * m
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    uu, ph = np.meshgrid(rule.nodes, phi, indexing="ij")
    wu, _ = np.meshgrid(rule.weights, phi, indexing="ij")
    st = np.sqrt(1.0 - uu * uu)
    dirs = np.stack([st * np.cos(ph), st * np.sin(ph), uu], axis=-1).reshape(-1, 3)
    return dirs, (wu * (2.0 * math.pi / nphi)).reshape(-1)


def volume_directions_by_hand(m_pol: int, m_azi: int, phase: float):
    """Directions and weights (total measure) of the volume rule of
    ``validation.check_integral_identity`` as written out before the shared
    rule: m_pol polar cosines times m_azi azimuths turned by ``phase``."""
    from neutrace.calculus import gauss_legendre

    pr = gauss_legendre(m_pol, -1.0, 1.0)
    azi = 2.0 * np.pi * (np.arange(m_azi) + 0.5) / m_azi + phase
    uu, ph_ = np.meshgrid(pr.nodes, azi, indexing="ij")
    wu, _ = np.meshgrid(pr.weights, azi, indexing="ij")
    st = np.sqrt(1.0 - uu * uu)
    dirs = np.stack([st * np.cos(ph_), st * np.sin(ph_), uu], axis=-1).reshape(-1, 3)
    return dirs, (wu * (2.0 * np.pi / m_azi)).reshape(-1)


def sine_ball_rule_by_hand(m: int, n: int | None = None):
    """Radius factors sin(phi) and weights of the m-point Gauss-Legendre rule
    on (0, pi/2) as written out before ``calculus._sine_ball_rule``: with n
    None the 2-D forward's weights w sin(phi), with an integer n the ball
    profile's weights w sin^{n-1}(phi)."""
    from neutrace.calculus import gauss_legendre

    rule = gauss_legendre(m, 0.0, 0.5 * np.pi)
    sin_phi = np.sin(rule.nodes)
    if n is None:
        return sin_phi, rule.weights * sin_phi
    return sin_phi, rule.weights * sin_phi ** (n - 1)


def wave_solution_2d_by_hand(f, x, t: float, params) -> float:
    """The 2-D ``forward.wave_solution`` as written out before the one
    time-stencil evaluator: the fourth-order time difference of
    tau * sum_q w_q sin(phi_q) M f(x, |tau| sin phi_q)."""
    from neutrace.forward import _D4_OFFSETS, _D4_WEIGHTS
    from neutrace.transforms import circle_means

    params = params.resolved(t_scale=max(1.0, t))
    sin_phi, wphi = sine_ball_rule_by_hand(params.radial_quad)
    h = params.h_t
    taus = np.asarray(t, dtype=float)[..., None] + h * _D4_OFFSETS
    radii = np.abs(taus)[..., None] * sin_phi
    means = circle_means(f, np.asarray(x, dtype=float), radii)
    g = taus * np.sum(means * wphi, axis=-1)
    return float(np.sum(g * _D4_WEIGHTS, axis=-1) / h)


def wave_solution_even_alt_by_hand(f, x, t: float, params) -> float:
    """``forward.wave_solution_even_alt`` as written out before the one
    time-stencil evaluator: Chebyshev midpoint angles, r = |tau| cos(theta)."""
    from neutrace.forward import _D4_OFFSETS, _D4_WEIGHTS
    from neutrace.transforms import circle_means

    params = params.resolved(t_scale=max(1.0, t))
    m = params.radial_quad
    theta = (np.arange(m) + 0.5) * (0.5 * np.pi / m)
    cos_th = np.cos(theta)
    w_th = np.full(m, 0.5 * np.pi / m)
    h = params.h_t
    taus = np.asarray(t, dtype=float)[..., None] + h * _D4_OFFSETS
    radii = np.abs(taus)[..., None] * cos_th
    means = circle_means(f, np.asarray(x, dtype=float), radii)
    g = taus * np.sum(means * (w_th * cos_th), axis=-1)
    return float(np.sum(g * _D4_WEIGHTS, axis=-1) / h)


def ellipsoid_sections_per_direction(domain, th, sp):
    """Ellipsoid section volumes of ``transforms._sections`` with each
    direction's support halfwidth written out, one row at a time: the loop
    before the halfwidths came from ``geometry.support_halfwidth``."""
    from neutrace.calculus import unit_ball_volume

    n = domain.dimension
    a = np.asarray(domain.semi_axes)
    out = np.empty_like(sp)
    for row, direction, offsets in zip(out, th, sp):
        w = float(np.sqrt(np.sum((a * direction) ** 2)))
        z2 = (offsets / w) ** 2
        pref = float(np.prod(a)) * unit_ball_volume(n - 1) / w
        row[:] = np.where(z2 < 1.0, pref * (1.0 - np.minimum(z2, 1.0)) ** ((n - 1) / 2.0), 0.0)
    return out


def support_radius_per_point(f, x) -> float:
    """Support radius of a Phantom or an ImageGrid around one point, one call
    per point, as ``inversion`` took it before the batched
    ``_support_radii``: np.linalg.norm per bump, and the distance to the
    farthest corner of the grid box.  The box's corners are the ends of the
    sample axes; the loop took them from ``lo`` and ``hi``, which differ on an
    axis with one sample."""
    import itertools

    x = np.asarray(x, dtype=float)
    if hasattr(f, "bumps"):
        r = 0.0
        for b in f.bumps:
            r = max(r, float(np.linalg.norm(np.asarray(b.center) - x)) + b.radius)
        return r
    corners = np.array(list(itertools.product(*[(ax[0], ax[-1]) for ax in f.axes()])))
    return float(np.sqrt(np.sum((corners - x) ** 2, axis=-1)).max())


def sphere_means_broadcast(f, x, radii, m: int, n: int | None = None):
    """``transforms.sphere_means`` with its points built by broadcasting."""
    from neutrace.transforms import _mean_directions

    x = np.asarray(x, dtype=float)
    n = x.shape[-1] if n is None else n
    r = np.abs(np.asarray(radii, dtype=float))
    dirs, w = _mean_directions(n, m)
    vals = getattr(f, "eval", f)(x + r[..., None, None] * dirs)
    return np.sum(vals * w, axis=-1)


def phantom_eval_broadcast(f, points):
    """``Phantom.eval`` with each bump's scaled squared radius summed along
    the last axis."""
    from neutrace.transforms import CINF, _mollifier_norm

    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1], dtype=float)
    for b in f.bumps:
        d = (pts - np.asarray(b.center)) / b.radius
        r2 = np.sum(d * d, axis=-1)
        inside = r2 < 1.0
        if not np.any(inside):
            continue
        ri = r2[inside]
        if b.profile == CINF:
            vals = b.amplitude * np.exp(1.0 - 1.0 / (1.0 - ri))
        else:
            a = _mollifier_norm(b.dimension, b.mu)
            vals = b.amplitude * (1.0 - ri) ** b.mu / (a * b.radius**b.dimension)
        out[inside] += vals
    return out


def phantom_slope(f, direction):
    """The field <grad f, direction> at an (..., n) array of points, with the
    gradient of each bump B(|x - c|^2 / R^2) taken as B'(u) 2 (x - c) / R^2:
    ``Phantom.eval(points, direction)`` as written before
    ``transforms.circle_means`` took the means of the gradient on each
    bump's arc."""
    from neutrace.transforms import _bump_slope

    direction = np.asarray(direction, dtype=float)

    def slope(points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for b in f.bumps:
            offset = pts - np.asarray(b.center)
            r2 = np.sum(offset * offset, axis=-1) / b.radius**2
            inside = r2 < 1.0
            along = offset[inside] @ direction * (2.0 / b.radius**2)
            out[inside] += _bump_slope(b, r2[inside], b.dimension) * along
        return out

    return slope


def mollifier_eval_broadcast(mu: int, eps: float, x, n: int | None = None):
    """``transforms.mollifier_eval`` with the scaled squared radius summed
    along the last axis."""
    from neutrace.transforms import _mollifier_norm

    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    n = pts.shape[-1] if n is None else n
    r2 = np.sum((pts / eps) ** 2, axis=-1)
    a = _mollifier_norm(n, mu)
    out = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** mu / (a * eps**n), 0.0)
    return float(out) if scalar else out


def ellipsoid_rim_on_the_grid(domain, u, phi):
    """Rim points of a 3-D ellipsoid relative to its centre with u and phi
    first spread over their common grid, one square root, sine and cosine
    per grid point: ``geometry._ellipsoid_rim`` before it formed the polar
    and azimuth factors on their own shapes."""
    u, phi = (np.array(a) for a in np.broadcast_arrays(u, phi))
    a1, a2, a3 = domain.semi_axes
    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return np.stack([a1 * st * np.cos(phi), a2 * st * np.sin(phi), a3 * u], axis=-1)


# ---------------------------------------------------------------------------
# single-chord and single-point routes that the pipeline does not run


class EndpointSingularityError(ValueError):
    """Principal-value evaluation point coincides with a support endpoint."""


def hilbert_pv(phi, support, s: float, m: int) -> float:
    """Hilbert transform (1/pi) p.v. integral of phi(t)/(s - t) dt for a
    function supported on [a, b], by Gauss-Legendre rules.

    Inside the support the singularity is subtracted:
    (1/pi) [ int (phi(t) - phi(s))/(s - t) dt + phi(s) ln((s-a)/(b-s)) ].
    """
    from neutrace.calculus import gauss_legendre

    a, b = (float(support[0]), float(support[1]))
    if min(abs(s - a), abs(s - b)) <= 1e-12:
        raise EndpointSingularityError(f"evaluation point {s} coincides with a support endpoint")
    if s < a or s > b:
        rule = gauss_legendre(m, a, b)
        vals = np.asarray(phi(rule.nodes), dtype=float)
        return float(np.sum(rule.weights * vals / (s - rule.nodes)) / math.pi)
    phis = float(phi(np.asarray([s]))[0])
    total = phis * math.log((s - a) / (b - s))
    half = max(m // 2, 32)
    for lo, hi in ((a, s), (s, b)):
        rule = gauss_legendre(half, lo, hi)
        vals = np.asarray(phi(rule.nodes), dtype=float)
        total += float(np.sum(rule.weights * (vals - phis) / (s - rule.nodes)))
    return total / math.pi


def radon_chi(domain, theta, s):
    """(n-1)-volume of the section of the domain by the hyperplane
    {<x, theta> = s}, at a scalar or an array of offsets: one row of
    ``transforms._sections``."""
    from neutrace.transforms import _centre_offsets, _sections

    th = np.asarray(theta, dtype=float)
    ss = np.asarray(s, dtype=float)
    sp = ss.reshape(-1) - _centre_offsets(domain, th)
    out = _sections(domain, th[None, :], sp[None, :])[0]
    return float(out[0]) if ss.ndim == 0 else out.reshape(ss.shape)


def ellipsoid_profile_deriv(domain, th, sp, order: int):
    """Closed-form offset derivative of an ellipsoid's section profile
    pref (1 - z^2)^((n-1)/2), z = sp / w, at centred offsets ``sp``; orders
    0..3 in three dimensions, 2 in two."""
    from neutrace.calculus import unit_ball_volume

    n = domain.dimension
    a = np.asarray(domain.semi_axes)
    w = float(np.sqrt(np.sum((a * th) ** 2)))
    pref = float(np.prod(a)) * unit_ball_volume(n - 1) / w
    z = np.asarray(sp, dtype=float) / w
    if n == 2:
        return {2: -pref / (w**2 * (1.0 - z * z) ** 1.5)}[order]
    # the profile is quadratic in the offset
    return (pref * (1.0 - z * z), -2.0 * pref * z / w, np.full_like(z, -2.0 * pref / w**2),
            np.zeros_like(z))[order]


def radon_chi_deriv(domain, theta, s: float, order: int, *, method: str = "auto",
                    margin: float = 0.0) -> float:
    """Offset derivative of order 1..3 of one section profile: the closed
    form (``analytic``, the default on ellipsoids) or fourth-order central
    differences of :func:`radon_chi` with one Richardson step (``fd``).  A
    chord outside the window of ``transforms._offset_window`` raises."""
    from neutrace.calculus import richardson, stencil_derivative
    from neutrace.transforms import _offset_window

    th = np.asarray(theta, dtype=float)
    w, sp = _offset_window(domain, th, float(s), margin, order)
    if method == "analytic" or (method == "auto" and domain.kind == "ellipsoid"):
        return float(ellipsoid_profile_deriv(domain, th, sp, order))
    # the widest stencil, at 2h, reaches 6h < w - |s'|: every chord stays secant
    h = min(1e-2 * w, (w - abs(float(sp))) / 8.0)
    d_h, d_2h = (
        stencil_derivative(lambda t: radon_chi(domain, th, t), s, step, order) for step in (h, 2.0 * h)
    )
    return float(richardson(d_h, d_2h))


def neumann_trace(f, domain, y, nu, t: float, params=None, h_nu=None) -> float:
    """Outward normal derivative of the wave field at one boundary point y
    and one time t >= 0: the normal stencil of step ``h_nu`` across y
    applied to the package's pointwise wave fields
    (``forward.phantom_pressure`` in three dimensions, ``forward._even_field``
    in two), with f itself at t = 0."""
    from neutrace.calculus import _sine_ball_rule
    from neutrace.forward import SolverParams, _even_field, phantom_pressure

    params = (params or SolverParams()).resolved(t_scale=max(1.0, t))
    offsets, weights = normal_stencil(h_nu or _default_h_nu(domain))
    centers = np.asarray(y, dtype=float) + offsets[:, None] * np.asarray(nu, dtype=float)
    if t == 0.0:
        vals = f.eval(centers)
    elif f.dimension == 3:
        vals = np.array([phantom_pressure(f, c, np.asarray(t, dtype=float)) for c in centers])
    else:
        rule = _sine_ball_rule(params.radial_quad, 2)
        vals = np.array([_even_field(f, c, t, params, rule) for c in centers])
    return float(np.sum(weights * vals))


# ---------------------------------------------------------------------------
# per-direction routes of the correction's set-up, which the package now runs
# on flat live arrays, in place and on stacked tables


def superellipse_chord_gathered(domain, th, sp):
    """Chord lengths by the Newton search of ``transforms._superellipse_chord``
    as it ran before its live ends were kept as flat, shrinking arrays: every
    step gathers the live ends from the (2, live) planes by index, and every
    array of the search keeps its full length."""
    from neutrace import transforms
    from neutrace.geometry import _level_slope, level_value, support_halfwidth

    c = np.asarray(domain.center)
    a = np.asarray(domain.semi_axes)
    q = domain.exponent / (domain.exponent - 1.0)
    perp = np.stack([-th[:, 1], th[:, 0]], axis=-1)
    w = support_halfwidth(domain, th)
    x_star = a * np.sign(th) * (np.abs(a * th) / w[:, None]) ** (q - 1.0)
    tau0 = sp / w[:, None] * np.sum(x_star * perp, axis=-1)[:, None]
    perp = perp.T[:, :, None]
    base = c[:, None, None] + sp * th.T[:, :, None]
    inside = level_value(domain, np.moveaxis(base + tau0 * perp, 0, -1)) < 1.0
    rows, cols = np.nonzero((np.abs(sp) < w[:, None]) & inside)
    base = base[:, rows, cols]
    out = np.zeros(sp.shape)
    for side in (1.0, -1.0):
        along = side * perp[:, rows, 0]
        floor = side * tau0[rows, cols]
        speed = np.abs(along)
        exits = np.divide(
            a[:, None] - np.sign(along) * (base - c[:, None]), speed,
            out=np.full(speed.shape, np.inf), where=speed > 0.0,
        )
        tau = exits.min(axis=0)
        level = np.full(tau.size, np.inf)
        live = np.arange(tau.size)
        for _ in range(transforms.CHORD_NEWTON_STEPS):
            value, slope = _level_slope(
                domain, np.moveaxis(base[:, live] + tau[live] * along[:, live], 0, -1),
                np.moveaxis(along[:, live], 0, -1),
            )
            move = (value > 1.0) & (slope > 0.0) & (value < level[live])
            live = live[move]
            level[live] = value[move]
            new = np.maximum(tau[live] - (value[move] - 1.0) / slope[move], floor[live])
            inward = new < tau[live]
            live = live[inward]
            tau[live] = new[inward]
            if not live.size:
                break
        else:
            raise RuntimeError("superellipse chord search did not converge")
        out[rows, cols] += tau
    return out


def hilbert_core_dense(s_grid, rchi_vals, t_nodes, phi_nodes, jac, w):
    """The quadrature part of one direction's Hilbert table as
    ``transforms._profile_tables`` formed it before it divided in place:
    the removable-point slope taken always and the quotient through
    ``np.where``."""
    slope = np.gradient(phi_nodes, t_nodes)
    den = s_grid[:, None] - t_nodes[None, :]
    num = phi_nodes[None, :] - rchi_vals[:, None]
    tiny = np.abs(den) < 1e-9 * w
    ratio = np.where(tiny, -slope[None, :], num / np.where(tiny, 1.0, den))
    return np.sum(ratio * jac[None, :], axis=1)


def profile_tables_dense(s_grid, rchi_vals, t_nodes, phi_nodes, jac, s_center, w):
    """One direction's Hilbert table, with its log term added here."""
    core = hilbert_core_dense(s_grid, rchi_vals, t_nodes, phi_nodes, jac, w)
    a, b = s_center - w, s_center + w
    log_term = rchi_vals * np.log((s_grid - a) / (b - s_grid))
    return (core + log_term) / math.pi


def derivative_columns_per_direction(vals, ds, order: int) -> dict:
    """Richardson offset derivatives 1..order of one direction's table."""
    from neutrace.calculus import richardson, stencil_apply

    return {
        m: richardson(stencil_apply(vals, ds, m, stride=1), stencil_apply(vals, ds, m, stride=2))
        for m in range(1, order + 1)
    }


def build_profiles_per_direction(domain, thetas, order, margin, num_table, num_quad, with_hilbert):
    """Kernel profiles as ``transforms._build_profiles`` finished them before
    it worked on stacked tables: section values from one batched call (the
    gathered chord search on a superellipse), then each direction's Hilbert
    table, log term and derivative columns on their own."""
    from neutrace.calculus import gauss_legendre
    from neutrace.geometry import support_halfwidth
    from neutrace.transforms import (
        _PAD, KernelProfile, _centre_offsets, _check_unit, _sections,
    )

    if with_hilbert is None:
        with_hilbert = domain.dimension % 2 == 0
    rule = gauss_legendre(num_quad, -0.5 * math.pi, 0.5 * math.pi) if with_hilbert else None
    ths = [_check_unit(theta) for theta in thetas]
    frames, rows = [], []
    for th, s_center in zip(ths, _centre_offsets(domain, np.array(ths)).tolist()):
        w = support_halfwidth(domain, th)
        v = (w - margin) / (1.0 - 2.0 * _PAD / (num_table - 1))
        offsets = s_grid = s_center + np.linspace(-v, v, num_table)
        if with_hilbert:
            offsets = np.concatenate([s_grid, s_center + w * np.sin(rule.nodes)])
        frames.append((w, s_center, offsets))
        rows.append(offsets - s_center)
    sections = superellipse_chord_gathered if domain.kind == "superellipse" else _sections
    values = sections(domain, np.array(ths), np.array(rows))
    profiles = []
    for th, (w, s_center, offsets), vals in zip(ths, frames, values):
        s_grid, rvals = offsets[:num_table], vals[:num_table]
        ds = s_grid[1] - s_grid[0]
        hvals = hrchi_d = None
        if with_hilbert:
            jac = w * np.cos(rule.nodes) * rule.weights
            hvals = profile_tables_dense(
                s_grid, rvals, offsets[num_table:], vals[num_table:], jac, s_center, w
            )
            hrchi_d = derivative_columns_per_direction(hvals, ds, order)
        profiles.append(
            KernelProfile(
                domain=domain, theta=tuple(float(t) for t in th), order=order,
                margin=float(margin), with_hilbert=with_hilbert, s_center=s_center,
                halfwidth=w, s_grid=s_grid, rchi=rvals,
                rchi_d=derivative_columns_per_direction(rvals, ds, order),
                hrchi=hvals, hrchi_d=hrchi_d,
            )
        )
    return profiles


def correction_matrix_per_direction(grid, domain, opts):
    """K_h as ``inversion._correction_matrix`` assembled it before it read
    blocks of directions at once: per direction one corner call on its
    samples and one ``KernelProfile.eval``, then its ``bincount``."""
    from neutrace.inversion import ImageGrid, _correction_constant, _correction_quadrature

    n = domain.dimension
    pts = grid.points()
    size = len(pts)
    matrix = np.zeros(size * size)
    box = ImageGrid(grid.lo, grid.hi, grid.shape, np.ones(size))
    r_max, rad, dirs, wdir, profiles = _correction_quadrature(
        grid, box.interp, pts, domain, opts, opts.kernel_margin
    )
    if profiles is None:
        return matrix.reshape(size, size)
    r = r_max[:, None] * rad.nodes
    even = n % 2 == 0
    for omega, w_omega, profile in zip(dirs, wdir, profiles):
        idx, weights = grid._corners((pts[:, None, :] + r[..., None] * omega).reshape(-1, n))
        inside = np.any(weights != 0.0, axis=0).reshape(r.shape)
        s_vals = np.sum(pts * omega, axis=-1)[:, None] + 0.5 * r
        kvals = profile.eval(s_vals[inside], order=n, hilbert=even)
        coef = _correction_constant(n) * w_omega * r_max[:, None] * rad.weights
        live = inside.reshape(-1)
        cells = np.nonzero(inside)[0] * size + idx[:, live]
        terms = weights[:, live] * (coef[inside] * kvals)
        matrix += np.bincount(cells.reshape(-1), terms.reshape(-1), minlength=size * size)
    return matrix.reshape(size, size)


def cinf_primitive_plain(u):
    """``validation._cinf_primitive`` as one expression with a fresh array
    per operation and two reductions for its range check: the lookup before
    it reused its temporaries."""
    from neutrace.validation import _PRIMITIVE_CELLS, _cinf_primitive_table

    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("the cinf primitive is tabulated on [0, 1] only")
    values, slopes = _cinf_primitive_table()
    x = u * _PRIMITIVE_CELLS
    k = np.minimum(x.astype(np.intp), _PRIMITIVE_CELLS - 1)
    th = x - k
    om = 1.0 - th
    return (values[k] * (1.0 + 2.0 * th) + slopes[k] * th) * (om * om) + (
        values[k + 1] * (3.0 - 2.0 * th) - slopes[k + 1] * om
    ) * (th * th)



def profiles_per_direction(quadrature):
    """``quadrature``, the correction's ``_correction_quadrature``, as it was
    before the kernel tables were built once per mirror orbit: the same
    radii, rules and directions, and one profile built for every direction."""
    from neutrace.transforms import _build_profiles

    def per_direction(f, evaluator, pts, domain, opts, margin):
        r_max, rad, dirs, wdir, profiles = quadrature(f, evaluator, pts, domain, opts, margin)
        if profiles is not None:
            n = domain.dimension
            profiles = _build_profiles(
                domain, dirs, n, margin, opts.kernel_table, opts.kernel_quad, n % 2 == 0
            )
        return r_max, rad, dirs, wdir, profiles

    return per_direction


# ---------------------------------------------------------------------------
# the masked routes of the closed fields' band kernels


def bump_radial_masked(bump, rho, n=None):
    """``transforms.bump_radial`` as written before it evaluated all-inside
    input whole: zeros, and the profile gathered and scattered at the
    entries inside the support, whatever their number."""
    from neutrace.transforms import _bump_profile

    n = bump.dimension if n is None else n
    rho = np.asarray(rho, dtype=float)
    u = (rho / bump.radius) ** 2
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = _bump_profile(bump, u[inside], n)
    return out


def bump_radial_deriv_masked(bump, rho, n=None):
    """``transforms.bump_radial_deriv`` by the masked route of
    ``bump_radial_masked``."""
    from neutrace.transforms import _bump_slope

    n = bump.dimension if n is None else n
    rho = np.asarray(rho, dtype=float)
    u = (rho / bump.radius) ** 2
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = _bump_slope(bump, u[inside], n) * (2.0 * rho[inside] / bump.radius**2)
    return out


def radial_pressure_masked(bump, d, t):
    """``forward.radial_pressure`` as written before it replaced d only when
    some entry is near the centre, on the masked profile route."""
    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    small = d < 1e-8 * bump.radius
    ds = np.where(small, 1.0, d)
    plus = (t + ds) * bump_radial_masked(bump, t + ds, 3)
    minus = (t - ds) * bump_radial_masked(bump, np.abs(t - ds), 3)
    u = np.asarray((plus - minus) / (2.0 * ds))
    if small.any():
        ts = t[small]
        u[small] = bump_radial_masked(bump, ts, 3) + ts * bump_radial_deriv_masked(bump, ts, 3)
    return u


def radial_velocity_stacked(bump, d, t, rim=None):
    """``validation._radial_velocity`` as written before it looked G up per
    end: both clipped ends stacked, G(eps) filled in everywhere and the
    primitive looked up in one call at the stacked ends inside the support.
    ``rim`` defaults to G(eps)."""
    from neutrace.validation import _radial_primitive

    if rim is None:
        rim = _radial_primitive(bump, bump.radius)
    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    eps = bump.radius
    lo = np.clip(np.abs(t - d), 0.0, eps)
    ends = np.stack((np.clip(t + d, lo, eps), lo))
    prim = np.full(ends.shape, rim)
    inner = ends < eps
    prim[inner] = _radial_primitive(bump, ends[inner])
    small = d < 1e-8 * eps
    v = np.asarray((prim[0] - prim[1]) / (2.0 * np.where(small, 1.0, d)))
    if small.any():
        v[small] = t[small] * bump_radial_masked(bump, t[small], 3)
    return v


def sphere_means_ray_points(f, x, radii, m: int, n=None):
    """``transforms.sphere_means`` with its points built by
    ``geometry._ray_points`` from C-ordered directions, which it reads one
    stride-n column per coordinate: the route before the mean directions
    were kept as coordinate planes."""
    from neutrace.geometry import _ray_points
    from neutrace.transforms import _mean_directions

    x = np.asarray(x, dtype=float)
    n = x.shape[-1] if n is None else n
    r = np.abs(np.asarray(radii, dtype=float))
    dirs, w = _mean_directions(n, m)
    vals = getattr(f, "eval", f)(_ray_points(x, r[..., None], np.ascontiguousarray(dirs)))
    return np.sum(vals * w, axis=-1)


def circle_means_masked(f, x, radii, direction=None):
    """``transforms.circle_means`` as it evaluated every bump's arc nodes
    through the mask u < 1, gathered and scattered even when every node lies
    inside the bump: the route before all-inside arcs were evaluated whole."""
    from neutrace import transforms

    x = np.asarray(x, dtype=float)
    flat = np.abs(np.asarray(radii, dtype=float)).reshape(-1)
    out = np.zeros(flat.shape)
    s, w = (v[transforms.ARC_NODES // 2 :] for v in transforms._leggauss(transforms.ARC_NODES))
    for bump in f.bumps:
        e = np.asarray(bump.center, dtype=float) - x
        d, big = math.hypot(*e.tolist()), bump.radius
        if direction is not None and d == 0.0:
            continue
        a = (big - flat + d) * (big + flat - d)
        live = np.flatnonzero(a > 0.0)
        rl = flat[live]
        b = np.maximum((rl + d - big) * (rl + d + big), 0.0)
        theta_m = 2.0 * np.arctan2(np.sqrt(a[live]), np.sqrt(b))
        theta = theta_m[:, None] * s
        u = (((rl - d) ** 2)[:, None] + 4.0 * d * rl[:, None] * np.sin(0.5 * theta) ** 2) / big**2
        inside = u < 1.0
        vals = np.zeros(u.shape)
        if direction is None:
            vals[inside] = transforms._bump_profile(bump, u[inside], 2)
        else:
            along = (rl[:, None] * np.cos(theta) - d) * (2.0 / big**2)
            vals[inside] = transforms._bump_slope(bump, u[inside], 2) * along[inside]
        mean = theta_m / math.pi * np.sum(vals * w, axis=-1)
        if direction is not None:
            mean *= float(e @ np.asarray(direction, dtype=float)) / d
        out[live] += mean
    return out.reshape(np.shape(radii))


def trace_operator_blocks_full_columns(times, params, r_grid, c_lo=0, c_hi=None):
    """``forward._trace_operator_blocks`` as it built the cardinal weights,
    scales and keys of every (row, time offset, phi node) term of a block and
    dropped the entries off the window [c_lo, c_hi) only before the merge:
    the build before only the terms that reach the window were taken."""
    from neutrace.calculus import cubic_stencil
    from neutrace.forward import _D4_OFFSETS, _D4_WEIGHTS

    sin_phi, wphi = sine_ball_rule_by_hand(params.radial_quad)
    h = params.h_t
    npts = r_grid.shape[0]
    c_hi = npts if c_hi is None else c_hi
    width = c_hi - c_lo
    for lo in range(0, times.shape[0], 32):
        taus = times[lo : lo + 32, None] + h * _D4_OFFSETS
        radii = np.abs(taus)[..., None] * sin_phi
        k, weights = cubic_stencil(radii, r_grid[0], r_grid[1] - r_grid[0], npts)
        scale = (_D4_WEIGHTS / h * taus)[..., None] * wphi
        local = np.arange(taus.shape[0])[:, None, None] * width - c_lo
        key, val = [], []
        for l, card in enumerate(weights):
            col = k + (l - 1)
            inside = (col >= c_lo) & (col < c_hi)
            key.append((local + col)[inside])
            val.append((scale * card)[inside])
        dense = np.bincount(
            np.concatenate(key), weights=np.concatenate(val), minlength=taus.shape[0] * width
        )
        yield slice(lo, lo + taus.shape[0]), dense.reshape(taus.shape[0], width).astype(float)


def traces_2d_full_grid(f, boundary, times, params):
    """Two-dimensional trace values as ``forward.simulate_traces`` took them
    before it laid each node's table on the node's annulus only: every table
    by :func:`circle_means_masked` on the whole radial grid, kept as its
    span of non-zero values, and the operator of
    :func:`trace_operator_blocks_full_columns` on the columns the spans
    reach, applied to the stacked spans."""
    from neutrace.calculus import column_products

    params = params.resolved(t_scale=times.t_max)
    r_grid = trace_grid_2d(times, params)
    values = np.zeros((len(boundary), times.nt))
    spans = []
    for j, (y, nu) in enumerate(zip(boundary.points, boundary.normals)):
        table = circle_means_masked(f, y, r_grid, direction=nu)
        nz = np.flatnonzero(table)
        if nz.size:
            spans.append((j, nz[0], table[nz[0] : nz[-1] + 1].copy()))
    if spans:
        c_lo = min(first for _, first, _ in spans)
        c_hi = max(first + span.size for _, first, span in spans)
        live = [j for j, _, _ in spans]
        tables = np.zeros((len(spans), c_hi - c_lo))
        for row, (_, first, span) in zip(tables, spans):
            row[first - c_lo : first - c_lo + span.size] = span
        blocks = trace_operator_blocks_full_columns(times.samples, params, r_grid, c_lo, c_hi)
        for rows, w in blocks:
            values[live, rows] = column_products(tables, w)
    values[:, 0] = 0.0
    return values


def write_image_csv_per_point(path, grid) -> None:
    """``inversion.write_image_csv`` as it formatted the numpy scalars of
    each grid point and value one by one and wrote one line at a time."""
    from neutrace.inversion import _fmt

    n = grid.dimension
    pts = grid.points()
    vals = np.asarray(grid.values).reshape(-1)
    with open(path, "w") as fh:
        fh.write(",".join([f"x_{i+1}" for i in range(n)] + ["value"]) + "\n")
        for p, v in zip(pts, vals):
            fh.write(",".join(_fmt(c) for c in p) + f",{_fmt(v)}\n")
