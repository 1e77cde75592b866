"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own quadrature helpers:
oracles re-derive values through different algorithms (adaptive Simpson,
symmetric-exclusion principal values, brute-force indicator quadrature) so
that agreement is evidence, not circularity.
"""

from __future__ import annotations

import math

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


def trace_table_2d_per_centre(tables, stencil_w, times, h_t: float, radial_quad: int, r_grid):
    """Two-dimensional table traces of one node, centre by centre.

    ``tables[c]`` holds the circular means around normal-stencil centre c on
    the uniform ``r_grid``.  Each centre's table is interpolated at the
    sine-substituted radii |tau| sin(phi) with four-point Lagrange weights
    written out here, integrated over phi, differenced in time, and only
    then combined across centres with ``stencil_w``: the order of the
    per-centre route the trace operator replaced.
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
    row = np.zeros(len(times))
    for table, s in zip(tables, stencil_w):
        means = sum(lw * table[k + l - 1] for l, lw in enumerate(lagrange))
        g = taus * np.sum(means * wphi, axis=-1)
        row += s * np.sum(g * d4, axis=-1) / h_t
    return row
