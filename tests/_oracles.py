"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own quadrature helpers:
oracles re-derive values through different algorithms (adaptive Simpson,
symmetric-exclusion principal values, brute-force indicator quadrature) so
that agreement is evidence, not circularity.  The exception is the ungated
integral identity at the end: it keeps the package's own rules and fields and
only evaluates the velocity everywhere, so that skipping exact zeros can be
held to bit equality.
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


def radial_velocity_ungated(bump, d, t, quad: int = 48):
    """Closed radial velocity field with the 48-point quadrature run on every
    (d, t) entry, empty intervals included: the full-broadcast form that the
    gated ``validation.radial_velocity`` must reproduce."""
    from neutrace.calculus import gauss_legendre
    from neutrace.transforms import bump_radial

    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    eps = bump.radius
    lo = np.clip(np.abs(t - d), 0.0, eps)
    hi = np.clip(t + d, 0.0, eps)
    length = np.maximum(hi - lo, 0.0)
    rule = gauss_legendre(quad, 0.0, 1.0)
    rho = lo[..., None] + length[..., None] * rule.nodes
    integral = length * np.sum(rho * bump_radial(bump, rho, 3) * rule.weights, axis=-1)
    small = d < 1e-8 * eps
    v = integral / (2.0 * np.where(small, 1.0, d))
    return np.where(small, t * bump_radial(bump, t, 3), v)


def _phantom_velocity_ungated(f, pts, t, quad: int = 48):
    pts = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(pts.shape[:-1], t.shape))
    for b in f.bumps:
        d = np.sqrt(np.sum((pts - np.asarray(b.center)) ** 2, axis=-1))
        out = out + radial_velocity_ungated(b, d, t, quad=quad)
    return out


def integral_identity_terms_ungated(f, g, domain, level: int = 0, *, phase: float = 0.0,
                                    velocity_quad: int = 48, chunk: int = 256) -> dict:
    """Both sides of the three-dimensional integral identity with the velocity
    field evaluated at every (point, time) pair of the boundary and volume
    terms, as ``validation.check_integral_identity`` did before it evaluated
    the velocity only where the pressure factor is non-zero.

    Returns ``lhs``, ``rhs``, ``term_boundary``, ``term_volume`` and
    ``weights_nonzero``, the number of pairs with a non-zero pressure factor
    (normal derivative on the boundary, pressure in the volume).  Assumes both
    phantoms are non-empty and inside the domain.
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
    vq = velocity_quad * scale
    h_lap = 1e-2 * min(domain.semi_axes) / scale
    h_nu = 1e-3 * min(domain.semi_axes) / scale

    boundary = boundary_quadrature(domain, res_b, phase=phase)
    horizon = min(huygens_horizon(f, boundary), huygens_horizon(g, boundary))
    lhs = _product_integral(f, g, m_box)
    trule = gauss_legendre(nt, 0.0, horizon)

    pts, nus, wb = boundary.points, boundary.normals, boundary.weights
    vel = _phantom_velocity_ungated(g, pts[:, None, :], trule.nodes, quad=vq)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * h_nu
    stw = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h_nu)
    shifted = pts[:, None, :] + offs[None, :, None] * nus[:, None, :]
    pshift = phantom_pressure(f, shifted[:, :, None, :], trule.nodes)
    du = np.tensordot(stw, np.moveaxis(pshift, 1, 0), axes=(0, 0))
    term_boundary = 2.0 * float(wb @ (du * vel) @ trule.weights)
    nonzero = int(np.count_nonzero(du))

    rr = gauss_legendre(m_rad, 0.0, 1.0)
    pr = gauss_legendre(m_pol, -1.0, 1.0)
    azi = 2.0 * np.pi * (np.arange(m_azi) + 0.5) / m_azi + phase
    uu, ph_ = np.meshgrid(pr.nodes, azi, indexing="ij")
    wu, _ = np.meshgrid(pr.weights, azi, indexing="ij")
    st = np.sqrt(1.0 - uu * uu)
    dirs = np.stack([st * np.cos(ph_), st * np.sin(ph_), uu], axis=-1).reshape(-1, 3)
    wsph = (wu * (2.0 * np.pi / m_azi)).reshape(-1)
    a = np.asarray(domain.semi_axes)
    nodes = (np.asarray(domain.center) + rr.nodes[:, None, None] * dirs[None, :, :] * a).reshape(-1, 3)
    wvol = (float(np.prod(a)) * (rr.weights * rr.nodes**2)[:, None] * wsph[None, :]).reshape(-1)

    stencil = np.zeros((7, 3))
    for i in range(3):
        stencil[1 + 2 * i, i] = h_lap
        stencil[2 + 2 * i, i] = -h_lap
    term_volume = 0.0
    for lo_i in range(0, nodes.shape[0], chunk):
        block = nodes[lo_i : lo_i + chunk]
        sp = block[:, None, :] + stencil[None, :, :]
        pp = phantom_pressure(f, sp[:, :, None, :], trule.nodes)
        vv = _phantom_velocity_ungated(g, sp[:, :, None, :], trule.nodes, quad=vq)
        prod = pp * vv
        lap = (np.sum(prod[:, 1:, :], axis=1) - 6.0 * prod[:, 0, :]) / h_lap**2
        term_volume += float(wvol[lo_i : lo_i + chunk] @ lap @ trule.weights)
        nonzero += int(np.count_nonzero(pp))

    return {
        "lhs": lhs,
        "rhs": term_boundary - term_volume,
        "term_boundary": term_boundary,
        "term_volume": term_volume,
        "weights_nonzero": nonzero,
    }
