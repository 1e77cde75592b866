"""Numerical certification of the identities the inversion rests on.

Each check computes both sides of one identity through routes that share
as little code as possible (closed radial forms against quadrature
solvers, symbolic coefficient expansion against recursion, exact Radon
formulas against direct integrals) and reports the residual together
with the resolution parameters that produced it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .calculus import (
    _sine_ball_rule,
    _sphere_rule,
    coeff_c,
    gauss_legendre,
    stencil_derivative,
    unit_ball_volume,
)
from .forward import (
    _BLOCK_VALUES,
    SolverParams,
    _nonnegative,
    _pressure_on_band,
    huygens_horizon,
    phantom_pressure,
    radial_pressure,
    support_margin,
    wave_solution,
    wave_solution_even_alt,
)
from .geometry import ConvexDomain, _distance, boundary_quadrature
from .transforms import (
    CINF,
    Bump,
    Phantom,
    _mean_directions,
    _mollifier_norm,
    _on_support,
    bump_radial,
    mollifier_eval,
    mollifier_radon,
    sphere_means,
)

__all__ = [
    "IdentityReport",
    "radial_pressure",
    "radial_velocity",
    "phantom_pressure",
    "phantom_velocity",
    "check_integral_identity",
    "check_lemma_coefficients",
    "check_lemma_symbolic",
    "check_even_equivalence",
    "check_mollifier",
]

_REL_FLOOR = 1e-14

#: each check parameter's fixed range, as a test and its error; the checks and
#: ``cli.parse_config`` both apply them
_PARAMETER_RANGES = {
    "lemma_k": (lambda k: k in (1, 2), "nested differencing is implemented for k in (1, 2), got {}"),
    "lemma_t": (lambda t: 0.0 < t < 2.0, "evaluation time must lie in (0, 2), got {}"),
    "symbolic_n": (lambda n: n >= 2, "the coefficient table requires n >= 2, got n={}"),
    "symbolic_k": (lambda k: k >= 0, "k must be >= 0, got {}"),
    "mollifier_mu": (lambda mu: mu >= 1, "mollifier order must be >= 1, got {}"),
    "mollifier_eps": (lambda eps: eps > 0, "mollifier width must be positive, got {}"),
}


def _in_range(name: str, values) -> None:
    """Raise ValueError unless each of ``values`` (one or a tuple) lies in the
    range of check parameter ``name``."""
    accepts, message = _PARAMETER_RANGES[name]
    for value in values if isinstance(values, tuple) else (values,):
        if not accepts(value):
            raise ValueError(message.format(value))


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one checked identity plus how they were computed."""

    name: str
    lhs: float
    rhs: float
    params: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def abs_residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self) -> float:
        return self.abs_residual / max(abs(self.lhs), _REL_FLOOR)


def _sphere_surface(n: int) -> float:
    return n * unit_ball_volume(n)


# ---------------------------------------------------------------------------
# closed radial wave fields (n = 3)
#
# For a single radial profile b and d = |x - center|, the free-space
# solution with data (b, 0) is u = [(t+d) b(t+d) - (t-d) b(|t-d|)] / (2d)
# (``radial_pressure``, the forward module's three-dimensional field) and
# with data (0, b) it is v = [G(t+d) - G(|t-d|)] / (2d), where the
# primitive G(rho) = integral of s b(s) over (0, rho) is in closed form.
# Sums of bumps superpose.  Neither uses a quadrature, so the identity
# checks measure only their own outer rules and differences.

# cells of the cubic Hermite table of the cinf primitive E on [0, 1]; its
# interpolation error is below h^4 / 384 * max|E''''| = 7.7e-16
_PRIMITIVE_CELLS = 4096


@lru_cache(maxsize=None)
def _cinf_primitive_table():
    """Values of E(u) = integral of exp(1 - 1/(1 - s)) over (0, u) at the
    table nodes, and its exact slopes E'(u) times the cell width.

    The node values are a running sum of 8-point Gauss-Legendre cell
    integrals of the exact integrand.  The rounding of every addition is
    recovered exactly (two-sum) and added back, so each node value stays
    within a few ulps of E(1) instead of drifting with the cell count.
    """
    cells = _PRIMITIVE_CELLS
    x, w = np.polynomial.legendre.leggauss(8)
    nodes = np.arange(cells + 1) / cells
    s = nodes[:-1, None] + (0.5 + 0.5 * x) / cells
    parts = np.exp(1.0 - 1.0 / (1.0 - s)) @ w / (2 * cells)
    run = np.cumsum(parts)
    prev = np.concatenate(([0.0], run[:-1]))
    added = run - prev
    values = np.zeros(cells + 1)
    values[1:] = run + np.cumsum((prev - (run - added)) + (parts - added))
    slopes = np.zeros(cells + 1)
    slopes[:-1] = np.exp(1.0 - 1.0 / (1.0 - nodes[:-1])) / cells
    values.setflags(write=False)
    slopes.setflags(write=False)
    return values, slopes


#: bit pattern of 1.0: the doubles +0.0 to 1.0 are, as unsigned integers,
#: exactly those up to it; -0.0, negatives, values above 1 and NaN lie above
_ONE_BITS = int(np.array(1.0).view(np.uint64))


def _cinf_primitive(u):
    """E(u) = integral of exp(1 - 1/(1 - s)) over (0, u) for u in [0, 1]:
    the one primitive every cinf bump shares, by cubic Hermite lookup.

    The range check is one pass over the bit patterns; only an input that
    fails it (or holds -0.0) is checked again by value.  The Hermite sum
    reuses its temporaries, with the operations of the plain formula in the
    same order."""
    u = np.asarray(u, dtype=float)
    if u.size and u.view(np.uint64).max() > _ONE_BITS and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("the cinf primitive is tabulated on [0, 1] only")
    values, slopes = _cinf_primitive_table()
    th = u.reshape(-1) * _PRIMITIVE_CELLS
    k = np.minimum(th.astype(np.intp), _PRIMITIVE_CELLS - 1)
    th -= k
    om = 1.0 - th
    # (E_k (1 + 2 th) + S_k th) om^2 + (E_k+1 (3 - 2 th) - S_k+1 om) th^2
    left, lslope = values[k], slopes[k]
    k += 1
    right, rslope = values[k], slopes[k]
    factor = 2.0 * th
    factor += 1.0
    left *= factor
    lslope *= th
    left += lslope
    np.multiply(th, 2.0, out=factor)
    np.subtract(3.0, factor, out=factor)
    right *= factor
    rslope *= om
    right -= rslope
    left *= np.multiply(om, om, out=om)
    right *= np.multiply(th, th, out=th)
    left += right
    return left.reshape(u.shape)[()]


def _radial_primitive(bump: Bump, rho):
    """G(rho) = integral of s b(s) over (0, rho) for 0 <= rho <= radius, n = 3."""
    eps = bump.radius
    u = (np.asarray(rho, dtype=float) / eps) ** 2
    if bump.profile == CINF:
        return 0.5 * bump.amplitude * eps * eps * _cinf_primitive(u)
    a = _mollifier_norm(3, bump.mu)
    return bump.amplitude * (1.0 - (1.0 - u) ** (bump.mu + 1)) / (2.0 * (bump.mu + 1) * a * eps)


def radial_velocity(bump: Bump, d, t):
    """Solution with data (0, bump) at distance d from its center, n = 3.

    Evaluated as [G(hi) - G(lo)] / (2d) through the closed primitive G of
    rho b(rho), at the ends (lo, hi) of (|t-d|, t+d) clipped to the support,
    sharing nothing with the forward module.  An end clipped to the support
    radius eps takes the one value G(eps) (hi = eps wherever t + d >= eps,
    and lo = eps outside the light shell |t - d| < eps).  The field is odd in t:
    it is evaluated at |t| and negated where t has its sign bit set.
    Raises ValueError for a negative distance.
    """
    t = np.asarray(t, dtype=float)
    v = _radial_velocity(bump, _nonnegative(d), np.abs(t), _radial_primitive(bump, bump.radius))
    return _odd_in_time(v, t)


def _odd_in_time(v, t):
    """The field v, evaluated at |t|, extended oddly to the times t: negated
    in place where t has its sign bit set (-0.0 included)."""
    return np.negative(v, out=v, where=np.broadcast_to(np.signbit(t), v.shape))


def _radial_velocity(bump: Bump, d, t, rim):
    """:func:`radial_velocity` at d >= 0 and t >= 0, with G(eps) given as
    ``rim``, so that a caller that evaluates one bump many times looks it up
    once.  Entries with d < 1e-8 eps take the d -> 0 limit t b(t).

    The upper end takes G where it lies inside the support and ``rim``
    elsewhere.  The lower end is looked up whole: G at an end clipped to
    eps is ``rim`` bit for bit, and on a Huygens band nearly every lower end
    lies inside.  The work runs on flat arrays, so a 0-d input is a
    one-entry array and keeps the bits of the array loops."""
    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    shape = d.shape
    d, t = d.reshape(-1), t.reshape(-1)
    eps = bump.radius
    lo = np.minimum(np.abs(t - d), eps)
    hi = np.minimum(np.maximum(t + d, lo), eps)
    v = _on_support(hi < eps, rim, lambda rho: _radial_primitive(bump, rho), hi)
    v -= _radial_primitive(bump, lo)
    small = d < 1e-8 * eps
    if small.any():
        v /= 2.0 * np.where(small, 1.0, d)
        v[small] = t[small] * bump_radial(bump, t[small], 3)
    else:
        v /= 2.0 * d
    return v.reshape(shape)


def phantom_velocity(f: Phantom, pts, t, live=None):
    """Solution with data (0, f) at points (..., 3) and times t, n = 3: the
    sum over the bumps of :func:`radial_velocity`, by the closed primitive,
    taken at |t| and extended oddly in t as there.

    With ``live``, a boolean mask of the broadcast shape of the points and
    t, only the entries it selects are evaluated and returned as a flat
    array.  Each distance to a bump centre is still computed once per point
    and then gathered, so every entry has the bits of the full evaluation.
    """
    pts = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(pts.shape[:-1], t.shape)
    if live is not None:
        t = np.broadcast_to(t, shape)[live]
    t_abs = np.abs(t)
    out = np.zeros(shape if live is None else t.shape)
    for b in f.bumps:
        d = _distance(pts, b.center)
        if live is not None:
            d = np.broadcast_to(d, shape)[live]
        out = out + _radial_velocity(b, d, t_abs, _radial_primitive(b, b.radius))
    return _odd_in_time(out, t)


# ---------------------------------------------------------------------------
# integral identity (n = 3)


def _band_product(f: Phantom, g: Phantom, rims, pts, times, normals=None):
    """The pressure of f, or its derivative along unit ``normals``, times the
    velocity of g at the broadcast of ``pts`` (..., 3) against ``times``,
    with ``rims`` the values G(eps) of g's bumps.

    Both fields are taken on one selection, the Huygens band of f on which
    :func:`_pressure_on_band` evaluates the pressure; elsewhere the product
    is 0 whatever the velocity is.  The velocity is evaluated where the
    pressure factor is non-zero, from each point's distance to g, taken once
    and gathered on the band.  The products are formed there and scattered
    once into zeros, with the bits of ``pressure * velocity``.

    Returns the product and the number of velocity values evaluated.
    """
    band, t_band, factor = _pressure_on_band(f, pts, times, normals)
    live = factor != 0.0
    t_live = t_band[live]
    velocity = np.zeros(t_live.shape)
    for b, rim in zip(g.bumps, rims):
        d = np.broadcast_to(_distance(pts, b.center), band.shape)[band][live]
        velocity = velocity + _radial_velocity(b, d, t_live, rim)
    on_band = np.zeros(factor.shape)
    on_band[live] = factor[live] * velocity
    prod = np.zeros(band.shape)
    prod[band] = on_band
    return prod, t_live.size


def _support_box(f: Phantom, n: int):
    if not f.bumps:
        return None
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    for b in f.bumps:
        c = np.asarray(b.center, dtype=float)
        lo = np.minimum(lo, c - b.radius)
        hi = np.maximum(hi, c + b.radius)
    return lo, hi


def _product_integral(f: Phantom, g: Phantom, m: int) -> float:
    """Integral of f*g over the intersection of the support boxes."""
    n = f.dimension
    bf, bg = _support_box(f, n), _support_box(g, n)
    if bf is None or bg is None:
        return 0.0
    lo = np.maximum(bf[0], bg[0])
    hi = np.minimum(bf[1], bg[1])
    if np.any(lo >= hi):
        return 0.0
    rules = [gauss_legendre(m, a, b) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    wmesh = np.meshgrid(*[r.weights for r in rules], indexing="ij")
    w = np.ones(pts.shape[0])
    for wm in wmesh:
        w = w * wm.reshape(-1)
    return float(np.sum(w * f.eval(pts) * g.eval(pts)))


# volume nodes per weighted sum of the integral identity's Laplacian term
_VOLUME_CHUNK = 256


def check_integral_identity(
    f: Phantom,
    g: Phantom,
    domain: ConvexDomain,
    level: int = 0,
    *,
    phase: float = 0.0,
) -> IdentityReport:
    """Certify that the product integral of the two initial-data fields
    equals twice the boundary flux term minus the Laplacian volume term.

    Both wave fields are evaluated through the closed radial forms (the
    velocity from the primitive G of rho b(rho), independent of the forward
    module), and the boundary flux through the closed normal derivative of
    the pressure, so the residual measures the outer quadrature and the
    Laplacian's finite-difference error only.  The ``level`` parameter
    doubles every node count and halves every step.

    Both fields vanish off their Huygens band |t - d| < eps, so the work
    follows the pressure: :func:`_band_product` selects the band of f once,
    evaluates the pressure factor (its normal derivative on the boundary,
    itself in the volume) there and the velocity of g where that factor is
    non-zero, with G(eps) of each bump of g looked up once per check, and
    scatters the products once into zeros for the time-node, boundary-node
    and 7-point Laplacian sums.  The volume fields
    go in sub-blocks of the ``_VOLUME_CHUNK`` nodes whose weighted sums are
    accumulated, so the temporaries stay cache-sized; every value is
    elementwise, so the terms do not depend on the sub-block.  The report's
    ``velocity_evaluated`` counts the velocity values evaluated and
    ``velocity_pairs`` all (point, time) pairs of both terms.
    """
    t0 = time.perf_counter()
    n = domain.dimension
    if n != 3:
        raise ValueError(f"integral identity check supports dimension 3 only, got {n}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    for tag, ph in (("f", f), ("g", g)):
        if ph.bumps and support_margin(ph, domain) <= 0:
            raise ValueError(f"phantom {tag} support reaches the boundary of the domain")

    scale = 1 << level
    res_b = 16 * scale
    nt = 48 * scale
    m_rad, m_pol, m_azi = 20 * scale, 12 * scale, 24 * scale
    m_box = 24 * scale
    h_lap = 1e-2 * min(domain.semi_axes) / scale

    boundary = boundary_quadrature(domain, res_b, phase=phase)
    horizon = 0.0
    if f.bumps and g.bumps:
        horizon = min(huygens_horizon(f, boundary), huygens_horizon(g, boundary))
    params = {
        "level": level,
        "phase": phase,
        "boundary_res": res_b,
        "time_nodes": nt,
        "volume_rule": (m_rad, m_pol, m_azi),
        "box_quad": m_box,
        "h_lap": h_lap,
        "horizon": horizon,
    }

    lhs = _product_integral(f, g, m_box)
    if horizon <= 0.0:
        params.update(
            {"term_boundary": 0.0, "term_volume": 0.0, "velocity_evaluated": 0, "velocity_pairs": 0}
        )
        return IdentityReport("integral-identity", lhs, 0.0, params, time.perf_counter() - t0)

    trule = gauss_legendre(nt, 0.0, horizon)

    # boundary term: 2 * sum over nodes and times of v * du/dnu
    rims = [_radial_primitive(b, b.radius) for b in g.bumps]
    pts, nus, wb = boundary.points, boundary.normals, boundary.weights
    flux, evaluated = _band_product(f, g, rims, pts[:, None, :], trule.nodes, nus[:, None, :])
    term_boundary = 2.0 * float(wb @ flux @ trule.weights)
    pairs = flux.size

    # volume term: integral over the domain of the 7-point Laplacian of u*v
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
    # the fields of a chunk go in sub-blocks of about _BLOCK_VALUES values,
    # so their temporaries stay small and are reused on the heap
    sub = max(1, _BLOCK_VALUES // (stencil.shape[0] * nt))
    lap = np.empty((_VOLUME_CHUNK, nt))
    for lo_i in range(0, nodes.shape[0], _VOLUME_CHUNK):
        block = nodes[lo_i : lo_i + _VOLUME_CHUNK]
        for lo_s in range(0, block.shape[0], sub):
            sp = (block[lo_s : lo_s + sub, None, :] + stencil[None, :, :])[:, :, None, :]
            prod, count = _band_product(f, g, rims, sp, trule.nodes)
            rows = slice(lo_s, lo_s + sp.shape[0])
            lap[rows] = (np.sum(prod[:, 1:, :], axis=1) - 6.0 * prod[:, 0, :]) / h_lap**2
            evaluated += count
            pairs += prod.size
        term_volume += float(wvol[lo_i : lo_i + len(block)] @ lap[: len(block)] @ trule.weights)

    rhs = term_boundary - term_volume
    params.update(
        {
            "term_boundary": term_boundary,
            "term_volume": term_volume,
            "velocity_evaluated": evaluated,
            "velocity_pairs": pairs,
        }
    )
    return IdentityReport("integral-identity", lhs, rhs, params, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# coefficient recursion behind the iterated (1/t d/dt) reduction

# sphere-mean points per block of a ball profile: whole spheres of about
# 2^15 points (seven radii of the 4608-direction 3-D rule), so that the
# coordinate planes of each block stay below 1 MB; with the mean directions
# kept as planes, the lemma check on the 3-D ball still ran fastest with 2^15
# of the block sizes 2^12 to 2^17 (best CPU times 35 ms, against 40 ms at 2^14
# and 41 ms at 2^16)
_PROFILE_BLOCK_POINTS = 1 << 15


def _ball_profile(g, x, n: int, m_phi: int, m_mean: int):
    """A(t) = integral over the unit ball of g(x + t y)/sqrt(1 - |y|^2).

    In polar form this is the surface measure times the integral over
    (0, pi/2) of sin^{n-1}(phi) M g(x, t sin phi); the sine substitution
    removes the inverse-root endpoint.

    Each abscissa t is evaluated once and remembered, since the nested
    difference stencils of the lemma check revisit the same t.  The sphere
    means go in blocks of whole radii of about ``_PROFILE_BLOCK_POINTS``
    points, so the temporaries stay cache-sized; every mean is summed over
    its own sphere as in one call, so the values do not depend on the block.
    """
    sin_phi, wphi = _sine_ball_rule(m_phi, n)
    surf = _sphere_surface(n)
    block = max(1, _PROFILE_BLOCK_POINTS // _mean_directions(n, m_mean)[0].shape[0])
    memo: dict[float, float] = {}

    def profile(t: float) -> float:
        if t not in memo:
            radii = t * sin_phi
            means = np.concatenate(
                [sphere_means(g, x, radii[lo : lo + block], m_mean, n=n) for lo in range(0, m_phi, block)]
            )
            memo[t] = surf * float(np.sum(means * wphi))
        return memo[t]

    return profile


def check_lemma_coefficients(
    n: int,
    ks,
    g,
    x,
    t: float,
    *,
    level: int = 0,
) -> list[IdentityReport]:
    """For each order k in ``ks``, compare (1/t d/dt)^k of the singular ball
    integral, computed by nested differencing of t^{n-1} A(t), against the
    claimed coefficient expansion sum of c_{k,l} t^{n-(2k+1-l)} A^{(l)}(t).
    Returns one report per order, in the order of ``ks``.

    The two sides use deliberately different quadrature resolutions so a
    shared discretisation cannot mask a wrong coefficient.  All orders share
    one profile of each side, and each profile remembers the abscissae it
    has evaluated, so the right-hand profiles at the five stencil points
    around t are computed once for every order.  A report's runtime is the
    time spent on its own order.
    """
    ks = tuple(ks)
    if n not in (2, 3):
        raise ValueError(f"numeric lemma check supports n in (2, 3), got {n}")
    _in_range("lemma_k", ks)
    _in_range("lemma_t", t)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    x = np.asarray(x, dtype=float)
    scale = 1 << level
    m_phi, m_mean = 40 * scale, 48 * scale
    h1 = 1e-3 * t / scale
    h2 = 1e-2 * t / scale

    lhs_profile = _ball_profile(g, x, n, m_phi, m_mean)
    rhs_profile = _ball_profile(g, x, n, m_phi + 17, m_mean + 9)

    def ball_integral(tt: float) -> float:
        return tt ** (n - 1) * lhs_profile(tt)

    def once(tt: float) -> float:
        return stencil_derivative(ball_integral, tt, h1, 1) / tt

    reports = []
    for k in ks:
        t0 = time.perf_counter()
        if k == 1:
            lhs = once(t)
        else:
            lhs = stencil_derivative(once, t, h2, 1) / t

        rhs = 0.0
        for l in range(k + 1):
            if l == 0:
                dl = rhs_profile(t)
            else:
                dl = stencil_derivative(rhs_profile, t, h1, l)
            rhs += coeff_c(n, k, l) * t ** (n - (2 * k + 1 - l)) * dl

        params = {
            "n": n,
            "k": k,
            "t": t,
            "level": level,
            "phi_quad": m_phi,
            "mean_res": m_mean,
            "h_inner": h1,
            "h_outer": h2,
        }
        reports.append(
            IdentityReport(f"lemma-coefficients-n{n}k{k}", lhs, rhs, params, time.perf_counter() - t0)
        )
    return reports


def _apply_inv_t_dt(terms: dict) -> dict:
    """One application of (1/t d/dt) to a sum of t^p A^{(l)} monomials."""
    out: dict = {}
    for (p, l), c in terms.items():
        if p != 0:
            key = (p - 2, l)
            out[key] = out.get(key, Fraction(0)) + c * p
        key = (p - 1, l + 1)
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c != 0}


def check_lemma_symbolic(n: int, k: int) -> IdentityReport:
    """Exact-rational expansion of (1/t d/dt)^k (t^{n-1} A(t)) against the
    claimed coefficient table; A stays a formal symbol, so the comparison
    is coefficient-by-coefficient with no quadrature at all."""
    t0 = time.perf_counter()
    _in_range("symbolic_n", n)
    _in_range("symbolic_k", k)
    terms = {(n - 1, 0): Fraction(1)}
    for _ in range(k):
        terms = _apply_inv_t_dt(terms)
    claimed = {
        (n - (2 * k + 1 - l), l): Fraction(coeff_c(n, k, l)) for l in range(k + 1)
    }
    keys = set(terms) | set(claimed)
    max_diff = max(
        (abs(terms.get(key, Fraction(0)) - claimed.get(key, Fraction(0))) for key in keys),
        default=Fraction(0),
    )
    # generic-point evaluation so lhs/rhs are honest numbers, not checksums
    t_gen = 1.37
    a_gen = [0.9 / (1.0 + 0.61 * l) for l in range(k + 1)]
    lhs = sum(float(c) * t_gen**p * a_gen[l] for (p, l), c in terms.items())
    rhs = sum(float(c) * t_gen**p * a_gen[l] for (p, l), c in claimed.items())
    params = {"n": n, "k": k, "max_coeff_diff": float(max_diff), "terms": len(terms)}
    return IdentityReport(f"lemma-symbolic-n{n}k{k}", lhs, rhs, params, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# equivalence of the two even-dimensional representations


def check_even_equivalence(
    f: Phantom,
    points,
    times,
    level: int = 0,
) -> IdentityReport:
    """Worst disagreement between the sine-substitution and Chebyshev-angle
    arrangements of the two-dimensional solution, scaled by the phantom peak.

    Both arrangements integrate the same circle means, taken on each bump's
    arc by ``circle_means``; 192 radial nodes put the radial rules deep in
    their spectral range, and the ``level`` parameter doubles them.
    """
    t0 = time.perf_counter()
    if f.dimension != 2:
        raise ValueError(f"even-route equivalence applies to dimension 2, got {f.dimension}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    scale = 1 << level
    params = SolverParams(radial_quad=192 * scale)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if points.shape[0] != times.shape[0]:
        raise ValueError(
            f"need one time per sample point, got {points.shape[0]} points and {times.shape[0]} times"
        )
    peak = max(f.peak(), _REL_FLOOR)
    worst = (0.0, 0.0, 0.0)
    for x, t in zip(points, times):
        u_direct = wave_solution(f, x, float(t), params)
        u_alt = wave_solution_even_alt(f, x, float(t), params)
        diff = abs(u_direct - u_alt)
        if diff >= worst[0]:
            worst = (diff, u_direct, u_alt)
    report_params = {
        "samples": points.shape[0],
        "peak": peak,
        "radial_quad": params.radial_quad,
        "worst_direct": worst[1],
        "worst_alt": worst[2],
    }
    return IdentityReport(
        "even-equivalence",
        worst[1] / peak,
        worst[2] / peak,
        report_params,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# mollifier identities


def check_mollifier(n: int, mu: int, eps: float, level: int = 0) -> list[IdentityReport]:
    """Three independent certificates for the mollifier pair: unit mass of
    the kernel, agreement of the closed-form Radon profile with a direct
    plane integral, and unit mass of that profile."""
    if n < 2:
        raise ValueError(f"mollifier check needs n >= 2, got {n}")
    _in_range("mollifier_mu", mu)
    _in_range("mollifier_eps", eps)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    scale = 1 << level
    reports = []

    def radial_points(r):
        pts = np.zeros(r.shape + (n,))
        pts[..., 0] = r
        return pts

    t0 = time.perf_counter()
    rule = gauss_legendre(64 * scale, 0.0, eps)
    mass = _sphere_surface(n) * float(
        np.sum(rule.weights * rule.nodes ** (n - 1) * mollifier_eval(mu, eps, radial_points(rule.nodes)))
    )
    reports.append(
        IdentityReport(
            "mollifier-mass",
            mass,
            1.0,
            {"n": n, "mu": mu, "eps": eps, "quad": 64 * scale},
            time.perf_counter() - t0,
        )
    )

    # direct Radon: integrate the kernel over the hyperplane at offset s,
    # radially in the (n-1) in-plane variables with a sine substitution
    t0 = time.perf_counter()
    s_vals = np.linspace(-0.95 * eps, 0.95 * eps, 21)
    beta = gauss_legendre(48 * scale, 0.0, 0.5 * math.pi)
    surf_in_plane = _sphere_surface(n - 1) if n > 2 else 2.0
    worst = (0.0, 0.0, 0.0, 0.0)
    for s in s_vals:
        radius = math.sqrt(eps * eps - s * s)
        rho = radius * np.sin(beta.nodes)
        jac = radius * np.cos(beta.nodes) * beta.weights
        pts = np.zeros((rho.shape[0], n))
        pts[:, 0] = s
        pts[:, 1] = rho
        direct = surf_in_plane * float(np.sum(jac * rho ** (n - 2) * mollifier_eval(mu, eps, pts)))
        closed = float(mollifier_radon(mu, eps, s, n))
        diff = abs(direct - closed)
        if diff >= worst[0]:
            worst = (diff, direct, closed, s)
    reports.append(
        IdentityReport(
            "mollifier-radon",
            worst[1],
            worst[2],
            {"n": n, "mu": mu, "eps": eps, "quad": 48 * scale, "worst_s": worst[3]},
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    srule = gauss_legendre(64 * scale, -0.5 * math.pi, 0.5 * math.pi)
    s_nodes = eps * np.sin(srule.nodes)
    s_jac = eps * np.cos(srule.nodes) * srule.weights
    radon_mass = float(np.sum(s_jac * mollifier_radon(mu, eps, s_nodes, n)))
    reports.append(
        IdentityReport(
            "mollifier-radon-mass",
            radon_mass,
            1.0,
            {"n": n, "mu": mu, "eps": eps, "quad": 64 * scale},
            time.perf_counter() - t0,
        )
    )
    return reports
