"""Quadrature rules, dimensional constants, derivative stencils and
uniform-grid interpolation shared by the other modules.

Everything here is deliberately free of domain knowledge: the functions
operate on plain callables and numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadRule",
    "DimensionConstants",
    "gauss_legendre",
    "gamma_fn",
    "unit_ball_volume",
    "dimension_constants",
    "coeff_c",
    "stencil_derivative",
    "richardson",
    "cubic_stencil",
    "cubic_weights",
    "cubic_sum",
    "column_products",
    "check_on_table",
    "interp_cubic",
]


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre nodes and weights mapped onto an interval (a, b)."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * np.asarray(f(self.nodes), dtype=float)))


@lru_cache(maxsize=128)
def _leggauss(m: int):
    """Gauss-Legendre nodes and weights on (-1, 1), read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(m: int, a: float, b: float) -> QuadRule:
    """Gauss-Legendre rule with ``m`` nodes on (a, b).

    Exact for polynomials of degree <= 2m - 1; nodes are strictly
    interior, which the Abel-type integrands rely on.
    """
    if m < 1:
        raise ValueError(f"need at least one quadrature node, got m={m}")
    if not a < b:
        raise ValueError(f"empty or reversed interval ({a}, {b})")
    x, w = _leggauss(int(m))
    half = 0.5 * (b - a)
    return QuadRule(0.5 * (a + b) + half * x, half * w, (float(a), float(b)))


# OpenBLAS sums up to 256 columns in one pass, and cuts a longer sum at
# places that depend on its thread count, which moves the last bits
_PRODUCT_COLUMNS = 256


def column_products(a, w):
    """a @ w.T by products over ``_PRODUCT_COLUMNS`` columns, added in order."""
    out = np.zeros((a.shape[0], w.shape[0]))
    for c in range(0, a.shape[1], _PRODUCT_COLUMNS):
        cols = slice(c, c + _PRODUCT_COLUMNS)
        out += a[:, cols] @ w[:, cols].T
    return out


# OpenBLAS runs a product of at most 65536 * 4 multiply-adds (its default
# GEMM_MULTITHREAD_THRESHOLD) on one thread; on more threads, where it splits
# the output depends on the thread count, and the edge blocks round differently
_SERIAL_PRODUCT = 1 << 18


def serial_products(a, w):
    """a @ w.T for a short inner axis, by products of at most ``_SERIAL_PRODUCT``
    multiply-adds over blocks of rows of a and of w, so that each runs on one
    thread and the bits do not depend on the BLAS thread count."""
    out = np.empty((a.shape[0], w.shape[0]))
    rows = max(1, min(a.shape[0], 64))
    cols = max(1, _SERIAL_PRODUCT // (max(1, a.shape[1]) * rows))
    for i in range(0, a.shape[0], rows):
        for j in range(0, w.shape[0], cols):
            np.matmul(a[i : i + rows], w[j : j + cols].T, out=out[i : i + rows, j : j + cols])
    return out


def _sphere_rule(n: int, m: int, shift: float = 0.0, phase: float = 0.0):
    """Product rule on the unit circle (n = 2) or sphere (n = 3): unit
    directions and the polar weight of each.

    The circle takes the m angles 2 pi (k + shift) / m + phase, each of polar
    weight one; the sphere takes m Gauss-Legendre polar cosines times the 2m
    azimuths 2 pi (k + shift) / (2m) + phase, polar cosine by polar cosine.
    Either way there are (n - 1) m azimuths.
    """
    count = (n - 1) * m
    ang = 2.0 * np.pi * (np.arange(count) + shift) / count + phase
    if n == 2:
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.ones(m)
    rule = gauss_legendre(m, -1.0, 1.0)
    u, ph = np.meshgrid(rule.nodes, ang, indexing="ij")
    wu, _ = np.meshgrid(rule.weights, ang, indexing="ij")
    st = np.sqrt(1.0 - u * u)
    dirs = np.stack([st * np.cos(ph), st * np.sin(ph), u], axis=-1).reshape(-1, 3)
    return dirs, wu.reshape(-1)


def _sine_ball_rule(m: int, n: int):
    """Radius factors sin(phi) and weights w sin^{n-1}(phi) of the m-point
    Gauss-Legendre rule on (0, pi/2): the rule of the ball integral
    A(t) = integral of sin^{n-1}(phi) M(x, t sin phi) over (0, pi/2), whose
    sine substitution r = t sin(phi) removes the inverse-root endpoint."""
    rule = gauss_legendre(m, 0.0, 0.5 * np.pi)
    sin_phi = np.sin(rule.nodes)
    return sin_phi, rule.weights * sin_phi ** (n - 1)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments."""
    if x <= 0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    return math.gamma(x)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (n >= 0)."""
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class DimensionConstants:
    """Dimension-dependent normalisations used by the wave solvers.

    ``gamma_n`` is the parity-dependent product 2*4*...*(n-2)*n for even n
    and 1*3*...*(n-2) for odd n; ``omega_n`` is the unit-ball volume.
    """

    n: int
    gamma_n: float
    omega_n: float


def dimension_constants(n: int) -> DimensionConstants:
    if n < 2:
        raise ValueError(f"dimension_constants requires n >= 2, got {n}")
    if n % 2 == 0:
        g = n
        for k in range(2, n - 1, 2):
            g *= k
    else:
        g = 1
        for k in range(3, n - 1, 2):
            g *= k
    return DimensionConstants(n=n, gamma_n=float(g), omega_n=unit_ball_volume(n))


def coeff_c(n: int, k: int, l: int) -> int:
    """Coefficient c_{k,l} of the iterated (1/t d/dt) expansion.

    Defined by c_{0,0} = 1 and the recursion

        c_{k,0} = c_{k-1,0} * (n - (2(k-1) + 1)),
        c_{k,k} = 1,
        c_{k,l} = c_{k-1,l-1} + c_{k-1,l} * (n - (2(k-1) - (l-1))),

    so that (1/t d/dt)^k (t^{n-1} A(t)) = sum_l c_{k,l} t^{n-(2k+1-l)} A^(l)(t).
    Evaluated in exact integer arithmetic.
    """
    if n < 2:
        raise ValueError(f"coeff_c requires n >= 2, got n={n}")
    if k < 0 or l < 0 or l > k:
        raise ValueError(f"coeff_c requires 0 <= l <= k, got k={k}, l={l}")
    row = [1]
    for kk in range(1, k + 1):
        prev = row
        row = [0] * (kk + 1)
        row[0] = prev[0] * (n - (2 * (kk - 1) + 1))
        row[kk] = 1
        for ll in range(1, kk):
            row[ll] = prev[ll - 1] + prev[ll] * (n - (2 * (kk - 1) - (ll - 1)))
    return row[l]


# Fourth-order central stencils: offset -> coefficient (divide by h**order).
_STENCILS = {
    1: ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)),
    2: ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)),
    3: ((-3, 1 / 8), (-2, -1.0), (-1, 13 / 8), (1, -13 / 8), (2, 1.0), (3, -1 / 8)),
}

#: half-width in grid steps of the widest fourth-order stencil per order
STENCIL_REACH = {1: 2, 2: 2, 3: 3}


def stencil_derivative(f, t: float, h: float, order: int) -> float:
    """Fourth-order accurate central derivative of order 1, 2 or 3."""
    if h <= 0:
        raise ValueError(f"step must be positive, got h={h}")
    if order not in _STENCILS:
        raise ValueError(f"stencil_derivative supports orders 1..3, got {order}")
    acc = 0.0
    for off, c in _STENCILS[order]:
        acc += c * f(t + off * h)
    return acc / h**order


def stencil_apply(values: np.ndarray, h: float, order: int, stride: int = 1) -> np.ndarray:
    """Apply the fourth-order stencil along the last axis of a table.

    ``h`` is the step of the table, or one step per row of a 2-D table;
    each row's divisor is then its own scalar power, as for a table of one
    row, since numpy's array power can round differently.  Returns an
    array of the same shape; entries closer than
    ``stride * STENCIL_REACH[order]`` to either end are NaN.
    """
    if order not in _STENCILS:
        raise ValueError(f"stencil_apply supports orders 1..3, got {order}")
    values = np.asarray(values, dtype=float)
    reach = STENCIL_REACH[order] * stride
    out = np.full_like(values, np.nan)
    core = out[..., reach : values.shape[-1] - reach]
    core[...] = 0.0
    for off, c in _STENCILS[order]:
        lo = reach + off * stride
        hi = values.shape[-1] - reach + off * stride
        core += c * values[..., lo:hi]
    if np.ndim(h):
        core /= np.array([(step * stride) ** order for step in h])[:, None]
    else:
        core /= (h * stride) ** order
    return out


def richardson(d_h, d_2h):
    """Richardson combination of two fourth-order estimates at steps h and 2h."""
    return (16.0 * np.asarray(d_h) - np.asarray(d_2h)) / 15.0


def _locate(q: np.ndarray, x0: float, dx: float, npts: int, kmin: int, kmax: int):
    u = (np.asarray(q, dtype=float) - x0) / dx
    k = np.clip(np.floor(u).astype(int), kmin, kmax)
    return k, u - k


def cubic_stencil(q, x0: float, dx: float, npts: int):
    """Stencil of :func:`interp_cubic` on an ``npts``-point uniform table.

    Returns the base index k and the Lagrange weights of the table nodes
    k - 1, k, k + 1, k + 2, each shaped like ``q``.
    """
    k, th = _locate(q, x0, dx, npts, 1, npts - 3)
    return k, cubic_weights(th)


def cubic_weights(th):
    """Lagrange weights of the nodes -1, 0, 1, 2 of a unit-spaced four-point
    stencil at offset ``th`` from node 0: the cardinal cubics of the stencil."""
    wm1 = -th * (th - 1.0) * (th - 2.0) / 6.0
    w0 = (th - 1.0) * (th + 1.0) * (th - 2.0) / 2.0
    w1 = -th * (th + 1.0) * (th - 2.0) / 2.0
    w2 = th * (th * th - 1.0) / 6.0
    return wm1, w0, w1, w2


def check_on_table(q, x0: float, dx: float, npts: int) -> None:
    """Raise ValueError unless every query lies on the uniform table
    [x0, x0 + (npts - 1) dx]: cubic table reads never extrapolate."""
    q = np.asarray(q)
    top = x0 + (npts - 1) * dx
    if q.size and (q.min() < x0 or q.max() > top):
        raise ValueError(
            f"queries [{q.min():.6g}, {q.max():.6g}] leave the table [{x0:.6g}, {top:.6g}]"
        )


def interp_cubic(q, x0: float, dx: float, table: np.ndarray):
    """Four-point Lagrange interpolation of a uniform table at ``q``: a 1-D
    table at every query, row j of a 2-D table at q[..., j].

    A query in the first or last table cell is read off the nearest stencil
    that fits on the table; a query outside the table raises ValueError.
    """
    table = np.asarray(table, dtype=float)
    npts = table.shape[-1]
    check_on_table(q, x0, dx, npts)
    k, weights = cubic_stencil(q, x0, dx, npts)
    if table.ndim == 2:
        k = np.arange(table.shape[0]) * npts + k
        table = table.reshape(-1)
    return cubic_sum(table, k, weights)


def cubic_sum(table: np.ndarray, k, weights):
    """The four-point cubic of a flat table at base indices k with the
    stencil weights of :func:`cubic_stencil`: the one sum of every cubic
    table read."""
    wm1, w0, w1, w2 = weights
    return wm1 * table[k - 1] + w0 * table[k] + w1 * table[k + 1] + w2 * table[k + 2]
