"""Forward simulation: free-space wave solutions and boundary Neumann traces.

In three dimensions the solution with data (f, 0) is closed in form: for a
radial bump b at distance d from its centre it is
u = [(t+d) b(t+d) - (t-d) b(|t-d|)] / (2d), and bumps superpose.  In two
dimensions u = d/dt of an Abel-type radial integral of the spherical means
of f, desingularised by the sine substitution, with the time derivative a
fourth-order central difference on the even-in-time extension.  Neumann
traces are exact normal derivatives: in three dimensions the radial
derivative of the closed field, in two the same integral over the circle
means of <grad f, nu>, the normal derivative of the means of f.

Fields are evaluated only where they can be non-zero: the 3-D field on
each bump's Huygens band, with every value kept to the bit, and the 2-D
circle means by ``transforms.circle_means`` on each node's annulus of table
radii that meet a bump, each circle on its arc inside the bump.  The 2-D
table-to-trace operator is built on the table columns the means reach, from
the stencil terms that reach those columns only.

Trace files hold a text header and one text row per node, its coordinates
and the span of its trace values from the first to the last one that is
not +0.0, then each span as raw little-endian float64: every value reads
back to the bit, and the +0.0 runs around the spans take no bytes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .calculus import _locate, _sine_ball_rule, column_products, cubic_stencil
from .geometry import (
    BoundaryQuadrature,
    ConvexDomain,
    _distance,
    boundary_distance,
    contains,
    ellipsoid,
    superellipse,
)
from .transforms import (
    Bump,
    Phantom,
    bump_radial,
    bump_radial_deriv,
    circle_means,
)

__all__ = [
    "TimeGrid",
    "SolverParams",
    "TraceGrid",
    "ConfigurationError",
    "TraceFormatError",
    "InsufficientDataError",
    "radial_pressure",
    "phantom_pressure",
    "wave_solution",
    "wave_solution_even_alt",
    "simulate_traces",
    "support_margin",
    "huygens_horizon",
    "phantom_hash",
    "write_trace_file",
    "read_trace_file",
]

TRACE_FORMAT = "neumann-trace/5"
# the line between the text of a trace file and its raw payload
_PAYLOAD_MARKER = "# payload = <f8"

_D4_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_D4_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

# trace values in one block of 3-D trace nodes; 128 KiB temporaries are
# reused on the heap, where larger ones measurably raised the peak RSS of a
# whole run
_BLOCK_VALUES = 1 << 14


class ConfigurationError(ValueError):
    """Solver parameters inconsistent with the geometry or phantom."""


class TraceFormatError(ValueError):
    """Trace file does not follow the expected format."""


class InsufficientDataError(ValueError):
    """Trace data does not cover what the requested operation needs."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample times 0 = t_0 < ... < t_{nt-1} = t_max."""

    t_max: float
    nt: int

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.nt < 2:
            raise ValueError(f"need at least two time samples, got nt={self.nt}")

    @property
    def samples(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.nt)

    @property
    def dt(self) -> float:
        return self.t_max / (self.nt - 1)


@dataclass(frozen=True)
class SolverParams:
    """Discretisation knobs of the two-dimensional forward solver.

    The three-dimensional field is the closed radial form, with no time
    stencil, direction set or radial rule, so 3-D simulation ignores every
    knob; the traces of both are exact normal derivatives.  ``h_t`` defaults
    to 1e-3 times the characteristic time scale.  ``table_points`` is the
    size of the radial table of the circle means of <grad f, nu> laid over
    [0, t_max + 2 h_t] around each boundary node, each taken by
    :func:`~neutrace.transforms.circle_means` on the node's annulus, the
    table radii within a bump radius of a bump centre; the map from the
    tables to the trace rows is one linear operator per run, built in dense
    blocks of rows on the table columns where some node's table is
    non-zero, from the stencil terms that reach those columns only, each
    block applied to every table at once.  2-D simulation needs at least 4
    points, one cubic stencil; any value >= 0 is accepted, so 3-D trace
    files written with 0 still read back.
    """

    h_t: float | None = None
    radial_quad: int = 48
    table_points: int = 4096

    def __post_init__(self):
        if self.h_t is not None and not self.h_t > 0:
            raise ValueError(f"h_t must be positive, got {self.h_t}")
        if self.radial_quad < 4:
            raise ValueError(f"radial_quad must be >= 4, got {self.radial_quad}")
        if self.table_points < 0:
            raise ValueError(f"table_points must be >= 0, got {self.table_points}")

    def resolved(self, t_scale: float | None = None) -> "SolverParams":
        h_t = self.h_t
        if h_t is None:
            h_t = 1e-3 * (t_scale if t_scale is not None else 1.0)
        return replace(self, h_t=float(h_t))


@dataclass
class TraceGrid:
    """Neumann traces on a boundary node set over a time grid."""

    domain: ConvexDomain
    boundary: BoundaryQuadrature
    times: TimeGrid
    values: np.ndarray
    params: SolverParams
    phantom_hash: str = ""

    def __post_init__(self):
        expect = (len(self.boundary), self.times.nt)
        if self.values.shape != expect:
            raise ValueError(f"trace matrix shape {self.values.shape} != {expect}")

    @property
    def dimension(self) -> int:
        return self.domain.dimension


# ---------------------------------------------------------------------------
# closed radial wave field (n = 3)


def radial_pressure(bump: Bump, d, t):
    """Solution with data (bump, 0) at distance d from its center, n = 3:
    u = [(t+d) b(t+d) - (t-d) b(|t-d|)] / (2d), and b + t b' as d -> 0.
    Raises ValueError for a negative distance."""
    return _radial_pressure(bump, _nonnegative(d), t)


def _nonnegative(d) -> np.ndarray:
    """``d`` as a float array; raises ValueError if an entry is negative."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError(f"distances must be nonnegative, got {d[d < 0.0].flat[0]}")
    return d


def _radial_pressure(bump: Bump, d, t):
    """:func:`radial_pressure` without the sign check of d, for the band
    kernels, whose distances are norms.  Entries with d < 1e-8 radius take
    the d -> 0 limit; only when there are any is d replaced by 1 there."""
    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    small = d < 1e-8 * bump.radius
    near = small.any()
    ds = np.where(small, 1.0, d) if near else d
    plus = t + ds
    minus = t - ds
    u = np.asarray(
        (plus * bump_radial(bump, plus, 3) - minus * bump_radial(bump, np.abs(minus), 3)) / (2.0 * ds)
    )
    if near:
        ts = t[small]
        u[small] = bump_radial(bump, ts, 3) + ts * bump_radial_deriv(bump, ts, 3)
    return u


def _radial_slope(bump: Bump, d, t):
    """Derivative in d > 0 of :func:`radial_pressure`:
    [b(t+d) + (t+d) b'(t+d) + b(|t-d|) + |t-d| b'(|t-d|)] / (2d) - u / d,
    from the four profile values, each taken once."""
    plus, minus = t + d, np.abs(t - d)
    b_plus, b_minus = bump_radial(bump, plus, 3), bump_radial(bump, minus, 3)
    u = (plus * b_plus - (t - d) * b_minus) / (2.0 * d)
    slopes = plus * bump_radial_deriv(bump, plus, 3) + minus * bump_radial_deriv(bump, minus, 3)
    return (b_plus + b_minus + slopes) / (2.0 * d) - u / d


def phantom_pressure(f: Phantom, pts, t, normals=None):
    """Solution with data (f, 0) at points (..., 3) and times t, n = 3: the
    sum over the bumps of :func:`radial_pressure`, or with unit ``normals``
    (..., 3) its derivative along them, at points off the bump centres.

    In odd dimension the field of a bump of radius eps is zero unless
    ||t| - d| < eps (strong Huygens principle; the field is even in t), and
    ``radial_pressure`` returns an exact 0 there.  The field is evaluated on
    the Huygens band of :func:`_pressure_on_band` only, and the rest is left
    exact zeros.
    """
    band, _, values = _pressure_on_band(f, pts, t, normals)
    out = np.zeros(band.shape)
    out[band] = values
    return out


def _pressure_on_band(f: Phantom, pts, t, normals=None):
    """:func:`phantom_pressure` on the union of the bumps' Huygens bands.

    Returns the band, a boolean mask of the broadcast shape of the points
    and t, and the times and the field on it, as flat arrays in the band's
    order.  Each point's distance to a bump is taken once; a bump's band is
    the (point, time) pairs with ||t| - d| < eps (1 + 1e-6).  Every value is
    computed elementwise and the bumps' terms are added to zeros in bump
    order, so each has the bits of the full evaluation.
    """
    pts = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(pts.shape[:-1], t.shape)
    t_abs = np.abs(t)
    hit = []
    band = None
    for b in f.bumps:
        d = _distance(pts, b.center)
        gap = np.asarray(t_abs - d)
        own = np.abs(gap, out=gap) < b.radius * (1.0 + 1e-6)
        if own.any():
            hit.append((b, d, own))
            band = own if band is None else band | own
    if band is None:
        return np.zeros(shape, dtype=bool), np.zeros(0), np.zeros(0)
    t_band = np.broadcast_to(t, shape)[band]
    out = np.zeros(t_band.shape)
    for b, d, own in hit:
        sel = own[band] if len(hit) > 1 else slice(None)
        d_sel, t_sel = np.broadcast_to(d, shape)[band][sel], t_band[sel]
        if normals is None:
            out[sel] += _radial_pressure(b, d_sel, t_sel)
        else:
            cosine = np.broadcast_to(np.sum((pts - b.center) * normals, axis=-1) / d, shape)
            out[sel] += _radial_slope(b, d_sel, t_sel) * cosine[band][sel]
    return band, t_band, out


# ---------------------------------------------------------------------------
# pointwise wave solution


def _even_field(f, x, ts, params: SolverParams, rule) -> np.ndarray:
    """Two-dimensional u(x, t) at one point for an array of times: the
    fourth-order time difference of g(tau) = tau * sum_q w_q M f(x, |tau| r_q),
    odd in tau, for a radial rule ``rule`` = (r, w) on the unit radius."""
    nodes, weights = rule
    h = params.h_t
    taus = np.asarray(ts, dtype=float)[..., None] + h * _D4_OFFSETS
    means = circle_means(f, x, np.abs(taus)[..., None] * nodes)
    g = taus * np.sum(means * weights, axis=-1)
    return np.sum(g * _D4_WEIGHTS, axis=-1) / h


def wave_solution(f: Phantom, x, t: float, params: SolverParams | None = None) -> float:
    """Wave field at (x, t) for initial data (f, 0).

    In three dimensions this is the closed radial field.  In two the time
    derivative acts on the odd-in-time extension of the inner
    spherical-mean integrals, so small times need no special casing.
    """
    if t <= 0:
        raise ValueError(f"wave_solution needs t > 0, got t={t}; at t = 0 the field equals f")
    n = f.dimension
    if n not in (2, 3):
        raise ValueError(f"wave solvers support n in (2, 3), got n={n}")
    params = (params or SolverParams()).resolved(t_scale=max(1.0, t))
    x = np.asarray(x, dtype=float)
    if n == 3:
        return float(phantom_pressure(f, x, np.asarray(t, dtype=float)))
    return float(_even_field(f, x, t, params, _sine_ball_rule(params.radial_quad, 2)))


def wave_solution_even_alt(f: Phantom, x, t: float, params: SolverParams | None = None) -> float:
    """Two-dimensional solution through the alternative weight arrangement.

    Evaluates the same Abel-type radial integral as :func:`wave_solution`,
    but against the explicit inverse-root weight on Chebyshev angles
    (r = t cos(theta), midpoint nodes) instead of Legendre nodes under the
    sine substitution.  Both arrangements are spectrally accurate, so their
    agreement certifies the shared representation value.
    """
    if t <= 0:
        raise ValueError(f"wave_solution_even_alt needs t > 0, got t={t}")
    if f.dimension != 2:
        raise ValueError("the alternative arrangement exists in two dimensions only")
    params = (params or SolverParams()).resolved(t_scale=max(1.0, t))
    m = params.radial_quad
    cos_th = np.cos((np.arange(m) + 0.5) * (0.5 * np.pi / m))
    rule = (cos_th, np.full(m, 0.5 * np.pi / m) * cos_th)
    return float(_even_field(f, np.asarray(x, dtype=float), t, params, rule))


# ---------------------------------------------------------------------------
# Neumann traces


def support_margin(f: Phantom, domain: ConvexDomain) -> float:
    """Distance from the phantom support to the boundary (negative if a
    bump pokes outside or its center leaves the domain)."""
    if not f.bumps:
        return float(np.inf)
    centers = np.array([b.center for b in f.bumps], dtype=float)
    d = boundary_distance(domain, centers) - np.array([b.radius for b in f.bumps])
    outside = ~contains(domain, centers)
    return float(np.where(outside & (d > 0), -d, d).min())


def huygens_horizon(f: Phantom, boundary: BoundaryQuadrature) -> float:
    """Largest travel time from any boundary node into the phantom support."""
    horizon = 0.0
    for b in f.bumps:
        d = _distance(boundary.points, b.center)
        horizon = max(horizon, float(d.max()) + b.radius)
    return horizon


# ---------------------------------------------------------------------------
# trace simulation


def _trace_operator_blocks(times, params, r_grid, c_lo=0, c_hi=None):
    """Map from a radial table of the means to the trace rows, by blocks of
    32 rows, on the table columns ``c_lo <= k < c_hi`` (default: all of them).

    Row i evaluates, for a table T on ``r_grid`` around one centre,
        sum_m D4_m / h_t * tau_im * sum_q wphi_q * cubic(T)(|tau_im| sin phi_q),
    tau_im = t_i + s_m h_t: the time stencil of the Abel-type integral with
    the table interpolated at the sine-substituted radii.  The map depends
    only on the times, the steps and the radial rule, so one build serves
    every centre.  Yields ``(rows, w)`` with w[i, k - c_lo] the weight of
    table column k in row i, so that ``T[c_lo:c_hi] @ w.T`` are the rows.
    Query radii outside the table raise, whatever the window, instead of
    being clamped onto its end stencils.  Only the (i, m, q) terms whose
    stencil columns k - 1 .. k + 2 meet the window get their cardinal
    weights and scales; they are taken in row-major order, and their
    entries off the window are dropped before they are merged, so the rest
    reach each entry in the order of the full build, and the entries are
    the full build's on the window, to the bit.
    """
    sin_phi, wphi = _sine_ball_rule(params.radial_quad, 2)
    h = params.h_t
    npts = r_grid.shape[0]
    r0, dr = r_grid[0], r_grid[1] - r_grid[0]
    c_hi = npts if c_hi is None else c_hi
    width = c_hi - c_lo
    for lo in range(0, times.shape[0], 32):
        taus = times[lo : lo + 32, None] + h * _D4_OFFSETS  # (b, 4)
        radii = np.abs(taus)[..., None] * sin_phi  # (b, 4, q)
        if radii.min() < r_grid[0] or radii.max() > r_grid[-1]:
            raise ConfigurationError(
                f"query radii [{radii.min():.6g}, {radii.max():.6g}] leave the radial "
                f"table [{r_grid[0]:.6g}, {r_grid[-1]:.6g}]"
            )
        base = _locate(radii, r0, dr, npts, 1, npts - 3)[0]
        i, m, q = np.nonzero((base >= c_lo - 2) & (base <= c_hi))
        k, weights = cubic_stencil(radii[i, m, q], r0, dr, npts)
        scale = (_D4_WEIGHTS / h * taus)[i, m] * wphi[q]
        local = i * width - c_lo
        key, val = [], []
        for l, card in enumerate(weights):
            col = k + (l - 1)
            inside = (col >= c_lo) & (col < c_hi)
            key.append((local + col)[inside])
            val.append((scale * card)[inside])
        dense = np.bincount(
            np.concatenate(key), weights=np.concatenate(val), minlength=taus.shape[0] * width
        )
        # a block with no entry on the window comes back as integer zeros
        w = dense.reshape(taus.shape[0], width).astype(float, copy=False)
        yield slice(lo, lo + taus.shape[0]), w


def simulate_traces(
    f: Phantom,
    domain: ConvexDomain,
    boundary: BoundaryQuadrature,
    times: TimeGrid,
    params: SolverParams | None = None,
    threads: int = 1,
) -> TraceGrid:
    """Fill the node-by-time Neumann trace matrix.

    Each cell is the exact normal derivative at its node and time.  In three
    dimensions the rows are the derivative of the closed field on the
    Huygens bands, in blocks of about ``_BLOCK_VALUES`` values, so the
    temporaries stay small whatever the node count; every value is
    elementwise and the skipped terms are exact zeros, so the rows keep the
    bits of the full evaluation whatever the blocks.  In two, each node's
    row is its table of the circle means of <grad f, nu>, the normal
    derivatives of the means of f, mapped through the trace operator.  The
    tables come first, each taken on the node's annulus only: the table
    radii of the union over the bumps of d_b - R_b < r < d_b + R_b, one
    column wider on each side, outside which every mean is an exact zero.
    Each is kept as its span from the first to the last non-zero value.  The
    spans of the nodes whose table is not all zero are stacked into one
    matrix over the columns they reach, and each row block of the operator,
    built on those columns only, from the stencil terms that reach them (not
    at all when every table is zero), is applied to all of them by
    ``column_products``.  Rows of all-zero tables stay exact zeros; every
    trace has the bits of the tables on the whole grid and the operator
    from every term.  ``threads`` is accepted for callers that pass one
    run-wide thread count, and ignored.
    """
    n = domain.dimension
    if f.bumps and f.dimension != n:
        raise ConfigurationError(f"phantom dimension {f.dimension} != domain dimension {n}")
    params = (params or SolverParams()).resolved(t_scale=times.t_max)
    if n == 2 and params.table_points < 4:
        raise ConfigurationError(
            f"table_points must be >= 4 for two-dimensional traces (one cubic stencil), "
            f"got {params.table_points}"
        )
    if f.bumps:
        rho = support_margin(f, domain)
        if rho <= 0.0:
            raise ConfigurationError(f"phantom support margin {rho:.6g} must be positive")
    t_samples = times.samples
    values = np.zeros((len(boundary), times.nt))

    if f.bumps and n == 3:
        block = max(1, _BLOCK_VALUES // times.nt)
        for lo in range(0, len(boundary), block):
            rows = slice(lo, lo + block)
            pts, nus = boundary.points[rows, None, :], boundary.normals[rows, None, :]
            values[rows] = phantom_pressure(f, pts, t_samples, nus)
    elif f.bumps:
        r_max = (times.t_max + 2.0 * params.h_t) * (1.0 + 1e-9) + 1e-12
        r_grid = np.linspace(0.0, r_max, params.table_points)
        # each node's means are taken on the radii of its annulus, the union
        # of d_b - R_b < r < d_b + R_b over the bumps padded by one column on
        # each side, and kept as the span from the first to the last non-zero
        # value; the operator is built on the columns the spans reach
        gaps = [_distance(boundary.points, b.center) for b in f.bumps]
        near = np.min([d - b.radius for b, d in zip(f.bumps, gaps)], axis=0)
        far = np.max([d + b.radius for b, d in zip(f.bumps, gaps)], axis=0)
        starts = np.maximum(np.searchsorted(r_grid, near, side="right") - 1, 0).tolist()
        stops = (np.searchsorted(r_grid, far) + 1).tolist()
        spans = []
        for j, (y, nu) in enumerate(zip(boundary.points, boundary.normals)):
            lo = starts[j]
            table = circle_means(f, y, r_grid[lo : stops[j]], direction=nu)
            nz = np.flatnonzero(table)
            if nz.size:
                spans.append((j, lo + nz[0], table[nz[0] : nz[-1] + 1]))
        if spans:
            c_lo = min(first for _, first, _ in spans)
            c_hi = max(first + span.size for _, first, span in spans)
            live = [j for j, _, _ in spans]
            tables = np.zeros((len(spans), c_hi - c_lo))
            for row, (_, first, span) in zip(tables, spans):
                row[first - c_lo : first - c_lo + span.size] = span
            for rows, w in _trace_operator_blocks(t_samples, params, r_grid, c_lo, c_hi):
                values[live, rows] = column_products(tables, w)
    values[:, 0] = 0.0  # t = 0: the field equals f, which vanishes near the rim

    return TraceGrid(
        domain=domain,
        boundary=boundary,
        times=times,
        values=values,
        params=params,
        phantom_hash=phantom_hash(f),
    )


# ---------------------------------------------------------------------------
# trace file round trip


def phantom_hash(f: Phantom) -> str:
    parts = []
    for b in f.bumps:
        center = ",".join("%.17g" % c for c in b.center)
        parts.append(
            f"bump:{center};r={b.radius!r};a={b.amplitude!r};p={b.profile};mu={b.mu}"
        )
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    return f"sha256:{digest[:16]}"


def _fmt(x: float) -> str:
    # 17 significant digits read back to the same double: the round trip is bit-exact
    return "%.17g" % x


def write_trace_file(path, traces: TraceGrid, timestamp: str | None = None) -> None:
    """Write traces as ``neumann-trace/5``: ``# key = value`` header lines,
    a ``# columns:`` line, one ASCII CSV row per boundary node,
    ``y, nu, weight, first, end``, then the marker line ``# payload = <f8``
    and each row's span of trace values as raw little-endian float64, in
    node order.

    A row's span ``[first, end)`` runs from its first to its last value that
    is not +0.0; a row of +0.0 only has the empty span ``[nt, nt)``.  The
    floats of the header and the node columns go through :func:`_fmt`; each
    span is written from the buffer of the values, so every value, -0.0
    included, keeps its bits.
    """
    d = traces.domain
    n = d.dimension
    lines = [f"# {TRACE_FORMAT}"]
    if timestamp:
        lines.append(f"# generated = {timestamp}")
    lines.append(f"# dimension = {n}")
    lines.append(f"# domain.kind = {d.kind}")
    lines.append("# domain.center = " + ", ".join(_fmt(c) for c in d.center))
    lines.append("# domain.semi_axes = " + ", ".join(_fmt(a) for a in d.semi_axes))
    lines.append(f"# domain.exponent = {_fmt(d.exponent)}")
    lines.append(f"# boundary.resolution = {traces.boundary.resolution}")
    lines.append(f"# nodes = {len(traces.boundary)}")
    lines.append(f"# time.nt = {traces.times.nt}")
    lines.append(f"# time.t_max = {_fmt(traces.times.t_max)}")
    p = traces.params
    lines.append(f"# solver.h_t = {_fmt(p.h_t)}")
    lines.append(f"# solver.radial_quad = {p.radial_quad}")
    lines.append(f"# solver.table_points = {p.table_points}")
    lines.append(f"# phantom.hash = {traces.phantom_hash}")
    cols = [f"y_{i+1}" for i in range(n)] + [f"nu_{i+1}" for i in range(n)]
    lines.append("# columns: " + ",".join(cols + ["weight", "first", "end"]))
    b = traces.boundary
    values = np.ascontiguousarray(traces.values, dtype="<f8")
    nt = traces.times.nt
    signed = (values != 0.0) | np.signbit(values)
    first = np.where(signed.any(axis=1), signed.argmax(axis=1), nt).tolist()
    end = (nt - signed[:, ::-1].argmax(axis=1)).tolist()
    del signed
    nodes = zip(b.points.tolist(), b.normals.tolist(), b.weights.tolist())
    for (y, nu, w), a, z in zip(nodes, first, end):
        lines.append(",".join(map(_fmt, [*y, *nu, w])) + f",{a},{z}")
    lines.append(_PAYLOAD_MARKER)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for row, a, z in zip(values, first, end):
            fh.write(row[a:z].data)


def _header_field(header: dict[str, str], key: str, parse=str):
    """``parse`` of the header value of ``key``; a missing key or a value
    that does not parse raises :class:`TraceFormatError` naming the key."""
    if key not in header:
        raise TraceFormatError(f"trace header is missing '{key}'")
    try:
        return parse(header[key])
    except ValueError:
        value = header[key]
        raise TraceFormatError(f"trace header '{key}' has a malformed value {value!r}") from None


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def read_trace_file(path) -> TraceGrid:
    """Read a ``neumann-trace/5`` file written by :func:`write_trace_file`.

    The file is read once, in binary, and split at its first marker line;
    the text before it is the header and the node rows, read by one
    ``np.loadtxt``, and the bytes after it the spans, placed into zeros.  A
    payload shorter than the spans, or missing node rows, raise
    :class:`InsufficientDataError`; any other tag, a missing marker or
    header key, a header value or node row that does not parse, a span
    outside ``0 <= first <= end <= nt``, extra node rows or a longer payload
    raise :class:`TraceFormatError`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    tag = raw[:64].partition(b"\n")[0].strip()
    if tag != f"# {TRACE_FORMAT}".encode():
        raise TraceFormatError(
            f"unsupported trace format {tag.decode('ascii', 'replace')!r}, "
            f"expected '# {TRACE_FORMAT}'"
        )
    marker = raw.find(f"\n{_PAYLOAD_MARKER}\n".encode())
    if marker < 0:
        raise TraceFormatError(f"trace file has no '{_PAYLOAD_MARKER}' line")
    try:
        lines = raw[:marker].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace header or node rows are not ASCII text: {exc}") from None
    header: dict[str, str] = {}
    rows: list[str] = []
    for line in lines[1:]:
        line = line.strip()
        if line.startswith("#"):
            key, eq, val = line[1:].partition("=")
            if eq:
                header[key.strip()] = val.strip()
        elif line:
            rows.append(line)

    n = _header_field(header, "dimension", int)
    kind = _header_field(header, "domain.kind")
    center = _header_field(header, "domain.center", _floats)
    axes = _header_field(header, "domain.semi_axes", _floats)
    if kind == "superellipse":
        domain = superellipse(center, axes, _header_field(header, "domain.exponent", float))
    else:
        domain = ellipsoid(center, axes)
    nt = _header_field(header, "time.nt", int)
    times = TimeGrid(t_max=_header_field(header, "time.t_max", float), nt=nt)
    num_nodes = _header_field(header, "nodes", int)
    params = SolverParams(
        h_t=_header_field(header, "solver.h_t", float),
        radial_quad=_header_field(header, "solver.radial_quad", int),
        table_points=_header_field(header, "solver.table_points", int),
    )

    if len(rows) < num_nodes:
        raise InsufficientDataError(f"trace file holds {len(rows)} of {num_nodes} node rows")
    if len(rows) > num_nodes:
        raise TraceFormatError(f"trace file holds {len(rows)} node rows, header says {num_nodes}")
    width = 2 * n + 3
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise TraceFormatError(f"trace node rows malformed: {exc}") from None
    if data.shape[1] != width:
        raise TraceFormatError(f"trace node rows have {data.shape[1]} values, expected {width}")
    first, end = data[:, -2], data[:, -1]
    bad = ~(
        (0 <= first) & (first <= end) & (end <= nt)
        & (first == np.trunc(first)) & (end == np.trunc(end))
    )
    if bad.any():
        j = int(np.argmax(bad))
        raise TraceFormatError(
            f"node row {j} has the span [{_fmt(first[j])}, {_fmt(end[j])}), "
            f"not integers with 0 <= first <= end <= {nt}"
        )
    first, end = first.astype(np.intp), end.astype(np.intp)
    start = marker + len(_PAYLOAD_MARKER) + 2
    got, want = len(raw) - start, 8 * int(np.sum(end - first))
    if got < want:
        raise InsufficientDataError(
            f"trace payload holds {got // 8} of the {want // 8} time samples of the node spans"
        )
    if got > want:
        raise TraceFormatError(f"trace payload holds {got} bytes, the node spans need {want}")
    spans = np.frombuffer(raw, dtype="<f8", offset=start)
    try:
        values = np.zeros((num_nodes, nt))
    except MemoryError:
        # empty spans take no bytes, so only the header bounds nt
        raise TraceFormatError(
            f"trace header asks for {num_nodes} x {nt} trace values, more than can be allocated"
        ) from None
    at = 0
    for row, a, z in zip(values, first.tolist(), end.tolist()):
        row[a:z] = spans[at : at + z - a]
        at += z - a
    boundary = BoundaryQuadrature(
        data[:, :n].copy(),
        data[:, n : 2 * n].copy(),
        data[:, 2 * n].copy(),
        _header_field(header, "boundary.resolution", int),
    )
    return TraceGrid(
        domain=domain,
        boundary=boundary,
        times=times,
        values=values,
        params=params,
        phantom_hash=header.get("phantom.hash", ""),
    )
