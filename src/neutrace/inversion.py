"""Back-projection reconstruction of the initial pressure from Neumann traces.

Odd dimension (n = 3) evaluates a weighted boundary sum of the traces at
the travel time |x - y|; even dimension (n = 2) integrates each trace
over all later times with an Abel-type weight, by weights exact for the
interpolated trace.  Both admit an additive
correction term: an integral operator over the domain whose kernel is a
high offset-derivative of the (Hilbert-transformed, in even dimension)
section profile of the domain, evaluated on perpendicular-bisector
chords.  For ellipsoids that kernel vanishes and the plain back-projection
is already exact in the continuum limit; in odd dimension the correction
then builds no kernel tables at all, and only checks its chord window.
The closed form of that vanishing kernel lives with the reference routes
in ``tests/_oracles.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import (
    _sphere_rule,
    column_products,
    cubic_stencil,
    cubic_sum,
    cubic_weights,
    gauss_legendre,
    interp_cubic,
    serial_products,
)
from .forward import InsufficientDataError, TraceGrid, _fmt
from .geometry import (
    ELLIPSOID,
    ConvexDomain,
    _distance,
    _ray_points,
    grid_margin,
    support_halfwidth,
)
from .transforms import (
    Phantom,
    _build_profiles,
    _centre_offsets,
    _check_profile_table,
    _offset_window,
    _table_grids,
    _window_offsets,
)

__all__ = [
    "ImageGrid",
    "ReconstructionOptions",
    "backproject_odd",
    "backproject_even",
    "truncation_probe",
    "correction_K",
    "reconstruct",
    "write_image_csv",
    "write_image_pgm",
]


@dataclass
class ImageGrid:
    """Axis-aligned Cartesian evaluation grid with optional values.

    ``lo``/``hi`` bound the region box per axis and ``shape`` gives the
    per-axis sample counts (an axis with one sample sits at its ``lo``
    coordinate, which is how planar slices through a volume are written).
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...]
    values: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not len(self.lo) == len(self.hi) == len(self.shape):
            raise ValueError("lo, hi and shape must have equal length")
        for a, b, m in zip(self.lo, self.hi, self.shape):
            if m < 1:
                raise ValueError(f"grid shape entries must be >= 1, got {self.shape}")
            if m > 1 and not a < b:
                raise ValueError(f"degenerate axis range ({a}, {b}) with {m} samples")

    @property
    def dimension(self) -> int:
        return len(self.shape)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(a, b, m) if m > 1 else np.array([a])
            for a, b, m in zip(self.lo, self.hi, self.shape)
        ]

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def _corners(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat value indices and multilinear weights of the cell corners of
        (N, dimension) points, both shaped (corners, N); weight 0 outside.

        A single-sample axis has no cell and adds no corner: counting its
        raised corner would duplicate the whole contribution.  Corner j
        raises the index along the axes with cells of its set bits, and its
        weight is the product of its factors, frac or 1 - frac, in axis order.
        """
        count = flat.shape[0]
        inside = np.ones(count, dtype=bool)
        base = np.zeros(count, dtype=int)
        cells = []
        for d in range(self.dimension):
            a, b, m = self.lo[d], self.hi[d], self.shape[d]
            if m == 1:
                inside &= np.abs(flat[:, d] - a) < 1e-12
                continue
            step = (b - a) / (m - 1)
            u = (flat[:, d] - a) / step
            inside &= (u > -1e-12) & (u < m - 1 + 1e-12)
            k = np.clip(np.floor(u).astype(int), 0, m - 2)
            stride = math.prod(self.shape[d + 1 :])
            base += k * stride
            frac = np.clip(u - k, 0.0, 1.0)
            cells.append((frac, 1.0 - frac, stride))
        outside = ~inside
        corner_idx = np.empty((1 << len(cells), count), dtype=int)
        corner_w = np.ones((1 << len(cells), count))
        for j, (idx, w) in enumerate(zip(corner_idx, corner_w)):
            offset = 0
            for bit, (frac, rest, stride) in enumerate(cells):
                if j >> bit & 1:
                    w *= frac
                    offset += stride
                else:
                    w *= rest
            w[outside] = 0.0
            np.add(base, offset, out=idx)
        return corner_idx, corner_w

    def interp(self, pts) -> np.ndarray:
        """Multilinear interpolation of the stored values; zero outside."""
        if self.values is None:
            raise ValueError("grid holds no values yet")
        pts = np.asarray(pts, dtype=float)
        idx, weights = self._corners(pts.reshape(-1, self.dimension))
        vals = np.asarray(self.values).reshape(-1)
        out = np.zeros(idx.shape[1])
        for k, w in zip(idx, weights):
            out += w * vals[k]
        return out.reshape(pts.shape[:-1])


@dataclass(frozen=True)
class ReconstructionOptions:
    """Knobs of the inversion pipeline.

    ``correction`` is either ``"none"`` or ``"fixed_point"``, which solves
    b = f + K f for f (see :func:`reconstruct`); the ``k_*`` and ``kernel_*``
    fields set the quadrature and tables of K.
    """

    correction: str = "none"
    k_radial: int = 32
    k_angular: int = 64
    kernel_table: int = 512
    kernel_quad: int = 256
    kernel_margin: float | None = None

    def __post_init__(self):
        if self.correction not in ("none", "fixed_point"):
            raise ValueError(f"unknown correction mode {self.correction!r}")
        for name in ("k_radial", "k_angular", "kernel_quad"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _check_profile_table(self.kernel_table, self.kernel_margin)


#: Gauss nodes per near time cell of the Abel weights, in phi with t = d cosh(phi);
#: 4 agree with 8 to 4e-9 of the image peak on the benchmark ellipse's traces, an
#: error that sits in the near cells, by t = d
ABEL_NODES = 4
#: a time cell is far from a distance d when it lies at t >= ABEL_KAPPA d: there
#: (d/t)^2 <= 1/4, so the far-field series of 1/sqrt(t^2 - d^2) gains two bits a term
ABEL_KAPPA = 2.0


def _series_terms(kappa: float) -> int:
    """Terms K of 1/sqrt(1 - x) = sum_k a_k x^k, a_k = C(2k, k) / 4^k, whose
    tail is below one machine epsilon for x <= 1/kappa^2: the a_k fall, so the
    tail after K terms is at most a_K x^K / (1 - x), and the sum is at least 1."""
    x = kappa**-2
    k, a_k = 0, 1.0
    while a_k * x**k / (1.0 - x) > np.finfo(float).eps:
        k += 1
        a_k *= (2 * k - 1) / (2 * k)
    return k


#: terms of the far-field series, 25 for ABEL_KAPPA = 2
ABEL_TERMS = _series_terms(ABEL_KAPPA)
#: a_k = C(2k, k) / 4^k of the far-field series
_SERIES_COEFFS = np.cumprod(np.r_[1.0, 1.0 - 0.5 / np.arange(1, ABEL_TERMS)])
#: Gauss nodes per far cell of the series moments int L(s) s^(-2k-1) ds, s in
#: time steps, and the first cell they take: against 40-digit quadrature their
#: errors, weighted by a_k (s/2)^2k and summed over the terms, stay below
#: 1.6e-16 of 1/s on cells 2 to 128, but reach 7e-13 on cell 1, whose
#: integrands s^(-2k-1) vary by 2^(2k+1)
FAR_NODES = 10
FAR_FIRST_CELL = 2
#: step of the 2-D back-projection's distance table, in trace time steps
D_TABLE_STEP = 0.25
#: array elements built at a time by the Abel weights and the node sums,
#: which bounds the back-projection's working memory
BLOCK_ELEMENTS = 1 << 16


#: coefficients of 1, theta, theta^2, theta^3 in the cardinal cubics that
#: ``cubic_weights`` evaluates, one row per node -1, 0, 1, 2
_CARDINAL = (
    np.array([[0, -2, 3, -1], [6, -3, -6, 3], [0, 6, 3, -3], [0, -1, 0, 1]], dtype=float) / 6.0
)


def _node_distances(traces: TraceGrid, pts: np.ndarray) -> np.ndarray:
    """|x - y_j| for every point x (rows) and boundary node y_j (columns)."""
    return _distance(traces.boundary.points, pts[:, None, :])


def _stencils(cells, nt: int):
    """Base sample of the cubic that ``interp_cubic`` reads in each time cell:
    the first two and the last two cells share one stencil."""
    return np.clip(cells, 1, nt - 3)


def _far_moments(c0: int, c1: int, nt: int):
    """Moments of the far cells c0..c1 against the far-field series, with s the
    time in time steps and c0 >= FAR_FIRST_CELL: mu[k, c, lag] = int_c^(c+1)
    L_lag(s) (s / rho)^(-2k-1) ds / rho, by FAR_NODES Gauss nodes per cell.  The
    reference length rho = sqrt(c0 (c1 + 1)) bounds both (d / rho)^2k and
    (rho / s)^(2k+1) by ((c1 + 1) / c0)^(k+1), so neither factor of a term
    overflows or underflows.

    Returns rho, the column sums sums[k, col - k(c0) + 1] over all the cells,
    and the sums edge_sums[k, f - c0, j] over the cells from f on of the four
    columns k(f) - 1 + j, whose stencils may reach below cell f.
    """
    rule = gauss_legendre(FAR_NODES, 0.0, 1.0)
    cells = np.arange(c0, c1 + 1)
    k = _stencils(cells, nt)
    rho = math.sqrt(c0 * (c1 + 1.0))
    # (rho / s)^(2k+1) / rho at every node, term by term
    u = rho / (cells[:, None] + rule.nodes)
    power = np.empty((ABEL_TERMS,) + u.shape)
    power[0] = u / rho
    u *= u
    for term in range(1, ABEL_TERMS):
        np.multiply(power[term - 1], u, out=power[term])

    def moments(at, offset):
        card = np.stack(cubic_weights(offset + rule.nodes)) * rule.weights
        return power[:, at] @ card.T

    # a cell's cubic sits at offset c - k(c) from its stencil's base, which is 0
    # but where cells share a stencil (at the top)
    mu = moments(slice(None), 0)
    offset = cells - k
    for c in np.flatnonzero(offset):
        mu[:, c] = moments(c, offset[c])
    # column k(f) - 1 + j takes lag j from the cells from f on of f's own stencil
    # and lag < j from the whole stencils above it
    stencil, first, size = np.unique(k, return_index=True, return_counts=True)
    from_f = mu.copy()
    for a, n in zip(first[size > 1], size[size > 1]):
        from_f[:, a : a + n] = np.cumsum(mu[:, a : a + n][:, ::-1], axis=1)[:, ::-1]
    per_stencil = np.take(from_f, first, axis=1)
    # each lag moves a stencil's sums onto its column
    sums = np.zeros((ABEL_TERMS, len(stencil) + 3))
    for lag in range(4):
        sums[:, lag : lag + len(stencil)] += per_stencil[..., lag]
    above = np.concatenate([per_stencil, np.zeros((ABEL_TERMS, 3, 4))], axis=1)
    at = np.repeat(np.arange(len(stencil)), size)
    edge_sums = from_f
    for step in range(1, 4):
        higher = np.take(above, at + step, axis=1)
        edge_sums[..., step:] += higher[..., : 4 - step]
    return rho, sums, edge_sums


def _near_weights(w, col0: int, d, lo, hi, cells: np.ndarray, dt: float, nt: int):
    """Add to w (rows, cols from col0) the phi rule's weights of the time cells
    ``cells`` (consecutive), each clipped to lo[i] < t < hi[i] in row i, where
    hi >= lo: ABEL_NODES Gauss nodes in phi per cell, t = d cosh(phi).  A cell
    outside a row's range has zero span and adds nothing."""
    rule = gauss_legendre(ABEL_NODES, 0.0, 1.0)
    k = _stencils(cells, nt)
    ks, first = np.unique(k, return_index=True)
    edges = np.append(cells, cells[-1] + 1) * dt
    size = max(1, BLOCK_ELEMENTS // (ABEL_NODES * len(cells)))
    for start in range(0, len(d), size):
        rows = slice(start, start + size)
        dr = d[rows, None]
        t = np.clip(edges, lo[rows, None], hi[rows, None])
        # phi = acosh(t / d) at the cell edges, written to keep its accuracy near t = d
        phi = np.arcsinh(np.sqrt((t - dr) * (t + dr)) / dr)
        span = np.diff(phi, axis=1)
        nodes = np.cosh(phi[:, :-1, None] + span[..., None] * rule.nodes)
        nodes *= dr[..., None] / dt
        nodes -= k[:, None]
        # the cardinal cubics' integrals from those of 1, theta, theta^2, theta^3
        power = np.empty(span.shape + (4,))
        power[..., 0] = rule.weights.sum()
        power[..., 1] = nodes @ rule.weights
        square = nodes * nodes
        power[..., 2] = square @ rule.weights
        square *= nodes
        power[..., 3] = square @ rule.weights
        cell_w = power @ _CARDINAL.T
        cell_w *= span[..., None]
        # the first two and the last two cells share one stencil
        if len(ks) < len(k):
            cell_w = np.add.reduceat(cell_w, first, axis=1)
        cols = slice(ks[0] - 1 - col0, ks[-1] - col0)
        for lag in range(4):
            w[rows, cols.start + lag : cols.stop + lag] += cell_w[..., lag]


def _abel_weight_blocks(d: np.ndarray, dt: float, nt: int, t_lo: float, t_hi: float):
    """Abel weights of the interpolated traces, by blocks of rows.

    Yields ``(rows, cols, w)`` with w[i, c] = int L_c(t) / sqrt(t^2 - d_i^2) dt
    over max(d_i, t_lo) < t < t_hi, for d_i = d[rows] and L_c the cardinal
    function of trace sample c in the four-point cubic that ``interp_cubic``
    reads; samples outside ``cols`` have zero weight.  So w @ g is the exact
    Abel integral of the interpolant of g.

    Each row's span splits at its first cell edge at or above ABEL_KAPPA d_i
    (and at or above cell FAR_FIRST_CELL).  Below it, and in the cells that
    t_lo or t_hi cut, the substitution t = d cosh(phi) makes a cell's integral
    that of p(d cosh(phi)) over phi, p the cell's cubic: a smooth integrand,
    which ABEL_NODES Gauss nodes per cell integrate.  Above it the kernel is
    sum_k a_k d^2k t^(-2k-1) to one machine epsilon (ABEL_TERMS terms), so a
    row's far weights are its powers of d times the cells' moments, built once
    per call (:func:`_far_moments`): whole column sums wherever a column's
    stencil is far, by ``serial_products``, and partial sums on the up to four
    columns whose stencils reach the split.
    """
    last = min(nt - 2, math.ceil(t_hi / dt) - 1)
    # the last cell is cut when t_hi falls inside it; cells up to ``whole`` are not
    cut = last if (last + 1) * dt > t_hi else None
    whole = last - (cut is not None)
    lo = np.maximum(d, t_lo)
    first = np.minimum(np.floor(lo / dt).astype(int), last)
    split = np.maximum(np.ceil(np.maximum(ABEL_KAPPA * d, lo) / dt), FAR_FIRST_CELL)
    split = np.minimum(split, whole + 1).astype(int)
    # a row at or past t_hi (the top of a distance table may be) gets no weight
    live = lo < t_hi
    far = live & (split <= whole)
    count = np.where(live, split - first, 0)
    if far.any():
        c0 = int(split[far].min())
        rho, sums, edge_sums = _far_moments(c0, whole, nt)
        sums_col0 = int(_stencils(c0, nt)) - 1
    # each block builds a dense w and the nodes of its near cells
    yield_rows = max(1, BLOCK_ELEMENTS // (ABEL_NODES * nt))
    cost = nt + ABEL_NODES * (count + 1)
    block = (np.cumsum(cost) - cost) // BLOCK_ELEMENTS
    starts = np.flatnonzero(np.diff(block, prepend=-1))
    for start, stop in zip(starts, np.append(starts[1:], len(d))):
        rows = slice(start, stop)
        col0 = int(_stencils(first[rows].min(), nt)) - 1
        w = np.zeros((stop - start, int(_stencils(last, nt)) + 3 - col0))
        at = far[rows]
        if at.any():
            f = np.where(at, split[rows], whole)
            # a_k (d / rho)^2k, and no series for the rows without far cells
            x = np.where(at, (d[rows] / (dt * rho)) ** 2, 0.0)
            powers = x[:, None] ** np.arange(ABEL_TERMS) * _SERIES_COEFFS
            powers[~at] = 0.0
            kf = _stencils(f, nt)
            # columns whose whole stencil is far for every far row of the block
            full = int(kf[at].min()) + 3
            series = serial_products(powers, sums[:, full - sums_col0 :].T)
            w[:, full - col0 : full - col0 + series.shape[1]] = series
            # a row whose split lies higher takes no full sums below k(f) + 3
            band = np.arange(full, int(kf.max()) + 3)
            w[:, band - col0] *= band >= kf[:, None] + 3
            edge = np.einsum("ik,kij->ij", powers, edge_sums[:, f - c0])
            cols = kf[:, None] - 1 - col0 + np.arange(4)
            w[np.arange(len(f))[:, None], cols] += edge
        # near cells up to each row's split, then the cell that t_hi cuts
        lo_b, top = lo[rows], np.maximum(lo[rows], t_hi)
        band = np.arange(first[rows].min(), split[rows].max())
        if len(band):
            near_top = np.maximum(lo_b, np.minimum(t_hi, split[rows] * dt))
            _near_weights(w, col0, d[rows], lo_b, near_top, band, dt, nt)
        if cut is not None:
            _near_weights(w, col0, d[rows], lo_b, top, np.array([cut]), dt, nt)
        # yielded by BLOCK_ELEMENTS // (ABEL_NODES nt) rows, the blocks of the filter
        # products whose bits are tested not to depend on the BLAS thread count
        for sub in range(start, stop, yield_rows):
            part = slice(sub, min(sub + yield_rows, stop))
            lead = int(_stencils(first[part].min(), nt)) - 1
            rows_w = w[sub - start : part.stop - start, lead - col0 :]
            yield part, slice(lead, col0 + w.shape[1]), rows_w


def _even_at(traces: TraceGrid, x, t_lo: float, t_hi: float, reach: float) -> float:
    """sum_j w_j int trace_j(t) / sqrt(t^2 - d_j^2) dt / pi over
    max(d_j, t_lo) < t < t_hi at one point, with the Abel weights built at its
    own distances d_j = |x - y_j|, which must stay below ``reach``."""
    d = _node_distances(traces, np.asarray(x, dtype=float)[None])[0]
    _check_reach(d, reach, "reaches the upper time")
    times = traces.times
    h = np.empty(len(d))
    for rows, cols, w in _abel_weight_blocks(d, times.dt, times.nt, t_lo, t_hi):
        h[rows] = np.sum(traces.values[rows, cols] * w, axis=-1)
    return float(np.sum(traces.boundary.weights * h) / math.pi)


def _check_reach(d: np.ndarray, t_top: float, exceeds: str) -> None:
    if np.any(d >= t_top):
        far = np.unravel_index(int(np.argmax(d)), d.shape)[-1]
        raise InsufficientDataError(
            f"travel time {d.max():.6g} to node {far} {exceeds} {t_top:.6g}"
        )


def _backproject(traces: TraceGrid, pts: np.ndarray) -> np.ndarray:
    """Plain back-projection at (N, n) points, by chunks of points that keep
    every array near BLOCK_ELEMENTS elements, each chunk summed over the
    nodes along a contiguous last axis.

    Three dimensions read each trace at t = |x - y| and divide by it.  Two
    dimensions filter every trace once with the Abel weights on a uniform
    table of distances d_m (step D_TABLE_STEP dt, spanning the points'
    distances), H = traces @ W^T by ``column_products`` on one BLAS thread,
    so that the image bits do not depend on the thread count, and read H_j
    at |x - y_j| by the cubic.
    """
    nodes, n = traces.boundary.points.shape
    size = max(1, BLOCK_ELEMENTS // (nodes * n))
    starts = range(0, len(pts), size)
    dt, reach = traces.times.dt, traces.times.t_max
    if traces.dimension == 3:
        exceeds = "exceeds t_max ="
        table, step, x0, divisor = traces.values, dt, 0.0, 2.0 * math.pi
    else:
        exceeds = "reaches the upper time"
        chunks = (_node_distances(traces, pts[i : i + size]) for i in starts)
        ranges = np.array([(d.min(), d.max()) for d in chunks])
        step, x0 = D_TABLE_STEP * dt, float(ranges[:, 0].min())
        dists = x0 + step * np.arange(max(4, int((ranges[:, 1].max() - x0) / step) + 2))
        table = np.empty((nodes, len(dists)))
        for rows, cols, w in _abel_weight_blocks(dists, dt, traces.times.nt, 0.0, reach):
            table[:, rows] = column_products(traces.values[:, cols], w, serial=True)
        divisor = math.pi
    out = np.empty(len(pts))
    for i in starts:
        d = _node_distances(traces, pts[i : i + size])
        _check_reach(d, reach, exceeds)
        terms = traces.boundary.weights * interp_cubic(d, x0, step, table)
        if traces.dimension == 3:
            terms = terms / d
        out[i : i + size] = np.sum(terms, axis=-1) / divisor
    return out


def backproject_odd(traces: TraceGrid, x) -> float:
    """Three-dimensional back-projection: boundary average of the traces
    divided by travel time, read off at t = |x - y|."""
    if traces.dimension != 3:
        raise ValueError("backproject_odd applies to three-dimensional traces")
    return float(_backproject(traces, np.asarray(x, dtype=float)[None])[0])


def backproject_even(traces: TraceGrid, x) -> float:
    """Two-dimensional back-projection at one point.

    Sums over the nodes the Abel integral of trace(y, t) / sqrt(t^2 - d^2)
    over t in (d, t_max), d = |x - y|, with weights exact for the interpolated
    trace built at the point's own distances.
    """
    if traces.dimension != 2:
        raise ValueError("backproject_even applies to two-dimensional traces")
    t_max = traces.times.t_max
    return _even_at(traces, x, 0.0, t_max, t_max)


def truncation_probe(traces: TraceGrid, x, opts: ReconstructionOptions | None = None) -> float:
    """Change in the even-dimensional back-projection at one point when
    the time integral is cut at half the recorded span: the back-projection
    of the trace tail past t_max/2 alone.

    A small value indicates the tail no longer contributes, i.e. the
    recorded span was long enough.  No option acts on it.
    """
    if traces.dimension != 2:
        raise ValueError("truncation_probe applies to two-dimensional traces")
    half = 0.5 * traces.times.t_max
    return abs(_even_at(traces, x, half, traces.times.t_max, half))


# ---------------------------------------------------------------------------
# correction operator


def _correction_constant(n: int) -> float:
    return (-1.0) ** ((n - 2) // 2) / (2.0 ** (n + 1) * math.pi ** (n - 1))


def _as_field(f):
    """Point evaluator of a Phantom or an ImageGrid, the two fields whose
    support radius is known."""
    if isinstance(f, Phantom):
        return f.eval
    if isinstance(f, ImageGrid):
        return f.interp
    raise TypeError(f"cannot evaluate {type(f).__name__} as a field")


def _angular_set(n: int, m: int):
    """Directions and weights covering the unit sphere (total measure).

    On the circle the m directions lie at the angles 2 pi (k + 1/2) / m, each
    of weight 2 pi / m, and each is built as an exact sign flip of the
    first-quadrant direction at its angle reduced into [0, pi/2]: mirror
    images about an axis are exact mirror images, and a direction on an
    axis is exactly (+-1, 0) or (0, +-1).  A reflection
    x_i - c_i -> -(x_i - c_i) maps the chord at (theta, s') to the chord at
    (theta with theta_i negated, s'), s' the offset from <c, theta>, so on a
    centred, axis-aligned domain mirror directions share one kernel profile
    (:func:`_correction_quadrature`).  The sphere keeps the product rule.
    """
    if n != 2:
        dirs, wu = _sphere_rule(n, m, shift=0.5)
        return dirs, wu * (2.0 * math.pi / ((n - 1) * m))
    # angles in units of pi / 2m, reduced into the first quadrant [0, m]
    u = 4 * np.arange(m) + 2
    sin_sign = np.where(u > 2 * m, -1.0, 1.0)
    u = np.where(u > 2 * m, 4 * m - u, u)
    cos_sign = np.where(u > m, -1.0, 1.0)
    u = np.where(u > m, 2 * m - u, u)
    ang = 2.0 * np.pi * (0.25 * u) / m
    on_axis = u == m
    cos = np.where(on_axis, 0.0, np.cos(ang))
    sin = np.where(on_axis, 1.0, np.sin(ang))
    return np.stack([cos_sign * cos, sin_sign * sin], axis=-1), np.full(m, 2.0 * math.pi / m)


def _kernel_vanishes(domain: ConvexDomain) -> bool:
    """The correction kernel of an odd-dimensional ellipsoid is zero at every
    offset: its section profile is quadratic, and the kernel is a third
    offset derivative."""
    return domain.kind == ELLIPSOID and domain.dimension % 2 == 1


def _check_correction_grid(domain: ConvexDomain, shape) -> None:
    """Raise ValueError for a grid with an axis of one sample on a domain
    whose correction kernel does not vanish.  On such a grid K_h sees the
    field only along the quadrature directions that lie in the grid's span to
    within the corner tolerance, so its value is set by the direction count,
    not by the field.  Where the kernel vanishes (a slice through an
    odd-dimensional ellipsoid) K_h is zero on any grid."""
    if min(shape) == 1 and not _kernel_vanishes(domain):
        raise ValueError(
            f"the correction is undefined on a grid with a one-sample axis, shape "
            f"{tuple(shape)}, where its kernel does not vanish ({domain.dimension}-D "
            f"{domain.kind})"
        )


def _support_radii(f, pts) -> np.ndarray:
    """Radius of the smallest ball around each point (N, n) that holds the
    support of a Phantom, or the box of an ImageGrid's sample axes (the
    ends of each axis, as :func:`~neutrace.geometry.grid_corners` takes them);
    0 where a Phantom has no bumps."""
    if isinstance(f, Phantom):
        r = np.zeros(len(pts))
        for b in f.bumps:
            r = np.maximum(r, _distance(pts, b.center) + b.radius)
        return r
    corners = np.array(list(itertools.product(*[(ax[0], ax[-1]) for ax in f.axes()])))
    return _distance(pts[:, None, :], corners).max(axis=1)


def _check_zero_kernel_window(domain, evaluator, pts, radii, dirs, margin):
    """Raise where a loop over every direction would, on a domain whose
    kernel is zero: at the first point and direction whose offsets with a
    non-zero field leave the safe window of :func:`_offset_window`.  The
    offsets, halfwidths and centre projections are formed as that loop forms
    them (both batched, with the bits of one call per direction); one
    batched field evaluation per point flags the directions that reach the
    window edge, and only those are checked one at a time."""
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    w = support_halfwidth(domain, dirs)
    centre = _centre_offsets(domain, dirs)
    for x, r in zip(pts, radii):
        live = np.asarray(evaluator(_ray_points(x, r[:, None], dirs)), dtype=float) != 0.0
        s_vals = np.sum(x * dirs, axis=-1) + 0.5 * r[:, None]
        edge = live & (np.abs(s_vals - centre) >= w - margin)
        for j in np.flatnonzero(np.any(edge, axis=0)):
            _offset_window(domain, dirs[j], s_vals[live[:, j], j], margin, domain.dimension)


def _correction_quadrature(f, evaluator, pts, domain, opts, margin):
    """The quadrature of K around each point (N, n): the support radii of
    the field f, the Gauss radial rule on (0, 1), the angular set and the
    kernel profiles of its directions.

    The profiles are None where K is zero at every point: when no point has
    a non-zero radius, or when the kernel vanishes, after the chord windows
    are checked at the samples where ``evaluator`` is non-zero.

    Every domain is symmetric under the reflections x_i - c_i -> -(x_i - c_i),
    which map the chord at (theta, s') to the chord at (theta with theta_i
    negated, s'), s' the offset from <c, theta>.  So a section profile, its
    Hilbert transform and their derivatives, as functions of s', depend on
    |theta| only.  The tables are built once per orbit of these reflections,
    on its direction |theta| (in order of first appearance), and each
    direction's profile shares them while keeping its own theta, centre
    <c, theta> and offset grid."""
    n = domain.dimension
    r_max = _support_radii(f, pts)
    rad = gauss_legendre(opts.k_radial, 0.0, 1.0)
    dirs, wdir = _angular_set(n, opts.k_angular)
    live = r_max != 0.0
    if not live.any():
        return r_max, rad, dirs, wdir, None
    if _kernel_vanishes(domain):
        radii = r_max[live, None] * rad.nodes
        _check_zero_kernel_window(domain, evaluator, pts[live], radii, dirs, margin)
        return r_max, rad, dirs, wdir, None
    orbits = {}
    orbit = [orbits.setdefault(key, len(orbits)) for key in map(tuple, np.abs(dirs).tolist())]
    tables = _build_profiles(
        domain, list(orbits), n, margin, opts.kernel_table, opts.kernel_quad, n % 2 == 0
    )
    centres = _centre_offsets(domain, dirs)
    widths = np.array([tables[k].halfwidth for k in orbit])
    _, grids = _table_grids(centres, widths, margin, opts.kernel_table)
    profiles = [
        replace(tables[k], theta=tuple(th.tolist()), s_center=c, s_grid=grid)
        for k, th, c, grid in zip(orbit, dirs, centres.tolist(), grids)
    ]
    return r_max, rad, dirs, wdir, profiles


def correction_K(
    f_in,
    x,
    domain: ConvexDomain,
    opts: ReconstructionOptions | None = None,
    margin: float | None = None,
):
    """Additive correction operator applied to a candidate field at one
    point x of shape (n,), as a float, or at each point of a batch (N, n),
    as an array.

    The plain back-projection of the traces of f is b = f + K f.  Polar
    coordinates around x cancel the 1/|x - y|^{n-1} factor exactly: the
    integral becomes radial integrals of f(x + r w) times the kernel at the
    bisector chord (w, <x, w> + r/2), summed over directions.  The kernel
    profiles of the directions are built once per call, for all points, and
    once per mirror orbit of the directions (:func:`_correction_quadrature`).
    """
    opts = opts or ReconstructionOptions()
    x = np.asarray(x, dtype=float)
    n = domain.dimension
    evaluator = _as_field(f_in)
    if margin is None:
        margin = opts.kernel_margin
    if margin is None:
        raise ValueError("correction_K needs a positive chord safety margin")
    if margin <= 0:
        raise ValueError(f"chord safety margin must be positive, got {margin}")
    pts = np.atleast_2d(x)
    out = np.zeros(len(pts))
    r_max, rad, dirs, wdir, profiles = _correction_quadrature(
        f_in, evaluator, pts, domain, opts, margin
    )
    if profiles is None:
        return float(out[0]) if x.ndim == 1 else out
    even = n % 2 == 0
    # a point with support radius 0 sees no field, so it reads no kernel
    for i in np.flatnonzero(r_max):
        r = r_max[i] * rad.nodes
        total = 0.0
        for omega, w_omega, profile in zip(dirs, wdir, profiles):
            fvals = np.asarray(evaluator(pts[i] + r[:, None] * omega), dtype=float)
            # beyond the support the chord midpoint may leave the safe window;
            # the integrand is zero there, so only query the kernel where f is not
            mask = fvals != 0.0
            if not np.any(mask):
                continue
            s_vals = float(np.sum(pts[i] * omega)) + 0.5 * r[mask]
            kvals = profile.eval(s_vals, order=n, hilbert=even)
            total += w_omega * r_max[i] * float(np.sum(rad.weights[mask] * fvals[mask] * kvals))
        out[i] = _correction_constant(n) * total
    return float(out[0]) if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# full reconstruction


def _grid_margin(domain: ConvexDomain, grid: ImageGrid) -> float:
    return grid_margin(domain, grid.axes())[0]


def _correction_matrix(grid: ImageGrid, domain: ConvexDomain, opts) -> np.ndarray:
    """K on the grid's multilinear fields: row i is the quadrature of
    :func:`correction_K` at grid point i, each sample f(x_i + r w) spread
    over its corner weights, so K @ v is correction_K(ImageGrid(v), x_i).

    The directions are taken in blocks of about BLOCK_ELEMENTS samples: a
    block's samples share one corner call and one cubic read of the stacked
    kernel columns.  Each direction's offsets are checked against its own
    window, as :meth:`KernelProfile.eval` checks them, and each direction's
    entries are added by its own ``bincount``, in direction order."""
    n = domain.dimension
    pts = grid.points()
    size = len(pts)
    matrix = np.zeros(size * size)
    # the window check of a zero kernel reads the samples inside the grid box
    box = ImageGrid(grid.lo, grid.hi, grid.shape, np.ones(size))
    r_max, rad, dirs, wdir, profiles = _correction_quadrature(
        grid, box.interp, pts, domain, opts, opts.kernel_margin
    )
    if profiles is None:
        return matrix.reshape(size, size)
    r = r_max[:, None] * rad.nodes
    even = n % 2 == 0
    table = np.stack([p._column(n, even) for p in profiles])
    starts = np.array([p.s_grid[0] for p in profiles])
    steps = np.array([p.s_grid[1] - p.s_grid[0] for p in profiles])
    block = max(1, BLOCK_ELEMENTS // r.size)
    for first in range(0, len(dirs), block):
        part = slice(first, first + block)
        omega = dirs[part]
        # samples direction by direction, each (point, radius) in row-major order
        samples = _ray_points(pts[:, None, :], r, omega[:, None, None, :])
        idx, weights = grid._corners(samples.reshape(-1, n))
        # a grid field vanishes outside the box, so only query the kernel inside
        live = np.flatnonzero(np.any(weights != 0.0, axis=0))
        # the same offset formula as correction_K, so both read equal kernel values
        s_vals = (np.sum(pts * omega[:, None, :], axis=-1)[..., None] + 0.5 * r).reshape(-1)[live]
        ends = np.searchsorted(live, r.size * np.arange(len(omega) + 1))
        for profile, lo, hi in zip(profiles[part], ends[:-1], ends[1:]):
            _window_offsets(s_vals[lo:hi], profile.s_center, profile.halfwidth, profile.margin)
        rows = live // r.size
        k, cubic = cubic_stencil(s_vals, starts[part][rows], steps[part][rows], table.shape[1])
        kvals = cubic_sum(table[part].reshape(-1), rows * table.shape[1] + k, cubic)
        coef = (_correction_constant(n) * wdir[part])[:, None, None] * r_max[:, None] * rad.weights
        cells = (live % r.size // r.shape[1]) * size + idx[:, live]
        terms = weights[:, live] * (coef.reshape(-1)[live] * kvals)
        for lo, hi in zip(ends[:-1], ends[1:]):
            matrix += np.bincount(
                cells[:, lo:hi].reshape(-1), terms[:, lo:hi].reshape(-1), minlength=size * size
            )
    return matrix.reshape(size, size)


def reconstruct(
    traces: TraceGrid,
    grid: ImageGrid,
    opts: ReconstructionOptions | None = None,
    threads: int = 1,
) -> ImageGrid:
    """Back-project the traces onto the grid; with correction, solve
    (I + K_h) f = b for the back-projection b and K_h the correction operator
    on the grid, and record max |(I + K_h) f - b| as ``solve_residual`` and
    the largest absolute row sum of K_h as ``operator_norm``.

    ``threads`` is accepted for callers that pass one run-wide thread count;
    the back-projection is a few batched array operations and ignores it.
    """
    opts = opts or ReconstructionOptions()
    domain = traces.domain
    if opts.correction != "none":
        _check_correction_grid(domain, grid.shape)
    pts = grid.points()
    margin = _grid_margin(domain, grid)
    if margin <= 0:
        raise ValueError("reconstruction grid touches the boundary")
    b = _backproject(traces, pts)

    result = ImageGrid(grid.lo, grid.hi, grid.shape, b, dict(grid.meta))
    result.meta.update({"margin": margin, "correction": opts.correction})
    if opts.correction == "none":
        return result

    kopts = opts if opts.kernel_margin is not None else replace(opts, kernel_margin=margin)
    k_h = _correction_matrix(grid, domain, kopts)
    system = np.eye(len(b)) + k_h
    result.values = np.linalg.solve(system, b)
    result.meta.update(
        {
            "solve_residual": float(np.max(np.abs(system @ result.values - b))),
            "operator_norm": float(np.max(np.sum(np.abs(k_h), axis=1))),
        }
    )
    return result


# ---------------------------------------------------------------------------
# image output


def write_image_csv(path, grid: ImageGrid) -> None:
    if grid.values is None:
        raise ValueError("grid holds no values to write")
    n = grid.dimension
    rows = np.column_stack([grid.points(), np.asarray(grid.values).reshape(-1)]).tolist()
    lines = [",".join([f"x_{i+1}" for i in range(n)] + ["value"])]
    lines += [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_image_pgm(path, grid: ImageGrid, sidecar_path=None) -> None:
    """Plain (P2) 16-bit PGM of a planar grid, row-major in the first axis.

    The affine value mapping is recorded in a sidecar text file so the
    float field can be recovered from the integer image.
    """
    if grid.values is None:
        raise ValueError("grid holds no values to write")
    shape = [m for m in grid.shape if m > 1]
    if len(shape) != 2:
        raise ValueError(f"PGM output needs exactly two non-trivial axes, got shape {grid.shape}")
    vals = np.asarray(grid.values).reshape(shape)
    lo, hi = float(vals.min()), float(vals.max())
    maxval = 65535
    if hi > lo:
        quant = np.rint((vals - lo) / (hi - lo) * maxval).astype(int)
    else:
        quant = np.zeros_like(vals, dtype=int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{shape[1]} {shape[0]}\n{maxval}\n")
        for row in quant:
            fh.write(" ".join(str(v) for v in row) + "\n")
    if sidecar_path is not None:
        with open(sidecar_path, "w") as fh:
            fh.write(f"value_min = {_fmt(lo)}\n")
            fh.write(f"value_max = {_fmt(hi)}\n")
            fh.write(f"maxval = {maxval}\n")
            fh.write("mapping = value_min + pixel / maxval * (value_max - value_min)\n")
