"""Back-projection reconstruction of the initial pressure from Neumann traces.

Odd dimension (n = 3) evaluates a weighted boundary sum of the traces at
the travel time |x - y|; even dimension (n = 2) integrates each trace
over all later times with an Abel-type weight.  Both admit an additive
correction term: an integral operator over the domain whose kernel is a
high offset-derivative of the (Hilbert-transformed, in even dimension)
section profile of the domain, evaluated on perpendicular-bisector
chords.  For ellipsoids that kernel vanishes and the plain back-projection
is already exact in the continuum limit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import cubic_stencil, gauss_legendre
from .forward import InsufficientDataError, TraceGrid, _fmt
from .geometry import ELLIPSOID, ConvexDomain, grid_margin
from .transforms import (
    KernelProfile,
    Phantom,
    _cached_profiles,
    _check_unit,
    _ellipsoid_profile_deriv,
    _offset_window,
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
        (N, dimension) points, both shaped (corners, N); weight 0 outside."""
        idx = []
        frac = []
        inside = np.ones(flat.shape[0], dtype=bool)
        for d in range(self.dimension):
            a, b, m = self.lo[d], self.hi[d], self.shape[d]
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
        corner_idx = []
        corner_w = []
        for corner in range(1 << self.dimension):
            # skip corners that raise the index along a single-sample axis;
            # counting them would duplicate the whole contribution
            if any(corner >> d & 1 and self.shape[d] == 1 for d in range(self.dimension)):
                continue
            w = np.ones(flat.shape[0])
            sel = []
            for d in range(self.dimension):
                if corner >> d & 1:
                    w = w * frac[d]
                    sel.append(idx[d] + 1)
                else:
                    w = w * (1.0 - frac[d] if self.shape[d] > 1 else 1.0)
                    sel.append(idx[d])
            w[~inside] = 0.0
            corner_idx.append(np.ravel_multi_index(sel, self.shape))
            corner_w.append(w)
        return np.array(corner_idx), np.array(corner_w)

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

    ``t_upper`` truncates the even-dimensional time integral early (used
    by the truncation estimate); ``correction`` is either ``"none"`` or
    ``"fixed_point"``, which solves b = f + K f for f (see :func:`reconstruct`);
    the ``k_*`` and ``kernel_*`` fields set the quadrature and tables of K.
    """

    correction: str = "none"
    time_quad: int = 256
    t_upper: float | None = None
    k_radial: int = 32
    k_angular: int = 64
    kernel_table: int = 512
    kernel_quad: int = 256
    kernel_margin: float | None = None

    def __post_init__(self):
        if self.correction not in ("none", "fixed_point"):
            raise ValueError(f"unknown correction mode {self.correction!r}")


def _interp_rows(values: np.ndarray, dt: float, queries: np.ndarray) -> np.ndarray:
    """Interpolate each trace row at its own query times (four-point cubic).

    ``queries`` has shape (rows,) or (rows, q).  A query in the first or last
    grid cell is read off the nearest four-point stencil that fits on the
    grid (:func:`cubic_stencil`); queries are not clamped, and the callers
    keep them inside [0, t_max].
    """
    rows, nt = values.shape
    q = np.atleast_2d(queries.T).T if queries.ndim == 1 else queries
    k, (wm1, w0, w1, w2) = cubic_stencil(q, 0.0, dt, nt)
    flat = values.reshape(-1)
    base = np.arange(rows)[:, None] * nt + k
    out = (
        wm1 * flat[(base - 1).reshape(-1)].reshape(k.shape)
        + w0 * flat[base.reshape(-1)].reshape(k.shape)
        + w1 * flat[(base + 1).reshape(-1)].reshape(k.shape)
        + w2 * flat[(base + 2).reshape(-1)].reshape(k.shape)
    )
    return out.reshape(q.shape) if queries.ndim > 1 else out.reshape(rows)


def backproject_odd(traces: TraceGrid, x, opts: ReconstructionOptions | None = None) -> float:
    """Three-dimensional back-projection: boundary average of the traces
    divided by travel time, read off at t = |x - y|."""
    if traces.dimension != 3:
        raise ValueError("backproject_odd applies to three-dimensional traces")
    x = np.asarray(x, dtype=float)
    d = np.sqrt(np.sum((traces.boundary.points - x) ** 2, axis=-1))
    if np.any(d >= traces.times.t_max):
        far = int(np.argmax(d))
        raise InsufficientDataError(
            f"travel time {d.max():.6g} to node {far} exceeds t_max = {traces.times.t_max:.6g}"
        )
    vals = _interp_rows(traces.values, traces.times.dt, d)
    return float(np.sum(traces.boundary.weights * vals / d) / (2.0 * math.pi))


def backproject_even(traces: TraceGrid, x, opts: ReconstructionOptions | None = None) -> float:
    """Two-dimensional back-projection.

    Integrates trace(y, t) / sqrt(t^2 - d^2) over t in (d, T) for each
    node, after the substitution t = sqrt(d^2 + u^2) which removes the
    inverse-root singularity at the travel-time endpoint.
    """
    if traces.dimension != 2:
        raise ValueError("backproject_even applies to two-dimensional traces")
    opts = opts or ReconstructionOptions()
    x = np.asarray(x, dtype=float)
    t_top = traces.times.t_max if opts.t_upper is None else float(opts.t_upper)
    if not 0.0 < t_top <= traces.times.t_max:
        raise InsufficientDataError(
            f"upper time {t_top:.6g} outside the trace range (0, {traces.times.t_max:.6g}]"
        )
    d = np.sqrt(np.sum((traces.boundary.points - x) ** 2, axis=-1))
    if np.any(d >= t_top):
        far = int(np.argmax(d))
        raise InsufficientDataError(
            f"travel time {d.max():.6g} to node {far} reaches the upper time {t_top:.6g}"
        )
    rule = gauss_legendre(opts.time_quad, 0.0, 1.0)
    u_top = np.sqrt(t_top**2 - d * d)
    u = u_top[:, None] * rule.nodes
    t = np.sqrt(d[:, None] ** 2 + u * u)
    vals = _interp_rows(traces.values, traces.times.dt, t)
    inner = u_top * np.sum(vals / t * rule.weights, axis=-1)
    return float(np.sum(traces.boundary.weights * inner) / math.pi)


def truncation_probe(traces: TraceGrid, x, opts: ReconstructionOptions | None = None) -> float:
    """Change in the even-dimensional back-projection at one point when
    the time integral is cut at half the recorded span.

    A small value indicates the trace tail past t_max/2 no longer
    contributes, i.e. the recorded span was long enough.
    """
    opts = opts or ReconstructionOptions()
    full = backproject_even(traces, x, replace(opts, t_upper=None))
    half = backproject_even(traces, x, replace(opts, t_upper=0.5 * traces.times.t_max))
    return abs(full - half)


# ---------------------------------------------------------------------------
# correction operator


def _correction_constant(n: int) -> float:
    if n % 2 == 0:
        return (-1.0) ** ((n - 2) // 2) / (2.0 ** (n + 1) * math.pi ** (n - 1))
    return (-1.0) ** ((n - 3) // 2) / (2.0 ** (n + 1) * math.pi ** (n - 1))


def _as_field(f):
    """Point evaluator of a Phantom or an ImageGrid, the two fields whose
    support radius is known."""
    if isinstance(f, Phantom):
        return f.eval
    if isinstance(f, ImageGrid):
        return f.interp
    raise TypeError(f"cannot evaluate {type(f).__name__} as a field")


def _angular_set(n: int, m: int):
    """Directions and weights covering the unit sphere (total measure)."""
    if n == 2:
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        w = np.full(m, 2.0 * math.pi / m)
        return dirs, w
    rule = gauss_legendre(m, -1.0, 1.0)
    nphi = 2 * m
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    uu, ph = np.meshgrid(rule.nodes, phi, indexing="ij")
    wu, _ = np.meshgrid(rule.weights, phi, indexing="ij")
    st = np.sqrt(1.0 - uu * uu)
    dirs = np.stack([st * np.cos(ph), st * np.sin(ph), uu], axis=-1).reshape(-1, 3)
    w = (wu * (2.0 * math.pi / nphi)).reshape(-1)
    return dirs, w


def _ray_profiles(domain, dirs, order, margin, opts):
    """Kernel profile of each direction, fetched as one batch; None for
    every direction of an odd-dimensional ellipsoid, whose kernel is in
    closed form."""
    if domain.kind == ELLIPSOID and domain.dimension % 2 == 1:
        return [None] * len(dirs)
    return _cached_profiles(
        domain, dirs, order, margin, opts.kernel_table, opts.kernel_quad,
        domain.dimension % 2 == 0,
    )


def _kernel_on_ray(domain, omega, s_vals, order, margin, profile):
    """Composite kernel values along one direction at many offsets, read off
    the direction's profile, or from the closed form when it has none."""
    if profile is None:
        th = _check_unit(omega)
        _, sp = _offset_window(domain, th, s_vals, margin, order)
        return _ellipsoid_profile_deriv(domain, th, sp, order)
    return profile.eval(s_vals, order=order, hilbert=domain.dimension % 2 == 0)


def _support_radius(f, x) -> float:
    if isinstance(f, Phantom):
        r = 0.0
        for b in f.bumps:
            r = max(r, float(np.linalg.norm(np.asarray(b.center) - x)) + b.radius)
        return r
    if isinstance(f, ImageGrid):
        corners = np.array(
            np.meshgrid(*[[lo, hi] for lo, hi in zip(f.lo, f.hi)], indexing="ij")
        ).reshape(len(f.lo), -1).T
        return float(np.sqrt(np.sum((corners - x) ** 2, axis=-1)).max())
    raise TypeError("support radius needs a Phantom or ImageGrid input")


def correction_K(
    f_in,
    x,
    domain: ConvexDomain,
    opts: ReconstructionOptions | None = None,
    margin: float | None = None,
) -> float:
    """Additive correction operator applied to a candidate field at x.

    The plain back-projection of the traces of f is b = f + K f.  Polar
    coordinates around x cancel the 1/|x - y|^{n-1} factor exactly: the
    integral becomes radial integrals of f(x + r w) times the kernel at the
    bisector chord (w, <x, w> + r/2), summed over directions.
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
    r_max = _support_radius(f_in, x)
    if r_max == 0.0:
        return 0.0
    dirs, wdir = _angular_set(n, opts.k_angular)
    rad = gauss_legendre(opts.k_radial, 0.0, 1.0)
    order = n
    profiles = _ray_profiles(domain, dirs, order, margin, opts)
    total = 0.0
    for omega, w_omega, profile in zip(dirs, wdir, profiles):
        r = r_max * rad.nodes
        pts = x + r[:, None] * omega
        fvals = np.asarray(evaluator(pts), dtype=float)
        # beyond the support the chord midpoint may leave the safe window;
        # the integrand is zero there, so only query the kernel where f is not
        mask = fvals != 0.0
        if not np.any(mask):
            continue
        s_vals = float(np.sum(x * omega)) + 0.5 * r[mask]
        kvals = _kernel_on_ray(domain, omega, s_vals, order, margin, profile)
        total += w_omega * r_max * float(np.sum(rad.weights[mask] * fvals[mask] * kvals))
    return _correction_constant(n) * total


# ---------------------------------------------------------------------------
# full reconstruction


def _grid_margin(domain: ConvexDomain, grid: ImageGrid) -> float:
    return grid_margin(domain, grid.axes())[0]


def _correction_matrix(grid: ImageGrid, domain: ConvexDomain, opts) -> np.ndarray:
    """K on the grid's multilinear fields: row i is the quadrature of
    :func:`correction_K` at grid point i, each sample f(x_i + r w) spread
    over its corner weights, so K @ v is correction_K(ImageGrid(v), x_i)."""
    n = domain.dimension
    pts = grid.points()
    size = len(pts)
    r_max = np.array([_support_radius(grid, p) for p in pts])
    rad = gauss_legendre(opts.k_radial, 0.0, 1.0)
    r = r_max[:, None] * rad.nodes
    matrix = np.zeros(size * size)
    dirs, wdir = _angular_set(n, opts.k_angular)
    profiles = _ray_profiles(domain, dirs, n, opts.kernel_margin, opts)
    for omega, w_omega, profile in zip(dirs, wdir, profiles):
        idx, weights = grid._corners((pts[:, None, :] + r[..., None] * omega).reshape(-1, n))
        # a grid field vanishes outside the box, so only query the kernel inside
        inside = np.any(weights != 0.0, axis=0).reshape(r.shape)
        # the same offset formula as correction_K, so both read equal kernel values
        s_vals = np.sum(pts * omega, axis=-1)[:, None] + 0.5 * r
        kvals = _kernel_on_ray(domain, omega, s_vals[inside], n, opts.kernel_margin, profile)
        coef = _correction_constant(n) * w_omega * r_max[:, None] * rad.weights
        live = inside.reshape(-1)
        cells = np.nonzero(inside)[0] * size + idx[:, live]
        terms = weights[:, live] * (coef[inside] * kvals)
        matrix += np.bincount(cells.reshape(-1), terms.reshape(-1), minlength=size * size)
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
    the largest absolute row sum of K_h as ``operator_norm``."""
    opts = opts or ReconstructionOptions()
    domain = traces.domain
    n = domain.dimension
    pts = grid.points()
    margin = _grid_margin(domain, grid)
    if margin <= 0:
        raise ValueError("reconstruction grid touches the boundary")
    project = backproject_odd if n == 3 else backproject_even

    def run_chunk(chunk):
        return [project(traces, p, opts) for p in chunk]

    if threads > 1:
        chunks = np.array_split(pts, threads * 4)
        out: list[float] = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(run_chunk, chunks):
                out.extend(part)
        b = np.array(out)
    else:
        b = np.array(run_chunk(pts))

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
    pts = grid.points()
    vals = np.asarray(grid.values).reshape(-1)
    with open(path, "w") as fh:
        fh.write(",".join([f"x_{i+1}" for i in range(n)] + ["value"]) + "\n")
        for p, v in zip(pts, vals):
            fh.write(",".join(_fmt(c) for c in p) + f",{_fmt(v)}\n")


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
