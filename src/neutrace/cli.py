"""Command-line front end: config parsing, the four subcommands, and the
deterministic text outputs.

Configs are flat `key = value` files with `#` comments.  Every solver
tunable has a key; a key left out takes the default of the dataclass it
fills (`SolverParams`, `ReconstructionOptions`).  Unknown keys are hard
errors so typos cannot silently fall back to defaults.  All emitted floats
use 17 significant digits, and no output contains wall-clock content
unless --timestamps is passed, so identical configs give byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .forward import (
    InsufficientDataError,
    SolverParams,
    TimeGrid,
    _fmt,
    read_trace_file,
    simulate_traces,
    support_margin,
    write_trace_file,
)
from .geometry import (
    ConvexDomain,
    boundary_quadrature,
    contains,
    domain_diameter,
    ellipsoid,
    grid_corners,
    grid_margin,
    superellipse,
    support_halfwidth,
)
from .inversion import (
    ImageGrid,
    ReconstructionOptions,
    _check_correction_grid,
    reconstruct,
    truncation_probe,
    write_image_csv,
    write_image_pgm,
)
from .transforms import Bump, Phantom, build_kernel_profile
from .validation import (
    _PARAMETER_RANGES,
    _in_range,
    check_even_equivalence,
    check_integral_identity,
    check_lemma_coefficients,
    check_lemma_symbolic,
    check_mollifier,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "main"]


class ConfigError(ValueError):
    """Config file rejected; the message carries the offending line."""


# ---------------------------------------------------------------------------
# config parsing


_REQUIRED = object()


def _finite(value: str) -> float:
    """The converter of every config number: ``float`` of the text, refused
    like unreadable text unless finite, since no key has a use for nan or inf."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _items(convert):
    """Converter of a comma-separated list, each item by ``convert``."""
    return lambda value: tuple(convert(p.strip()) for p in value.split(","))


class _Entries:
    """Raw `key = (value, line)` map with typed, popping accessors."""

    def __init__(self, text: str):
        self.data: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"line {lineno}: empty key")
            if key in self.data:
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} (first set on line {self.data[key][1]})"
                )
            self.data[key] = (value, lineno)
        self.lines = {key: lineno for key, (_, lineno) in self.data.items()}

    def _pop(self, key, default):
        if key in self.data:
            return self.data.pop(key)
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return None

    def _read(self, key, default, convert, expects, check=None):
        """Pop ``key`` and return ``convert`` of its value.  A value that
        ``convert`` rejects raises "<key> expects <expects>"; ``check`` may
        return the phrase of a further error about the converted value."""
        entry = self._pop(key, default)
        if entry is None:
            return default
        value, lineno = entry
        try:
            result = convert(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} expects {expects}, got {value!r}") from None
        problem = check(result) if check else None
        if problem:
            raise ConfigError(f"line {lineno}: {key} {problem}")
        return result

    def string(self, key, default=_REQUIRED, choices=None):
        def check(value):
            if choices is not None and value not in choices:
                return f"must be one of {', '.join(choices)}, got {value!r}"

        return self._read(key, default, str, "a string", check)

    def floating(self, key, default=_REQUIRED):
        return self._read(key, default, _finite, "a finite number")

    def integer(self, key, default=_REQUIRED, minimum=None, maximum=None):
        def check(number):
            if minimum is not None and number < minimum:
                return f"must be >= {minimum}, got {number}"
            if maximum is not None and number > maximum:
                return f"must be <= {maximum}, got {number}"

        return self._read(key, default, int, "an integer", check)

    def float_list(self, key, default=_REQUIRED):
        return self._read(key, default, _items(_finite), "comma-separated finite numbers")

    def int_list(self, key, default=_REQUIRED):
        return self._read(key, default, _items(int), "comma-separated integers")

    def string_list(self, key, default=_REQUIRED):
        def names(value):
            return tuple(p.strip() for p in value.split(",") if p.strip())

        return self._read(key, default, names, "comma-separated names")

    def given(self, prefix, **readers) -> dict:
        """Values of the ``prefix.name`` keys the config sets, each read by
        ``readers[name]``; keys it leaves out are absent, so their defaults
        stay in the one place that holds them, the dataclass being filled."""
        values = {name: read(f"{prefix}.{name}", default=None) for name, read in readers.items()}
        return {name: value for name, value in values.items() if value is not None}

    def line_of(self, key) -> int | None:
        return self.lines.get(key)

    def reject_leftovers(self):
        if self.data:
            key, (_, lineno) = min(self.data.items(), key=lambda kv: kv[1][1])
            raise ConfigError(f"line {lineno}: unknown key {key!r}")


@dataclass
class RunConfig:
    """Fully validated run description shared by all subcommands."""

    dimension: int
    domain: ConvexDomain
    phantom: Phantom
    phantom2: Phantom | None
    boundary_res: int
    times: TimeGrid | None
    solver: SolverParams
    grid: tuple | None
    recon: ReconstructionOptions
    validate: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    #: not read from the config: the pipeline is serial, and library calls
    #: that take a ``threads=`` keyword ignore it
    threads: int = 1


_BUMP_KEY = re.compile(r"^(phantom2?)\.bump(\d+)\.(center|radius|amplitude|profile|mu)$")


def _parse_phantom(entries: _Entries, prefix: str, n: int) -> Phantom:
    groups = {}
    for key in entries.data:
        m = _BUMP_KEY.match(key)
        if m and m.group(1) == prefix:
            groups[key.rpartition(".")[0]] = int(m.group(2))
    bumps = []
    for group in sorted(groups, key=lambda g: (groups[g], g)):
        center_line = entries.line_of(f"{group}.center")
        spec = entries.given(
            group,
            center=entries.float_list,
            radius=entries.floating,
            amplitude=entries.floating,
            profile=partial(entries.string, choices=("cinf", "poly")),
            mu=entries.integer,
        )
        for needed in ("center", "radius"):
            if needed not in spec:
                raise ConfigError(f"{group} is missing {group}.{needed}")
        if len(spec["center"]) != n:
            raise ConfigError(
                f"line {center_line}: {group}.center has {len(spec['center'])} "
                f"coordinates for dimension {n}"
            )
        try:
            bumps.append(Bump(**spec))
        except ValueError as exc:
            raise ConfigError(f"{group}: {exc}") from None
    return Phantom(tuple(bumps))


def parse_config(text: str) -> RunConfig:
    entries = _Entries(text)

    n = entries.integer("dimension")
    if n not in (2, 3):
        raise ConfigError(f"unsupported dimension {n} (this implementation covers 2 and 3)")

    kind = entries.string("domain.kind", default="ellipsoid", choices=("ellipsoid", "superellipse"))
    center = entries.float_list("domain.center", default=tuple(0.0 for _ in range(n)))
    axes_line = entries.line_of("domain.semi_axes")
    semi_axes = entries.float_list("domain.semi_axes")
    exponent = entries.floating("domain.exponent", default=None)
    if len(center) != n or len(semi_axes) != n:
        raise ConfigError(
            f"domain.center and domain.semi_axes must have {n} entries for dimension {n}"
        )
    try:
        if kind == "ellipsoid":
            if exponent is not None:
                raise ConfigError("domain.exponent only applies to superellipse domains")
            domain = ellipsoid(center, semi_axes)
        else:
            if exponent is None:
                raise ConfigError("superellipse domains need domain.exponent")
            domain = superellipse(center, semi_axes, exponent)
    except ConfigError:
        raise
    except ValueError as exc:
        where = f"line {axes_line}: " if axes_line else ""
        raise ConfigError(f"{where}{exc}") from None

    phantom = _parse_phantom(entries, "phantom", n)
    phantom2 = _parse_phantom(entries, "phantom2", n)
    if not phantom2.bumps:
        phantom2 = None

    boundary_res = entries.integer("boundary.resolution", default=256 if n == 2 else 24)

    nt = entries.integer("time.nt", default=None)
    t_max = entries.floating("time.t_max", default=None)
    t_factor = entries.floating("time.t_max_factor", default=None)
    if t_max is not None and t_factor is not None:
        raise ConfigError("set only one of time.t_max and time.t_max_factor")
    times = None
    if nt is not None:
        if t_max is None and t_factor is None:
            raise ConfigError("time.nt needs one of time.t_max or time.t_max_factor")
        span = t_max if t_max is not None else t_factor * domain_diameter(domain)
        try:
            times = TimeGrid(t_max=span, nt=nt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif t_max is not None or t_factor is not None:
        raise ConfigError("time.t_max/time.t_max_factor need time.nt")

    try:
        solver = SolverParams(
            **entries.given(
                "solver",
                h_t=entries.floating,
                radial_quad=entries.integer,
                table_points=entries.integer,
            )
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    margins = {}
    for label, ph in (("phantom", phantom), ("phantom2", phantom2)):
        if ph is None or not ph.bumps:
            continue
        for i, b in enumerate(ph.bumps, start=1):
            if not contains(domain, np.asarray(b.center)):
                raise ConfigError(f"{label} bump {i} center {b.center} lies outside the domain")
        margins[label] = rho = support_margin(ph, domain)
        if rho <= 0.0:
            raise ConfigError(f"{label} support margin {rho:.6g} must be positive")

    grid = None
    glo = entries.float_list("grid.lo", default=None)
    ghi = entries.float_list("grid.hi", default=None)
    gshape = entries.int_list("grid.shape", default=None)
    if any(v is not None for v in (glo, ghi, gshape)):
        if any(v is None for v in (glo, ghi, gshape)):
            raise ConfigError("grid.lo, grid.hi and grid.shape must be given together")
        if not len(glo) == len(ghi) == len(gshape) == n:
            raise ConfigError(f"grid.lo/hi/shape must each have {n} entries for dimension {n}")
        grid = (glo, ghi, gshape)

    try:
        recon = ReconstructionOptions(
            **entries.given(
                "recon",
                correction=partial(entries.string, choices=("none", "fixed_point")),
                k_radial=entries.integer,
                k_angular=entries.integer,
                kernel_table=entries.integer,
                kernel_quad=entries.integer,
                kernel_margin=entries.floating,
            )
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if grid is not None:
        if recon.correction != "none":
            try:
                _check_correction_grid(domain, gshape)
            except ValueError as exc:
                line = entries.line_of("grid.shape")
                raise ConfigError(f"line {line}: grid.shape: {exc}") from None
        # the correction's kernel needs grid corners at least rho/2 from the rim,
        # and it takes the field as zero outside the grid box
        safety = recon.correction != "none" and bool(phantom.bumps)
        try:
            axes = ImageGrid(*grid).axes()
            if safety:
                dist, corner = grid_margin(domain, axes)
            else:
                grid_corners(domain, axes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if safety:
            rho = margins["phantom"]
            if dist < 0.5 * rho:
                raise ConfigError(
                    f"grid corner {corner} is outside the safety region: boundary "
                    f"distance {dist:.6g} < rho/2 = {0.5 * rho:.6g}"
                )
            for i, b in enumerate(phantom.bumps, start=1):
                if any(c - b.radius < a[0] or c + b.radius > a[-1] for c, a in zip(b.center, axes)):
                    raise ConfigError(f"phantom bump {i} support leaves the grid box")

    checks_line = entries.line_of("validate.checks")
    checks = entries.string_list("validate.checks", default=())
    for name in checks:
        if name not in _CHECKS:
            raise ConfigError(f"line {checks_line}: unknown validation check {name!r}")
    validate_opts = {
        "checks": checks,
        "level": entries.integer("validate.level", default=0, minimum=0),
        "seed": entries.integer("validate.seed", default=7),
        "samples": entries.integer("validate.samples", default=5, minimum=1),
        "lemma_k": entries.int_list("validate.lemma.k", default=(1, 2)),
        "lemma_t": entries.floating("validate.lemma.t", default=0.7),
        "lemma_x": entries.float_list("validate.lemma.x", default=tuple(domain.center)),
        "symbolic_n": entries.integer("validate.symbolic.n", default=4),
        "symbolic_k": entries.integer("validate.symbolic.k", default=2),
        "mollifier_mu": entries.integer("validate.mollifier.mu", default=2 if n == 2 else 3),
        "mollifier_eps": entries.floating(
            "validate.mollifier.eps", default=0.5 * min(domain.semi_axes)
        ),
        # a bound of a check that does not exist is left over, an unknown key
        "bounds": entries.given("validate.bound", **{name: entries.floating for name in _CHECKS}),
    }
    # a value outside its check's fixed range stops the run here, before any check runs
    for name in _PARAMETER_RANGES:
        key = "validate." + name.replace("_", ".")
        try:
            _in_range(name, validate_opts[name])
        except ValueError as exc:
            raise ConfigError(f"line {entries.line_of(key)}: {key}: {exc}") from None

    kernel_opts = {
        "theta": entries.float_list("kernel.theta", default=None),
        "order": entries.integer("kernel.order", default=n, minimum=1, maximum=n),
        "margin": entries.floating("kernel.margin", default=None),
        "points": entries.integer("kernel.points", default=101, minimum=2),
        "hilbert": entries.string("kernel.hilbert", default="auto", choices=("auto", "on", "off")),
    }
    if kernel_opts["theta"] is not None and len(kernel_opts["theta"]) != n:
        raise ConfigError(f"kernel.theta must have {n} entries for dimension {n}")

    outputs = {}
    for name in ("trace", "image", "pgm", "report", "kernel"):
        value = entries.string(f"output.{name}", default=None)
        if value is not None:
            outputs[name] = value
    in_trace = entries.string("input.trace", default=None)
    if in_trace is not None:
        outputs["input_trace"] = in_trace

    entries.reject_leftovers()
    return RunConfig(
        dimension=n,
        domain=domain,
        phantom=phantom,
        phantom2=phantom2,
        boundary_res=boundary_res,
        times=times,
        solver=solver,
        grid=grid,
        recon=recon,
        validate=validate_opts,
        kernel=kernel_opts,
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# subcommands


def _out_path(args, cfg: RunConfig, key: str) -> str:
    if args.out:
        return args.out
    if key in cfg.outputs:
        return cfg.outputs[key]
    raise ConfigError(f"no output path: pass --out or set output.{key}")


def cmd_forward(cfg: RunConfig, args) -> int:
    if cfg.times is None:
        raise ConfigError("forward needs time.nt and one of time.t_max / time.t_max_factor")
    out = _out_path(args, cfg, "trace")
    boundary = boundary_quadrature(cfg.domain, cfg.boundary_res)
    traces = simulate_traces(cfg.phantom, cfg.domain, boundary, cfg.times, cfg.solver)
    stamp = datetime.now(timezone.utc).isoformat() if args.timestamps else None
    write_trace_file(out, traces, timestamp=stamp)
    print(f"nodes = {len(boundary)}")
    print(f"nt = {cfg.times.nt}")
    print(f"t_max = {_fmt(cfg.times.t_max)}")
    print(f"wrote {out}")
    return 0


def cmd_reconstruct(cfg: RunConfig, args) -> int:
    trace_path = cfg.outputs.get("input_trace") or cfg.outputs.get("trace")
    if trace_path is None:
        raise ConfigError("reconstruct needs input.trace (or output.trace) for the trace file")
    if cfg.grid is None:
        raise ConfigError("reconstruct needs grid.lo, grid.hi and grid.shape")
    out = _out_path(args, cfg, "image")
    traces = read_trace_file(trace_path)
    if traces.dimension != cfg.dimension:
        raise ConfigError(
            f"trace file is {traces.dimension}-dimensional, config says {cfg.dimension}"
        )
    grid = ImageGrid(*cfg.grid)
    image = reconstruct(traces, grid, cfg.recon)
    write_image_csv(out, image)
    print(f"grid = {'x'.join(str(m) for m in grid.shape)}")
    print(f"wrote {out}")
    if cfg.dimension == 2:
        probe = tuple(0.5 * (a + b) for a, b in zip(grid.lo, grid.hi))
        try:
            estimate = truncation_probe(traces, np.asarray(probe), cfg.recon)
            print(f"truncation_estimate = {_fmt(estimate)}")
        except InsufficientDataError:
            print("truncation_estimate = unavailable (recorded span too short to halve)")
    if cfg.recon.correction != "none":
        print(f"correction_residual = {_fmt(image.meta['solve_residual'])}")
        print(f"correction_norm = {_fmt(image.meta['operator_norm'])}")
    if "pgm" in cfg.outputs:
        pgm = cfg.outputs["pgm"]
        write_image_pgm(pgm, image, sidecar_path=pgm + ".meta")
        print(f"wrote {pgm}")
    return 0


_LEMMA_LIN = (0.8, -0.5, 0.3)
_LEMMA_SQ = (0.6, 0.2, -0.4)


def _lemma_field(n: int):
    """Fixed quadratic field for the coefficient-recursion check.

    Polynomial data keeps the spherical means exact under the fixed angular
    rules, so the reported residual isolates the finite differences.  The
    field is evaluated one coordinate plane at a time, in axis order, so its
    bits do not depend on the memory layout of the points.  The value is
    0.3 + 0.4 x0 x1 + sum_k (lin_k + sq_k x_k) x_k, formed in place in that
    order with one reused temporary."""

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        x = [pts[..., k] for k in range(n)]
        out = np.multiply(0.4, x[0], out=np.empty(pts.shape[:-1]))
        out *= x[1]
        out += 0.3
        tmp = np.empty_like(out)
        for xk, lin, sq in zip(x, _LEMMA_LIN, _LEMMA_SQ):
            np.multiply(sq, xk, out=tmp)
            tmp += lin
            tmp *= xk
            out += tmp
        return out

    return g


def _default_checks(cfg: RunConfig) -> tuple[str, ...]:
    names = ["mollifier", "lemma-symbolic", "lemma-coefficients"]
    if cfg.dimension == 2 and cfg.phantom.bumps:
        names.append("even-equivalence")
    if cfg.dimension == 3 and cfg.phantom2 is not None:
        names.append("integral-identity")
    return tuple(names)


def _mollifier(cfg: RunConfig, opts: dict) -> list:
    return check_mollifier(cfg.dimension, opts["mollifier_mu"], opts["mollifier_eps"], opts["level"])


def _lemma_symbolic(cfg: RunConfig, opts: dict) -> list:
    return [check_lemma_symbolic(opts["symbolic_n"], opts["symbolic_k"])]


def _lemma_coefficients(cfg: RunConfig, opts: dict) -> list:
    return check_lemma_coefficients(
        cfg.dimension,
        opts["lemma_k"],
        _lemma_field(cfg.dimension),
        opts["lemma_x"],
        opts["lemma_t"],
        level=opts["level"],
    )


def _even_equivalence(cfg: RunConfig, opts: dict) -> list:
    if cfg.dimension != 2:
        raise ConfigError("even-equivalence check needs dimension = 2")
    if not cfg.phantom.bumps:
        raise ConfigError("even-equivalence check needs a phantom section")
    rng = np.random.default_rng(opts["seed"])
    a = np.asarray(cfg.domain.semi_axes)
    pts = np.asarray(cfg.domain.center) + (rng.random((opts["samples"], 2)) - 0.5) * a
    ts = (0.2 + rng.random(opts["samples"])) * float(np.max(a))
    return [check_even_equivalence(cfg.phantom, pts, ts, opts["level"])]


def _integral_identity(cfg: RunConfig, opts: dict) -> list:
    if cfg.dimension != 3:
        raise ConfigError("integral-identity check needs dimension = 3")
    if not cfg.phantom.bumps or cfg.phantom2 is None:
        raise ConfigError("integral-identity check needs phantom and phantom2 sections")
    return [check_integral_identity(cfg.phantom, cfg.phantom2, cfg.domain, opts["level"])]


# the validation checks: default bound, the residual the bound applies to,
# and the run.  Reports whose sides are normalized (or compared to exact
# constants of order one) bound the absolute residual.
_CHECKS = {
    "integral-identity": (2e-2, "rel", _integral_identity),
    "lemma-coefficients": (1e-4, "rel", _lemma_coefficients),
    "lemma-symbolic": (1e-12, "abs", _lemma_symbolic),
    "even-equivalence": (1e-5, "abs", _even_equivalence),
    "mollifier": (1e-6, "abs", _mollifier),
}


def cmd_validate(cfg: RunConfig, args) -> int:
    out = _out_path(args, cfg, "report")
    names = cfg.validate["checks"] or _default_checks(cfg)
    rows = []
    failures = 0
    for name in names:
        default, kind, run = _CHECKS[name]
        bound = cfg.validate["bounds"].get(name, default)
        for report in run(cfg, cfg.validate):
            checked = report.rel_residual if kind == "rel" else report.abs_residual
            status = "pass" if checked <= bound else "fail"
            if status == "fail":
                failures += 1
            rows.append((name, report, checked, bound, status))
            print(
                f"{report.name}: residual = {_fmt(checked)} ({kind}), "
                f"bound = {_fmt(bound)}, {status}"
            )

    header = "check,name,lhs,rhs,abs_residual,rel_residual,residual,bound,status"
    if args.timestamps:
        header += ",runtime_s"
    lines = [header]
    for name, report, checked, bound, status in rows:
        row = ",".join(
            [
                name,
                report.name,
                _fmt(report.lhs),
                _fmt(report.rhs),
                _fmt(report.abs_residual),
                _fmt(report.rel_residual),
                _fmt(checked),
                _fmt(bound),
                status,
            ]
        )
        if args.timestamps:
            row += f",{report.runtime:.3f}"
        lines.append(row)
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")
    if failures:
        print(f"{failures} check(s) exceeded their bound", file=sys.stderr)
        return 1
    return 0


def cmd_kernel(cfg: RunConfig, args) -> int:
    out = _out_path(args, cfg, "kernel")
    theta = cfg.kernel["theta"]
    if theta is None:
        raise ConfigError("kernel dump needs kernel.theta")
    th = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(th))
    if norm == 0.0:
        raise ConfigError("kernel.theta must be a nonzero direction")
    th = th / norm
    order = cfg.kernel["order"]
    margin = cfg.kernel["margin"]
    if margin is None:
        margin = 0.05 * support_halfwidth(cfg.domain, th)
    hilbert = cfg.kernel["hilbert"]
    with_hilbert = cfg.dimension % 2 == 0 if hilbert == "auto" else hilbert == "on"
    profile = build_kernel_profile(
        cfg.domain,
        th,
        order,
        margin=margin,
        num_table=cfg.recon.kernel_table,
        num_quad=cfg.recon.kernel_quad,
        with_hilbert=with_hilbert,
    )
    points = cfg.kernel["points"]
    ss = profile.s_center + np.linspace(-profile.query_halfwidth, profile.query_halfwidth, points)
    columns = [("s", ss), ("section", profile.eval(ss, order=0, hilbert=False))]
    for m in range(1, order + 1):
        columns.append((f"section_d{m}", profile.eval(ss, order=m, hilbert=False)))
    if with_hilbert:
        columns.append(("hilbert", profile.eval(ss, order=0, hilbert=True)))
        for m in range(1, order + 1):
            columns.append((f"hilbert_d{m}", profile.eval(ss, order=m, hilbert=True)))
    with open(out, "w") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        for i in range(points):
            fh.write(",".join(_fmt(vals[i]) for _, vals in columns) + "\n")
    print(f"direction = {','.join(_fmt(t) for t in th)}")
    print(f"margin = {_fmt(margin)}")
    print(f"wrote {out}")
    return 0


# the subcommands: run and help text
_COMMANDS = {
    "forward": (cmd_forward, "simulate Neumann traces and write the trace file"),
    "reconstruct": (cmd_reconstruct, "back-project a trace file onto an image grid"),
    "validate": (cmd_validate, "run identity checks and write a report CSV"),
    "kernel": (cmd_kernel, "tabulate a section-profile kernel along one direction"),
}


def main(argv=None) -> int:
    """Run one subcommand.  Returns 0 on success, 1 when ``validate`` finds
    a check over its bound, and 2 on an input error: a config, trace file or
    value the program rejects (every such error is a ValueError), or a file
    it cannot read or write."""
    parser = argparse.ArgumentParser(
        prog="neutrace",
        description="Wave-equation initial data from Neumann boundary traces: "
        "forward simulation, back-projection reconstruction, identity checks "
        "and kernel profile dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the key = value config file")
        p.add_argument("--out", help="output path (overrides the output.* config keys)")
        p.add_argument(
            "--timestamps",
            action="store_true",
            help="include wall-clock content in outputs (off by default for reproducibility)",
        )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        return _COMMANDS[args.command][0](cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
