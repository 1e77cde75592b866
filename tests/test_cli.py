"""Config parsing and the four subcommands, run in-process."""

import dataclasses
import hashlib
import os
import subprocess
import sys

import pytest

from neutrace import cli
from neutrace.cli import ConfigError, main, parse_config
from neutrace.forward import SolverParams, read_trace_file, simulate_traces, support_margin
from neutrace.geometry import boundary_quadrature
from neutrace.inversion import ImageGrid, ReconstructionOptions, reconstruct
from neutrace.transforms import Bump

MINIMAL_2D = "dimension = 2\ndomain.semi_axes = 1.0, 1.0\n"

FORWARD_3D = """\
dimension = 3
domain.semi_axes = 1.0, 1.0, 1.0
phantom.bump1.center = 0.1, 0.0, 0.0
phantom.bump1.radius = 0.35
boundary.resolution = 8
time.nt = 16
time.t_max = 3.0
"""


def child_env(**extra):
    """The environment of a child ``python -m neutrace``: this process's,
    with the directory the package was imported from first on PYTHONPATH,
    so the child runs the code under test with or without an install."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def config_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL_2D)
    assert cfg.dimension == 2
    assert cfg.domain.kind == "ellipsoid"
    assert cfg.boundary_res == 256
    assert cfg.solver.table_points == 4096  # section table on by default in 2-D
    assert cfg.times is None
    assert cfg.grid is None
    assert not cfg.phantom.bumps
    assert cfg.phantom2 is None
    assert cfg.threads == 1
    assert cfg.recon.correction == "none"
    assert cfg.solver == SolverParams()
    assert cfg.recon == ReconstructionOptions()


def test_parse_3d_defaults():
    cfg = parse_config("dimension = 3\ndomain.semi_axes = 1, 1, 1\n")
    assert cfg.boundary_res == 24
    # one default in every dimension; three-dimensional simulation ignores it
    assert cfg.solver.table_points == SolverParams().table_points == 4096


# a value other than the default for each field of the two dataclasses that
# config keys fill, as config text and as the value the field should hold
_KNOB_VALUES = {
    "h_t": ("0.002", 0.002),
    "radial_quad": ("24", 24),
    "table_points": ("1000", 1000),
    "correction": ("fixed_point", "fixed_point"),
    "k_radial": ("9", 9),
    "k_angular": ("11", 11),
    "kernel_table": ("300", 300),
    "kernel_quad": ("70", 70),
    "kernel_margin": ("0.01", 0.01),
}


def test_solver_and_recon_keys_reach_their_dataclasses(monkeypatch):
    """The ``solver.*`` and ``recon.*`` keys are the fields of
    ``SolverParams`` and ``ReconstructionOptions``: the config reads exactly
    those names, and a value set for each reaches its field."""
    read = {}
    given = cli._Entries.given

    def record(self, prefix, **readers):
        read[prefix] = set(readers)
        return given(self, prefix, **readers)

    monkeypatch.setattr(cli._Entries, "given", record)
    knobs = {"solver": SolverParams, "recon": ReconstructionOptions}
    names = {prefix: [f.name for f in dataclasses.fields(cls)] for prefix, cls in knobs.items()}
    assert sorted(_KNOB_VALUES) == sorted(names["solver"] + names["recon"])
    text = "".join(
        f"{prefix}.{name} = {_KNOB_VALUES[name][0]}\n" for prefix in knobs for name in names[prefix]
    )
    cfg = parse_config(MINIMAL_2D + text)
    for prefix, cls in knobs.items():
        assert read[prefix] == set(names[prefix])
        want = cls(**{name: _KNOB_VALUES[name][1] for name in names[prefix]})
        assert getattr(cfg, prefix) == want != cls()


def test_library_default_traces_equal_the_cli_default_in_2d():
    cfg = parse_config(
        "dimension = 2\ndomain.semi_axes = 1.2, 0.9\n"
        "phantom.bump1.center = 0.1, 0.0\nphantom.bump1.radius = 0.4\n"
        "boundary.resolution = 8\ntime.nt = 40\ntime.t_max = 4.0\n"
    )
    bq = boundary_quadrature(cfg.domain, cfg.boundary_res)
    from_cli = simulate_traces(cfg.phantom, cfg.domain, bq, cfg.times, cfg.solver)
    from_lib = simulate_traces(cfg.phantom, cfg.domain, bq, cfg.times, SolverParams())
    assert from_lib.values.tobytes() == from_cli.values.tobytes()


def test_parse_phantom_bumps():
    cfg = parse_config(
        MINIMAL_2D
        + "phantom.bump2.center = 0.3, 0.0\n"
        + "phantom.bump2.radius = 0.2\n"
        + "phantom.bump1.center = -0.1, 0.1\n"
        + "phantom.bump1.radius = 0.3\n"
        + "phantom.bump1.amplitude = -0.5\n"
        + "phantom.bump1.profile = poly\n"
        + "phantom.bump1.mu = 3\n"
    )
    b1, b2 = cfg.phantom.bumps  # ordered by index, not file position
    assert b1.center == (-0.1, 0.1) and b1.profile == "poly" and b1.mu == 3
    assert b1.amplitude == -0.5
    assert b2 == Bump(center=(0.3, 0.0), radius=0.2)  # the other fields keep Bump's defaults


def test_parse_superellipse_and_comments():
    cfg = parse_config(
        "# comment line\n"
        "dimension = 2  # trailing comment\n"
        "domain.kind = superellipse\n"
        "domain.semi_axes = 1.2, 0.9\n"
        "domain.exponent = 4\n"
    )
    assert cfg.domain.kind == "superellipse"
    assert cfg.domain.exponent == 4.0


def test_parse_validate_bounds_and_checks():
    cfg = parse_config(
        MINIMAL_2D
        + "validate.checks = mollifier, lemma-symbolic\n"
        + "validate.bound.mollifier = 1e-9\n"
    )
    assert cfg.validate["checks"] == ("mollifier", "lemma-symbolic")
    assert cfg.validate["bounds"] == {"mollifier": 1e-9}


@pytest.mark.parametrize(
    "text, message",
    [
        ("dimension = 4\ndomain.semi_axes = 1, 1, 1, 1\n", "unsupported dimension 4"),
        (MINIMAL_2D + "wibble = 3\n", "line 3: unknown key 'wibble'"),
        ("dimension = 2\ndimension = 3\n", "line 2: duplicate key 'dimension'"),
        ("dimension\n", "line 1: expected 'key = value'"),
        ("dimension = two\n", "dimension expects an integer, got 'two'"),
        (MINIMAL_2D + "recon.tol = soon\n", "unknown key 'recon.tol'"),
        (MINIMAL_2D + "phantom.bump1.center = 0, 0\n", "missing phantom.bump1.radius"),
        (
            MINIMAL_2D + "phantom.bump1.center = 0, 0, 0\nphantom.bump1.radius = 0.3\n",
            "has 3 coordinates for dimension 2",
        ),
        (MINIMAL_2D + "domain.exponent = 4\n", "only applies to superellipse"),
        (
            "dimension = 2\ndomain.kind = superellipse\ndomain.semi_axes = 1, 1\n",
            "need domain.exponent",
        ),
        (
            MINIMAL_2D + "time.nt = 8\ntime.t_max = 3\ntime.t_max_factor = 2\n",
            "only one of time.t_max and time.t_max_factor",
        ),
        (MINIMAL_2D + "time.nt = 8\n", "needs one of time.t_max"),
        (MINIMAL_2D + "time.t_max = 3\n", "need time.nt"),
        (MINIMAL_2D + "grid.lo = -0.5, -0.5\n", "must be given together"),
        (
            MINIMAL_2D + "phantom.bump1.center = 2.0, 0.0\nphantom.bump1.radius = 0.3\n",
            "lies outside the domain",
        ),
        (
            MINIMAL_2D + "phantom.bump1.center = 0.9, 0.0\nphantom.bump1.radius = 0.3\n",
            "support margin",
        ),
        # the pipeline is serial: there is no thread count to configure
        (MINIMAL_2D + "threads = 0\n", "line 3: unknown key 'threads'"),
        (MINIMAL_2D + "recon.interpolation = quadratic\n", "unknown key 'recon.interpolation'"),
        (MINIMAL_2D + "kernel.theta = 1, 0, 0\n", "kernel.theta must have 2 entries"),
        ("dimension = 2\ndomain.semi_axes = 1\n", "must have 2 entries"),
        (
            MINIMAL_2D + "recon.correction = newton\n",
            "line 3: recon.correction must be one of none, fixed_point, got 'newton'",
        ),
        # the 2-D back-projection's Abel weights are exact: it has no time quadrature to set
        (MINIMAL_2D + "recon.time_quad = 256\n", "line 3: unknown key 'recon.time_quad'"),
        (MINIMAL_2D + "recon.k_radial = many\n", "line 3: recon.k_radial expects an integer"),
        # the circle means take a fixed rule on each bump's arc: no direction count
        (MINIMAL_2D + "solver.mean_res = 32\n", "line 3: unknown key 'solver.mean_res'"),
        (MINIMAL_2D + "solver.radial_quad = 3\n", "radial_quad must be >= 4, got 3"),
        (MINIMAL_2D + "validate.level = -1\n", "line 3: validate.level must be >= 0, got -1"),
        (
            MINIMAL_2D + "validate.checks = mollifier, foo\n",
            "line 3: unknown validation check 'foo'",
        ),
        (
            MINIMAL_2D + "validate.bound.lemma-symbolc = 1e-9\n",
            "line 3: unknown key 'validate.bound.lemma-symbolc'",
        ),
    ],
)
def test_parse_config_rejections(text, message):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(text)
    assert message in str(err.value)


def test_grid_safety_region_under_correction():
    base = (
        MINIMAL_2D
        + "phantom.bump1.center = 0.0, 0.0\n"
        + "phantom.bump1.radius = 0.3\n"
        + "recon.correction = fixed_point\n"
    )
    # margin rho = 0.7, so corners closer than 0.35 to the rim are rejected
    with pytest.raises(ConfigError, match="outside the safety region"):
        parse_config(base + "grid.lo = -0.9, -0.1\ngrid.hi = 0.1, 0.1\ngrid.shape = 3, 3\n")
    cfg = parse_config(base + "grid.lo = -0.4, -0.4\ngrid.hi = 0.4, 0.4\ngrid.shape = 3, 3\n")
    assert cfg.grid is not None


def test_parse_config_measures_each_support_margin_once(monkeypatch):
    from neutrace import cli

    calls = []

    def counting(ph, domain):
        calls.append(ph)
        return support_margin(ph, domain)

    monkeypatch.setattr(cli, "support_margin", counting)
    cfg = parse_config(
        "dimension = 2\n"
        "domain.kind = superellipse\n"
        "domain.semi_axes = 1.2, 0.9\n"
        "domain.exponent = 4\n"
        "phantom.bump1.center = 0.25, 0.1\n"
        "phantom.bump1.radius = 0.3\n"
        "phantom2.bump1.center = -0.1, 0.0\n"
        "phantom2.bump1.radius = 0.2\n"
        "recon.correction = fixed_point\n"
        "grid.lo = -0.1, -0.25\n"
        "grid.hi = 0.6, 0.45\n"
        "grid.shape = 3, 3\n"
    )
    # the grid's safety check reuses the phantom's margin from the support check
    assert calls == [cfg.phantom, cfg.phantom2]


def test_threads_flag_is_rejected(tmp_path, capsys):
    cfg = config_file(tmp_path, FORWARD_3D)
    with pytest.raises(SystemExit) as err:
        main(["forward", "--config", cfg, "--threads", "2", "--out", str(tmp_path / "t.csv")])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_grid_must_cover_the_phantom_under_correction():
    base = (
        MINIMAL_2D
        + "phantom.bump1.center = 0.0, 0.0\n"
        + "phantom.bump1.radius = 0.3\n"
        + "grid.lo = -0.3, -0.3\n"
        + "grid.shape = 3, 3\n"
    )
    # the support [-0.3, 0.3]^2 pokes out of a box that ends at 0.29
    short = base + "grid.hi = 0.3, 0.29\n"
    with pytest.raises(ConfigError, match="phantom bump 1 support leaves the grid box"):
        parse_config(short + "recon.correction = fixed_point\n")
    assert parse_config(short).grid is not None  # the plain back-projection is pointwise
    cfg = parse_config(base + "grid.hi = 0.3, 0.3\nrecon.correction = fixed_point\n")
    assert cfg.grid is not None
    # a planar slice through a volume never holds a 3-D support
    slab = "grid.lo = -0.5, -0.5, 0.0\ngrid.hi = 0.5, 0.5, 0.0\ngrid.shape = 3, 3, 1\n"
    with pytest.raises(ConfigError, match="leaves the grid box"):
        parse_config(FORWARD_3D + slab + "recon.correction = fixed_point\n")


SE4_LINE_GRID = """\
dimension = 2
domain.kind = superellipse
domain.exponent = 4.0
domain.semi_axes = 1.2, 0.9
grid.lo = 0.0, 0.1
grid.hi = 0.4, 0.1
grid.shape = 5, 1
"""


def test_a_line_grid_refuses_the_correction_where_its_kernel_lives(tmp_path, capsys):
    """On a 2-D grid with one sample on an axis the correction's K_h is set
    by the direction count, not by the field: with the correction on, the
    config stops at its grid.shape line, exit 2.  The plain back-projection
    keeps the grid, and a slice through the ball, whose kernel vanishes,
    keeps the correction."""
    assert parse_config(SE4_LINE_GRID).grid == ((0.0, 0.1), (0.4, 0.1), (5, 1))
    corrected = SE4_LINE_GRID + "recon.correction = fixed_point\n"
    bump = "phantom.bump1.center = 0.2, 0.1\nphantom.bump1.radius = 0.1\n"
    message = "line 7: grid.shape: the correction is undefined on a grid with a one-sample axis"
    for text in (corrected, corrected + bump):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(message)
    assert main(["reconstruct", "--config", config_file(tmp_path, corrected + bump)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    ball = "dimension = 3\ndomain.semi_axes = 1.0, 1.0, 1.0\nrecon.correction = fixed_point\n"
    ball_slice = "grid.lo = -0.5, -0.5, 0\ngrid.hi = 0.5, 0.5, 0\ngrid.shape = 3, 3, 1\n"
    cfg = parse_config(ball + ball_slice)
    assert cfg.grid is not None and cfg.recon.correction == "fixed_point"


def test_grid_corners_of_a_single_sample_axis_sit_at_its_sample():
    # the slice samples z = 0 only; grid.hi's z = 1.5 is no grid point
    slab = "grid.lo = -0.5, -0.5, 0.0\ngrid.hi = 0.5, 0.5, 1.5\n"
    cfg = parse_config(FORWARD_3D + slab + "grid.shape = 3, 3, 1\n")
    assert cfg.grid is not None
    with pytest.raises(ConfigError, match=r"grid corner \(-0\.5, -0\.5, 1\.5\) lies outside"):
        parse_config(FORWARD_3D + slab + "grid.shape = 3, 3, 2\n")
    with pytest.raises(ConfigError, match="degenerate axis range"):
        parse_config(FORWARD_3D + "grid.lo = 0, 0, 0\ngrid.hi = 0, 0.5, 0\ngrid.shape = 3, 3, 1\n")


# ---------------------------------------------------------------------------
# subcommand flows


def run_main(argv):
    return main(argv)


def test_forward_flow_and_determinism(tmp_path, capsys):
    cfg = config_file(tmp_path, FORWARD_3D)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_main(["forward", "--config", cfg, "--out", out1]) == 0
    printed = capsys.readouterr().out
    assert "nodes = 128" in printed
    assert "nt = 16" in printed
    assert f"wrote {out1}" in printed
    assert run_main(["forward", "--config", cfg, "--out", out2]) == 0
    with open(out1, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()


def test_2d_trace_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The 2-D trace rows are matrix products of the stacked tables and the
    operator blocks, large enough here (64 nodes, blocks of 32 rows, a window
    of about 1000 table columns) for OpenBLAS to split them over threads:
    one and two BLAS threads write the same trace file.  With one product
    over the whole window, 627 of the 6144 values differed in their last
    bits."""
    cfg = config_file(
        tmp_path,
        MINIMAL_2D
        + "phantom.bump1.center = 0.2, -0.1\nphantom.bump1.radius = 0.3\n"
        + "boundary.resolution = 64\ntime.nt = 96\ntime.t_max = 4.0\n",
    )
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"traces-{threads}.csv"
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "neutrace", "forward", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# the benchmark's two 2-D configs at their seed-free centres: the ellipse
# (also at the smoke test's 48 nodes and nt 300), and the superellipse with
# the correction
BLAS_ELLIPSE = (
    "domain.semi_axes = 1.5, 1.0\n"
    + "phantom.bump1.center = 0.2, -0.1\nphantom.bump1.radius = 0.3\n"
    + "grid.lo = -0.3, -0.6\ngrid.hi = 0.7, 0.4\ngrid.shape = 11, 11\n"
)
BLAS_SIZES = "boundary.resolution = 64\ntime.nt = 400\n"
BLAS_IMAGE_CASES = {
    "ellipse": BLAS_SIZES + BLAS_ELLIPSE,
    "ellipse-48-nodes-nt-300": "boundary.resolution = 48\ntime.nt = 300\n" + BLAS_ELLIPSE,
    "superellipse-corrected": BLAS_SIZES
    + "domain.kind = superellipse\ndomain.exponent = 4.0\n"
    + "domain.semi_axes = 1.2, 0.9\n"
    + "phantom.bump1.center = 0.25, 0.1\nphantom.bump1.radius = 0.3\n"
    + "grid.lo = -0.1, -0.25\ngrid.hi = 0.6, 0.45\ngrid.shape = 7, 7\n"
    + "recon.correction = fixed_point\nrecon.k_radial = 16\nrecon.k_angular = 32\n"
    + "recon.kernel_table = 256\nrecon.kernel_quad = 128\n",
}


@pytest.mark.parametrize("case", list(BLAS_IMAGE_CASES))
def test_2d_image_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    """The 2-D back-projection filters every trace with the Abel weights by
    matrix products over its time samples, 400 or 300 here (64 or 48
    nodes), enough for OpenBLAS to split one product over threads: one and
    two BLAS threads write the same image.  With one product over all
    samples, 15 of the ellipse's 121 image values differed in their last
    bits; with BLAS products of up to 256 samples, 58 of them at 48 nodes
    and nt 300."""
    text = "dimension = 2\ntime.t_max_factor = 4.0\n"
    text += BLAS_IMAGE_CASES[case]
    trace = tmp_path / "traces.csv"
    text += f"input.trace = {trace}\n"
    cfg = config_file(tmp_path, text)
    assert run_main(["forward", "--config", cfg, "--out", str(trace)]) == 0
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"image-{threads}.csv"
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "neutrace", "reconstruct", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_forward_timestamps_add_a_generated_line(tmp_path, capsys):
    cfg = config_file(tmp_path, FORWARD_3D)
    out = str(tmp_path / "stamped.csv")
    assert run_main(["forward", "--config", cfg, "--timestamps", "--out", out]) == 0
    capsys.readouterr()
    with open(out) as fh:
        assert any(line.startswith("# generated = ") for line in fh)


def test_forward_needs_a_time_grid(tmp_path, capsys):
    cfg = config_file(tmp_path, MINIMAL_2D)
    assert run_main(["forward", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "forward needs time.nt" in capsys.readouterr().err


def test_forward_rejects_a_2d_table_below_one_stencil(tmp_path, capsys):
    cfg = config_file(
        tmp_path,
        MINIMAL_2D
        + "phantom.bump1.center = 0.1, 0.0\nphantom.bump1.radius = 0.4\n"
        + "boundary.resolution = 8\ntime.nt = 10\ntime.t_max = 4.0\n"
        + "solver.table_points = 2\n",
    )
    assert run_main(["forward", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: table_points must be >= 4 for two-dimensional traces" in err
    assert "Traceback" not in err


def test_reconstruct_flow_and_determinism(tmp_path, capsys):
    fwd_cfg = config_file(tmp_path, FORWARD_3D)
    trace = str(tmp_path / "traces.csv")
    assert run_main(["forward", "--config", fwd_cfg, "--out", trace]) == 0
    rec_text = (
        FORWARD_3D
        + f"input.trace = {trace}\n"
        + "grid.lo = -0.2, -0.2, 0.0\n"
        + "grid.hi = 0.2, 0.2, 0.0\n"
        + "grid.shape = 3, 3, 1\n"
    )
    rec_cfg = config_file(tmp_path, rec_text, name="rec.cfg")
    out1, out2 = str(tmp_path / "img_a.csv"), str(tmp_path / "img_b.csv")
    assert run_main(["reconstruct", "--config", rec_cfg, "--out", out1]) == 0
    printed = capsys.readouterr().out
    assert "grid = 3x3x1" in printed
    assert run_main(["reconstruct", "--config", rec_cfg, "--out", out2]) == 0
    with open(out1, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()


def test_reconstruct_2d_reports_truncation_and_writes_pgm(tmp_path, capsys):
    base = (
        "dimension = 2\n"
        "domain.semi_axes = 1.0, 1.0\n"
        "phantom.bump1.center = 0.1, 0.0\n"
        "phantom.bump1.radius = 0.4\n"
        "boundary.resolution = 16\n"
        "time.nt = 60\n"
        "time.t_max = 4.0\n"
    )
    trace = str(tmp_path / "traces2d.csv")
    assert run_main(["forward", "--config", config_file(tmp_path, base), "--out", trace]) == 0
    capsys.readouterr()
    pgm = str(tmp_path / "image.pgm")
    rec_text = (
        base
        + f"input.trace = {trace}\n"
        + f"output.pgm = {pgm}\n"
        + "grid.lo = -0.3, -0.3\n"
        + "grid.hi = 0.3, 0.3\n"
        + "grid.shape = 4, 4\n"
    )
    rec_cfg = config_file(tmp_path, rec_text, name="rec2d.cfg")
    assert run_main(["reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "img.csv")]) == 0
    printed = capsys.readouterr().out
    assert "truncation_estimate = " in printed
    assert f"wrote {pgm}" in printed
    with open(pgm) as fh:
        assert fh.readline().strip() == "P2"
    with open(pgm + ".meta") as fh:
        assert "value_min" in fh.read()


def test_reconstruct_with_correction_reports_the_solve(tmp_path, capsys):
    base = (
        "dimension = 2\n"
        "domain.kind = superellipse\n"
        "domain.exponent = 4.0\n"
        "domain.semi_axes = 1.2, 0.9\n"
        "phantom.bump1.center = 0.25, 0.1\n"
        "phantom.bump1.radius = 0.3\n"
        "boundary.resolution = 32\n"
        "time.nt = 80\n"
        "time.t_max = 4.0\n"
        "solver.table_points = 2048\n"
    )
    trace = str(tmp_path / "traces.csv")
    assert run_main(["forward", "--config", config_file(tmp_path, base), "--out", trace]) == 0
    capsys.readouterr()
    rec_text = (
        base
        + f"input.trace = {trace}\n"
        + "grid.lo = -0.1, -0.25\ngrid.hi = 0.6, 0.45\ngrid.shape = 4, 3\n"
        + "recon.correction = fixed_point\n"
        + "recon.k_radial = 8\nrecon.k_angular = 16\n"
        + "recon.kernel_table = 128\nrecon.kernel_quad = 96\n"
    )
    rec_cfg = config_file(tmp_path, rec_text, name="rec.cfg")
    assert run_main(["reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "i.csv")]) == 0
    lines = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    cfg = parse_config(rec_text)
    meta = reconstruct(read_trace_file(trace), ImageGrid(*cfg.grid), cfg.recon).meta
    assert float(lines["correction_residual"]) == meta["solve_residual"]
    assert float(lines["correction_norm"]) == meta["operator_norm"]
    assert 0.0 < meta["operator_norm"] < 1.0


def test_reconstruct_rejects_truncated_trace(tmp_path, capsys):
    fwd_cfg = config_file(tmp_path, FORWARD_3D)
    trace = str(tmp_path / "traces.csv")
    assert run_main(["forward", "--config", fwd_cfg, "--out", trace]) == 0
    # cut the file inside its binary payload of trace values
    with open(trace, "rb") as fh:
        content = fh.read()
    assert b"\n# payload = <f8\n" in content[:-61]
    with open(trace, "wb") as fh:
        fh.write(content[:-61])
    rec_text = (
        FORWARD_3D
        + f"input.trace = {trace}\n"
        + "grid.lo = -0.2, -0.2, 0.0\ngrid.hi = 0.2, 0.2, 0.0\ngrid.shape = 2, 2, 1\n"
    )
    rec_cfg = config_file(tmp_path, rec_text, name="rec.cfg")
    capsys.readouterr()
    assert run_main(["reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "i.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: trace payload holds")
    assert err[0].endswith("time samples of the node spans")


def test_validate_flow(tmp_path, capsys):
    text = MINIMAL_2D + "validate.checks = lemma-symbolic, mollifier\n"
    cfg = config_file(tmp_path, text)
    out = str(tmp_path / "report.csv")
    assert run_main(["validate", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.count(", pass") == 4  # one symbolic + three mollifier rows
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "check,name,lhs,rhs,abs_residual,rel_residual,residual,bound,status"
    assert len(lines) == 5
    assert all(line.endswith(",pass") for line in lines[1:])


def test_validate_timestamps_add_runtime_column(tmp_path, capsys):
    text = MINIMAL_2D + "validate.checks = lemma-symbolic\n"
    cfg = config_file(tmp_path, text)
    out = str(tmp_path / "report.csv")
    assert run_main(["validate", "--config", cfg, "--timestamps", "--out", out]) == 0
    capsys.readouterr()
    with open(out) as fh:
        header = fh.readline().strip()
    assert header.endswith(",runtime_s")


def test_validate_tight_bound_fails(tmp_path, capsys):
    text = (
        MINIMAL_2D
        + "validate.checks = mollifier\n"
        + "validate.bound.mollifier = 1e-30\n"
    )
    cfg = config_file(tmp_path, text)
    out = str(tmp_path / "report.csv")
    assert run_main(["validate", "--config", cfg, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "exceeded their bound" in captured.err
    with open(out) as fh:
        assert ",fail" in fh.read()


def test_validate_unknown_check(tmp_path, capsys):
    cfg = config_file(tmp_path, MINIMAL_2D + "validate.checks = entropy\n")
    assert run_main(["validate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "unknown validation check" in capsys.readouterr().err


def test_validate_rejects_a_check_with_a_bound_but_no_run(tmp_path, capsys):
    """A check name that exists only in a bound key is an error with the line
    of ``validate.checks`` (exit 2), not a crash."""
    text = MINIMAL_2D + "validate.checks = foo\nvalidate.bound.foo = 1\n"
    cfg = config_file(tmp_path, text)
    assert run_main(["validate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "line 3: unknown validation check 'foo'" in capsys.readouterr().err


def test_kernel_dump(tmp_path, capsys):
    text = (
        "dimension = 2\n"
        "domain.kind = superellipse\n"
        "domain.semi_axes = 1.2, 0.9\n"
        "domain.exponent = 4\n"
        "kernel.theta = 1, 0\n"
        "kernel.margin = 0.25\n"
        "kernel.points = 11\n"
        "recon.kernel_table = 128\n"
        "recon.kernel_quad = 96\n"
    )
    cfg = config_file(tmp_path, text)
    out = str(tmp_path / "kernel.csv")
    assert run_main(["kernel", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "direction = 1,0" in printed
    assert "margin = 0.25" in printed
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "s,section,section_d1,section_d2,hilbert,hilbert_d1,hilbert_d2"
    assert len(lines) == 12
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_kernel_dump_needs_a_direction(tmp_path, capsys):
    cfg = config_file(tmp_path, MINIMAL_2D)
    assert run_main(["kernel", "--config", cfg, "--out", str(tmp_path / "k.csv")]) == 2
    assert "kernel dump needs kernel.theta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("kernel.points", "1", "line 8: kernel.points must be >= 2, got 1"),
        ("kernel.order", "0", "line 8: kernel.order must be >= 1, got 0"),
        ("kernel.order", "3", "line 8: kernel.order must be <= 2, got 3"),
    ],
)
def test_a_kernel_dump_out_of_range_stops_before_the_profile_build(
    tmp_path, capsys, monkeypatch, key, value, message
):
    """kernel.points and kernel.order are refused with their config line
    when the config is read, before the kernel profile is built."""
    built = []
    monkeypatch.setattr(cli, "build_kernel_profile", lambda *args, **kw: built.append(args))
    text = (
        "dimension = 2\n"
        "domain.kind = superellipse\n"
        "domain.semi_axes = 1.2, 0.9\n"
        "domain.exponent = 4\n"
        "kernel.theta = 1, 0\n"
        "recon.kernel_table = 4096\n"
        "recon.kernel_quad = 96\n"
        f"{key} = {value}\n"
    )
    out = tmp_path / "kernel.csv"
    assert run_main(["kernel", "--config", config_file(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == [] and not out.exists()


SE4_2D = """\
dimension = 2
domain.kind = superellipse
domain.exponent = 4.0
domain.semi_axes = 1.2, 0.9
phantom.bump1.center = 0.25, 0.1
phantom.bump1.radius = 0.3
time.nt = 20
time.t_max = 4.0
solver.table_points = 64
"""

CORRECTION = {
    "recon.correction": "fixed_point",
    "recon.k_radial": "4",
    "recon.k_angular": "8",
    "recon.kernel_table": "64",
    "recon.kernel_quad": "16",
}


@pytest.mark.parametrize(
    "key, value, expects",
    [
        ("domain.exponent", "inf", "a finite number"),
        ("domain.semi_axes", "inf, 0.9", "comma-separated finite numbers"),
        ("phantom.bump1.radius", "nan", "a finite number"),
        ("time.t_max", "nan", "a finite number"),
    ],
)
def test_non_finite_numbers_exit_2_with_their_line(tmp_path, capsys, key, value, expects):
    """nan and inf parse as floats, but no key has a use for them: the one
    number converter refuses them, naming the line, before any constructor
    or geometry routine sees them (exit 2, one line on stderr)."""
    lines = SE4_2D.splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {value}"
    text = "\n".join(lines) + "\n"
    message = f"line {lineno}: {key} expects {expects}, got {value!r}"
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(text)
    assert str(err.value) == message
    out = str(tmp_path / "out.csv")
    assert run_main(["forward", "--config", config_file(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def se4_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("se4") / "traces.csv"
    cfg = config_file(path.parent, SE4_2D + "boundary.resolution = 8\n")
    assert main(["forward", "--config", cfg, "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("forward", "boundary.resolution", "4", "boundary resolution must be >= 8, got 4"),
        ("forward", "solver.h_t", "-1", "h_t must be positive, got -1.0"),
        # the traces are exact normal derivatives: the normal step and its order are gone
        ("forward", "solver.h_nu", "0", "line 12: unknown key 'solver.h_nu'"),
        ("forward", "solver.nu_order", "4", "line 12: unknown key 'solver.nu_order'"),
        # the circle means take a fixed rule on each bump's arc: no direction count
        ("forward", "solver.mean_res", "32", "line 12: unknown key 'solver.mean_res'"),
        ("reconstruct", "recon.kernel_table", "10", "profile table needs >= 64 points, got 10"),
        ("reconstruct", "recon.k_radial", "0", "k_radial must be >= 1, got 0"),
        ("reconstruct", "recon.kernel_quad", "0", "kernel_quad must be >= 1, got 0"),
        ("reconstruct", "recon.kernel_margin", "-0.1", "profile margin must be positive, got -0.1"),
        ("reconstruct", "recon.kernel_margin", "0.9", "outside safe window"),
        ("reconstruct", "recon.k_angular", "0", "k_angular must be >= 1, got 0"),
        ("validate", "validate.lemma.k", "3", "implemented for k in (1, 2), got 3"),
        ("validate", "validate.symbolic.k", "-1", "k must be >= 0, got -1"),
        ("validate", "validate.symbolic.n", "1", "requires n >= 2, got n=1"),
        ("validate", "validate.mollifier.mu", "0", "mollifier order must be >= 1, got 0"),
        ("validate", "validate.mollifier.eps", "-1", "mollifier width must be positive, got -1.0"),
        ("validate", "validate.lemma.t", "5", "evaluation time must lie in (0, 2), got 5.0"),
        ("validate", "validate.samples", "0", "validate.samples must be >= 1, got 0"),
    ],
)
def test_rejected_values_exit_2_with_their_message(
    tmp_path, capsys, se4_trace, command, key, value, message
):
    """A value the program rejects, at parse time or in the run, is an input
    error (exit 2, one line on stderr), not a traceback or the exit 1 of a
    check over its bound."""
    keys = {"boundary.resolution": "8", "input.trace": str(se4_trace)}
    if command == "reconstruct":
        keys.update(CORRECTION)
        keys.update({"grid.lo": "-0.1, -0.25", "grid.hi": "0.6, 0.45", "grid.shape": "3, 3"})
    if command == "validate":
        check = key.split(".")[1]
        keys["validate.checks"] = {
            "lemma": "lemma-coefficients", "symbolic": "lemma-symbolic", "samples": "even-equivalence"
        }.get(check, check)
    keys[key] = value
    text = SE4_2D + "".join(f"{k} = {v}\n" for k, v in keys.items())
    out = str(tmp_path / "out.csv")
    assert run_main([command, "--config", config_file(tmp_path, text), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("validate.lemma.t", "5", "evaluation time must lie in (0, 2), got 5.0"),
        ("validate.symbolic.n", "1", "the coefficient table requires n >= 2, got n=1"),
    ],
)
def test_an_out_of_range_check_parameter_stops_validate_before_any_check(
    tmp_path, capsys, key, value, message
):
    """A check parameter outside its fixed range is refused with its line
    when the config is read: no check runs, prints a pass line or writes
    the report."""
    out = tmp_path / "report.csv"
    cfg = config_file(tmp_path, MINIMAL_2D + f"{key} = {value}\n")
    assert run_main(["validate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert captured.err == f"error: line 3: {key}: {message}\n"
    assert not out.exists()


def test_a_short_kernel_table_stops_reconstruct_before_the_trace_is_read(
    tmp_path, capsys, monkeypatch
):
    read = []
    monkeypatch.setattr(cli, "read_trace_file", read.append)
    keys = {**CORRECTION, "recon.kernel_table": "32", "input.trace": str(tmp_path / "t.csv")}
    keys.update({"grid.lo": "-0.1, -0.25", "grid.hi": "0.6, 0.45", "grid.shape": "3, 3"})
    text = SE4_2D + "".join(f"{k} = {v}\n" for k, v in keys.items())
    out = str(tmp_path / "image.csv")
    assert run_main(["reconstruct", "--config", config_file(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err == "error: profile table needs >= 64 points, got 32\n"
    assert read == []


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert run_main(["forward", "--config", missing, "--out", str(tmp_path / "x.csv")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = config_file(tmp_path, "dimension\n")
    assert run_main(["validate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = config_file(tmp_path, MINIMAL_2D + "validate.checks = lemma-symbolic\n")
    out = str(tmp_path / "report.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "neutrace", "validate", "--config", cfg, "--out", out],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
