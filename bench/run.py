"""neutrace benchmark driver.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) closed-loop for about S seconds: each
repetition is a fresh child process (child.py) that runs the whole
pipeline with one thread and BLAS/OpenMP pinned to one thread, and the next
starts only after it has ended.  A few setup-only children add samples of
the start-up time.  Every repetition checks its own outputs, and all
repetitions of a run must write byte-identical files.

With --trace 0 the result line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced repetitions alternate
and it carries the per-layer metrics.  The last line printed is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
when any correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3  # setup-only children per run, for a steadier setup_s median
MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
MIN_TRACED = 2  # traced repetitions per traced run, so call counts can be compared
CHILD_TIMEOUT_S = 120.0

# per-layer metrics that are not <function>.calls / <function>.self_s
SPECIAL_LAYER_METRICS = {
    "forward.write_trace_file.bytes",
    "inversion.correction_iterations",
    "trace.span_coverage",
    "trace.overhead_s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def traced_functions(spec: dict) -> list[str]:
    names = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in SPECIAL_LAYER_METRICS:
            continue
        func, _, kind = name.rpartition(".")
        if kind not in ("calls", "self_s"):
            raise ValueError(f"per-layer metric {name!r} is neither .calls nor .self_s")
        if func not in names:
            names.append(func)
    return names


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workdir: Path, *extra: str) -> dict:
    """Run one child to completion; returns its result plus wall time, or an
    ``error`` entry when it failed."""
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "run.cfg", repr(start), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "wall_s": CHILD_TIMEOUT_S}
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def failures(rep: dict, reference_hashes: dict) -> list[str]:
    if "error" in rep:
        return [rep["error"]]
    bad = [name for name, ok in rep["checks"].items() if not ok]
    if rep["hashes"] != reference_hashes:
        bad.append("outputs differ from the first repetition of this seed")
    return bad


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "neutrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, toy: bool) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "threads": 1,
        "thread_pins": THREAD_PINS,
        "workload": workload,
        "seed": seed,
        "sizes": WORKLOADS[workload].sizes_for(toy),
        "toy": toy,
    }


def median_of(reps: list[dict], key: str) -> tuple[float, list[float]]:
    values = [r[key] for r in reps if key in r]
    return (statistics.median(values) if values else float("nan")), values


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    spec = load_spec()
    names = traced_functions(spec) if trace else []
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (workdir / "run.cfg").write_text(WORKLOADS[name].config(seed, toy))
        start = time.monotonic()
        probes = [spawn(workdir, "--setup-only") for _ in range(SETUP_PROBES)]
        plain: list[dict] = []
        traced: list[dict] = []
        while True:
            tracing = trace and len(traced) < len(plain)
            rep = spawn(workdir, "--trace", json.dumps(names)) if tracing else spawn(workdir)
            (traced if tracing else plain).append(rep)
            done = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_TRACED)
            typical = statistics.median(r["wall_s"] for r in plain + traced)
            if done and time.monotonic() - start + typical > seconds:
                break
        if trace and traced and "spans" in traced[-1]:
            spans_path = ROOT / ".bench_work" / f"{name}-seed{seed}.spans.json"
            spans_path.write_text(json.dumps(traced[-1]["spans"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    reference = reps[0].get("hashes", {})
    calls = [{f: v["calls"] for f, v in r["trace"].items()} for r in traced if "trace" in r]
    calls_repeat = all(c == calls[0] for c in calls)
    problems = []
    failed = 0
    for i, rep in enumerate(reps):
        bad = failures(rep, reference)
        if i >= len(plain) and not calls_repeat:
            bad.append("call counts differ between traced repetitions")
        if bad:
            failed += 1
            problems.append(f"repetition {i}: {'; '.join(bad)}")
    problems += [f"setup probe {i}: {p['error']}" for i, p in enumerate(probes) if "error" in p]

    e2e = {}
    samples = {}
    for metric in spec["end_to_end"]:
        key = metric["name"]
        pool = probes + plain if key == "setup_s" else plain
        value, samples[key] = median_of(pool, key)
        e2e[key] = {"value": value, "unit": metric["unit"]}

    wall = {}
    for key in ("solution_wall_s", "forward_wall_s", "reconstruct_wall_s", "validate_wall_s"):
        value, samples[key] = median_of(plain, key)
        if samples[key]:
            wall[key] = {"value": value, "unit": "s"}

    layers = {}
    if trace:
        for metric in spec["per_layer"]:
            key = metric["name"]
            func, _, kind = key.rpartition(".")
            if key == "forward.write_trace_file.bytes":
                value, samples[key] = median_of(traced, "trace_bytes")
            elif key == "inversion.correction_iterations":
                value, samples[key] = median_of(traced, "correction_iterations")
            elif key == "trace.span_coverage":
                samples[key] = [r["covered_s"] / r["solution_wall_s"] for r in traced if "trace" in r]
                value = statistics.median(samples[key]) if samples[key] else float("nan")
            elif key == "trace.overhead_s":
                value = median_of(traced, "solution_s")[0] - median_of(plain, "solution_s")[0]
                samples[key] = [value]
            else:
                samples[key] = [r["trace"][func][kind] for r in traced if "trace" in r]
                value = statistics.median(samples[key]) if samples[key] else float("nan")
            layers[key] = {"value": value, "unit": metric["unit"]}

    return {
        "environment": environment(name, seed, toy),
        "attempted": len(reps),
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "wall_clock": wall,
        "per_layer": layers,
        "samples": samples,
        "wall_s": time.monotonic() - start,
    }


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable block; return the final result line."""
    env = result["environment"]
    print("# environment " + json.dumps(env, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{env['workload']} seed {env['seed']}: {attempted} runs, {failed} failed, "
        f"error_rate = {failed / attempted:.6g}"
    )
    for problem in result["problems"]:
        print(f"  problem in {problem}")
    shown = dict(result["end_to_end"], **result["wall_clock"], **result["per_layer"])
    for key, metric in shown.items():
        values = result["samples"][key]
        print(
            f"{key} = {metric['value']:.6g} {metric['unit']} "
            f"(median of {len(values)}, min {min(values, default=float('nan')):.6g}, "
            f"max {max(values, default=float('nan')):.6g})"
        )
    return {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result["per_layer"] if trace else result["end_to_end"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--out", help="also write the full result set (environment, samples) as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "neutrace" / "__init__.py").is_file():
        print(f"error: no neutrace sources under {SRC}", file=sys.stderr)
        return 2

    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    ok = True
    for name in names:
        results[name] = run_workload(name, args.seed, seconds, bool(args.trace), args.toy)
        line = report(results[name], bool(args.trace))
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
