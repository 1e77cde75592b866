"""Benchmark workloads: neutrace config files generated from a seed.

Each workload is a fixed config plus its sizes plus the phantom bump
centres.  The seed moves every centre by at most ``JITTER`` per coordinate,
which keeps each config well inside ``parse_config``'s invariants (bump
supports inside the domain, grid corners inside the correction's safety
region).  The program only ever sees the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.0005


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: str  # config lines that neither the seed nor the size changes
    centres: dict  # "<phantom>.bump<N>" -> centre before jitter
    sizes: dict  # benchmark sizes, as config keys and values
    toy_sizes: dict  # overrides of ``sizes`` for the smoke test

    def sizes_for(self, toy: bool) -> dict:
        return {**self.sizes, **self.toy_sizes} if toy else dict(self.sizes)

    def config(self, seed: int, toy: bool = False) -> str:
        rng = random.Random(f"{self.name}/{seed}")
        lines = [self.fixed.strip()]
        for key, centre in self.centres.items():
            moved = [c + rng.uniform(-JITTER, JITTER) for c in centre]
            lines.append(f"{key}.center = " + ", ".join("%.6f" % c for c in moved))
        for key, value in self.sizes_for(toy).items():
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # the README 3-D ball round trip, then `neutrace validate` with the
        # phantoms of acceptance criterion 05 (f is the round trip's bump)
        Workload(
            name="ball3d",
            fixed="""
dimension = 3
domain.semi_axes = 1.0, 1.0, 1.0
phantom.bump1.radius = 0.35
phantom2.bump1.radius = 0.4
time.t_max = 3.0
grid.lo = -0.5, -0.5, 0.0
grid.hi = 0.5, 0.5, 0.0
validate.level = 0
output.trace = run.trace
output.image = run.csv
output.report = report.csv
""",
            centres={"phantom.bump1": (0.1, 0.0, 0.0), "phantom2.bump1": (-0.05, 0.1, 0.0)},
            sizes={"boundary.resolution": 16, "time.nt": 300, "grid.shape": "15, 15, 1"},
            toy_sizes={"boundary.resolution": 16, "time.nt": 300, "grid.shape": "3, 3, 1"},
        ),
        Workload(
            name="ellipse2d",
            fixed="""
dimension = 2
domain.semi_axes = 1.5, 1.0
phantom.bump1.radius = 0.3
time.t_max_factor = 4.0
grid.lo = -0.3, -0.6
grid.hi = 0.7, 0.4
output.trace = run.trace
output.image = run.csv
output.pgm = run.pgm
""",
            centres={"phantom.bump1": (0.2, -0.1)},
            sizes={"boundary.resolution": 64, "time.nt": 400, "grid.shape": "11, 11"},
            toy_sizes={"boundary.resolution": 48, "time.nt": 300, "grid.shape": "3, 3"},
        ),
        Workload(
            name="superellipse_corr",
            fixed="""
dimension = 2
domain.kind = superellipse
domain.exponent = 4.0
domain.semi_axes = 1.2, 0.9
phantom.bump1.radius = 0.3
time.t_max_factor = 4.0
grid.lo = -0.1, -0.25
grid.hi = 0.6, 0.45
recon.correction = fixed_point
output.trace = run.trace
output.image = run.csv
""",
            centres={"phantom.bump1": (0.25, 0.1)},
            sizes={
                "boundary.resolution": 64,
                "time.nt": 400,
                "grid.shape": "7, 7",
                "recon.k_radial": 16,
                "recon.k_angular": 32,
                "recon.kernel_table": 256,
                "recon.kernel_quad": 128,
            },
            toy_sizes={
                "boundary.resolution": 64,
                "time.nt": 300,
                "grid.shape": "3, 3",
                "recon.k_radial": 8,
                "recon.k_angular": 8,
                "recon.kernel_table": 64,
                "recon.kernel_quad": 32,
            },
        ),
    )
}
