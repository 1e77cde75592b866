"""Recovery of wave-equation initial data from Neumann boundary traces.

The package simulates the normal derivative of a free-space wave field on
the boundary of a convex domain (ellipsoids in two or three dimensions,
superellipses in two) and inverts it by filtered back-projection, which
is exact on ellipsoids and carries an explicit integral correction term
elsewhere.  A validation module certifies the identities the inversion
rests on, and a small CLI wraps simulation, reconstruction, checks and
kernel dumps behind reproducible config files.
"""

from .calculus import (
    QuadRule,
    coeff_c,
    dimension_constants,
    gauss_legendre,
    unit_ball_volume,
)
from .forward import (
    ConfigurationError,
    InsufficientDataError,
    SolverParams,
    TimeGrid,
    TraceFormatError,
    TraceGrid,
    huygens_horizon,
    read_trace_file,
    simulate_traces,
    support_margin,
    wave_solution,
    wave_solution_even_alt,
    write_trace_file,
)
from .geometry import (
    BoundaryQuadrature,
    ConvexDomain,
    boundary_distance,
    boundary_quadrature,
    contains,
    domain_diameter,
    ellipsoid,
    outward_normal,
    superellipse,
    support_halfwidth,
)
from .inversion import (
    ImageGrid,
    ReconstructionOptions,
    backproject_even,
    backproject_odd,
    correction_K,
    reconstruct,
    truncation_probe,
    write_image_csv,
    write_image_pgm,
)
from .transforms import (
    Bump,
    KernelProfile,
    OutOfRegionError,
    Phantom,
    build_kernel_profile,
    mollifier_eval,
    mollifier_radon,
)
from .validation import (
    IdentityReport,
    check_even_equivalence,
    check_integral_identity,
    check_lemma_coefficients,
    check_lemma_symbolic,
    check_mollifier,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "ConvexDomain",
    "BoundaryQuadrature",
    "ellipsoid",
    "superellipse",
    "contains",
    "outward_normal",
    "boundary_quadrature",
    "boundary_distance",
    "support_halfwidth",
    "domain_diameter",
    # calculus
    "QuadRule",
    "gauss_legendre",
    "unit_ball_volume",
    "dimension_constants",
    "coeff_c",
    # transforms
    "Bump",
    "Phantom",
    "KernelProfile",
    "OutOfRegionError",
    "mollifier_eval",
    "mollifier_radon",
    "build_kernel_profile",
    # forward
    "TimeGrid",
    "SolverParams",
    "TraceGrid",
    "ConfigurationError",
    "TraceFormatError",
    "InsufficientDataError",
    "wave_solution",
    "wave_solution_even_alt",
    "simulate_traces",
    "support_margin",
    "huygens_horizon",
    "write_trace_file",
    "read_trace_file",
    # inversion
    "ImageGrid",
    "ReconstructionOptions",
    "backproject_odd",
    "backproject_even",
    "truncation_probe",
    "correction_K",
    "reconstruct",
    "write_image_csv",
    "write_image_pgm",
    # validation
    "IdentityReport",
    "check_integral_identity",
    "check_lemma_coefficients",
    "check_lemma_symbolic",
    "check_even_equivalence",
    "check_mollifier",
]
