"""Fractional Laplacian matrices on chains and cubic lattices.

Every physical quantity in this package is computable by at least two
independent routes, and the built in verification suites (`fraclat verify`)
cross check them at stated tolerances.

Modules
-------
special    reusable numerics: Hurwitz zeta, scaled Bessel I, panel quadrature
chain      1D infinite and periodic coupling profiles, matrices, dispersion
lattice    nD periodic and infinite elements, far field constants, surfaces
continuum  Riesz kernels on the line and the circle, continuum convergence
output     deterministic tabular records (CSV and JSON, 17 digit reals)
verify     named cross route check suites
cli        command line front end (`fraclat`)
"""

__version__ = "1.0.0"

from .chain import (
    ChainSpec,
    CirculantMatrix,
    FractionalOrder,
    build_laplacian_1d,
    dispersion_1d,
    element_asymptotic,
    element_infinite_closed,
    element_infinite_quadrature,
    element_periodic_bloch,
    element_periodic_images,
    laplacian_eigenvalues_1d,
    normalized_dispersion_1d,
)
from .continuum import (
    ConvergenceReport,
    continuum_convergence_check,
    riesz_amplitude,
    riesz_kernel_infinite,
    riesz_kernel_periodic,
)
from .lattice import (
    LatticeSpec,
    OffsetVector,
    SizeLimitError,
    asymptotic_constant_nd,
    build_laplacian_nd,
    dispersion_surface,
    eigenvalue_nd,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
    normalized_dispersion_2d,
)
from .output import OutputRecord, parse_csv, parse_json, record_to_csv, record_to_json
from .special import ToleranceError
from .verify import CheckResult, run_suite

__all__ = [
    "__version__",
    "ChainSpec",
    "CirculantMatrix",
    "FractionalOrder",
    "build_laplacian_1d",
    "dispersion_1d",
    "element_asymptotic",
    "element_infinite_closed",
    "element_infinite_quadrature",
    "element_periodic_bloch",
    "element_periodic_images",
    "laplacian_eigenvalues_1d",
    "normalized_dispersion_1d",
    "ConvergenceReport",
    "continuum_convergence_check",
    "riesz_amplitude",
    "riesz_kernel_infinite",
    "riesz_kernel_periodic",
    "LatticeSpec",
    "OffsetVector",
    "SizeLimitError",
    "asymptotic_constant_nd",
    "build_laplacian_nd",
    "dispersion_surface",
    "eigenvalue_nd",
    "element_infinite_nd_bessel",
    "element_infinite_nd_bz",
    "element_periodic_nd",
    "normalized_dispersion_2d",
    "OutputRecord",
    "parse_csv",
    "parse_json",
    "record_to_csv",
    "record_to_json",
    "ToleranceError",
    "CheckResult",
    "run_suite",
]
