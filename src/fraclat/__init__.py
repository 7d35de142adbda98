"""Fractional Laplacian matrices on chains and cubic lattices.

Every physical quantity in this package is computable by at least two
independent routes, and the built in verification suites (`fraclat verify`)
cross check them at stated tolerances.

`import fraclat` is lazy (PEP 562): it loads no module of its own and no
numpy, and each name below imports its module on first use.  Importing
`fraclat.cli` loads them all.

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
import importlib

__version__ = "1.0.0"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("ChainSpec", "CirculantMatrix", "FractionalOrder", "build_laplacian_1d",
                     "dispersion_1d", "element_asymptotic", "element_infinite_closed",
                     "element_infinite_quadrature", "element_periodic_bloch",
                     "element_periodic_images", "laplacian_eigenvalues_1d",
                     "normalized_dispersion_1d"), "chain"),
    **dict.fromkeys(("ConvergenceReport", "continuum_convergence_check", "riesz_amplitude",
                     "riesz_kernel_infinite", "riesz_kernel_periodic"), "continuum"),
    **dict.fromkeys(("LatticeSpec", "OffsetVector", "SizeLimitError", "asymptotic_constant_nd",
                     "build_laplacian_nd", "dispersion_sheet", "dispersion_surface",
                     "eigenvalue_nd", "element_infinite_nd_bessel", "element_infinite_nd_bz",
                     "element_periodic_nd", "normalized_dispersion_2d"), "lattice"),
    **dict.fromkeys(("OutputRecord", "parse_csv", "parse_json", "record_to_csv",
                     "record_to_json"), "output"),
    "ToleranceError": "special",
    **dict.fromkeys(("CheckResult", "run_suite"), "verify"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
