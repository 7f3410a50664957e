"""Twin-prime separation statistics.

Sieve primes and twin pairs, histogram the singleton separations between
neighbouring twins, solve the geometric separation model, fit its
empirical laws, and predict the maximal expected separation under a risk
factor.
"""

from .errors import (
    ConvergenceError,
    NumericalError,
    TwinsepError,
    ValidationError,
)
from .fit import FitResult, fit_exp_slope, fit_m0, fit_s0_linear, fit_s0_loglog
from .model import (
    ModelParams,
    SolverInput,
    cutoff_law,
    eval_pmf,
    solve_approx,
    solve_checkpoint,
    solve_exact,
    solve_f0,
)
from .montecarlo import GofReport, SimConfig, gof_compare, sample_separations
from .pipeline import (
    CountTable,
    FigureSet,
    figure_pipeline,
    ingest_counts,
    per_checkpoint_spectra,
    table_from_report,
    write_counts,
)
from .sieve import (
    CountRecord,
    SieveConfig,
    SieveReport,
    geometric_checkpoints,
    read_separations,
    sieve_range,
    write_separations,
)
from .spectrum import (
    S0Convention,
    S0Estimate,
    SeparationSpectrum,
    accumulate,
    merge,
    read_spectrum_csv,
    s0_from_counts,
    write_spectrum_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CountRecord",
    "CountTable",
    "FigureSet",
    "FitResult",
    "GofReport",
    "ModelParams",
    "NumericalError",
    "S0Convention",
    "S0Estimate",
    "SeparationSpectrum",
    "SieveConfig",
    "SieveReport",
    "SimConfig",
    "SolverInput",
    "TwinsepError",
    "ValidationError",
    "accumulate",
    "cutoff_law",
    "eval_pmf",
    "figure_pipeline",
    "fit_exp_slope",
    "fit_m0",
    "fit_s0_linear",
    "fit_s0_loglog",
    "geometric_checkpoints",
    "gof_compare",
    "ingest_counts",
    "merge",
    "per_checkpoint_spectra",
    "read_separations",
    "read_spectrum_csv",
    "s0_from_counts",
    "sample_separations",
    "sieve_range",
    "solve_approx",
    "solve_checkpoint",
    "solve_exact",
    "solve_f0",
    "table_from_report",
    "write_counts",
    "write_separations",
    "write_spectrum_csv",
]
