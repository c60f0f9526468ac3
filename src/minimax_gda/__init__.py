"""Two-time-scale GDA/SGDA/EG dynamics on quadratic minimax problems, with
spectral certification of the convergence threshold, linear rate, noise
floor and regularization behavior.

The package namespace carries the names of the README's quick-start; every
other name lives in its module (``minimax_gda.dynamics``, ``.problems``,
``.spectral``, ``.harness``, ``.verify``, ``.linalg``)."""

from .dynamics import Algorithm, SolverConfig, default_stepsizes, run
from .problems import derive_constants, sample_instance
from .spectral import spectral_report

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "SolverConfig",
    "default_stepsizes",
    "derive_constants",
    "run",
    "sample_instance",
    "spectral_report",
]
