"""Boundary-integral solver for 2D acoustic scattering by a rough surface
below a two-layered medium interface."""

from .bie import BoundaryProblem, cutoff_chi
from .errors import (AccuracyError, ConfigError, DomainError, LayerScatError,
                     SingularityError, SolverError)
from .green import (MediumPair, fresnel_R, green, reference_field_plane,
                    transmitted_direction)
from .nystrom import DensitySolution, Grid, assemble, log_weight, solve
from .potentials import FourWaveSolution, eval_scattered, four_wave_exact
from .specfun import hankel1, vertical_wavenumber
from .surface import builtin

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BoundaryProblem", "ConfigError", "DensitySolution",
    "DomainError", "FourWaveSolution", "Grid", "LayerScatError", "MediumPair",
    "SingularityError", "SolverError", "assemble",
    "builtin", "cutoff_chi", "eval_scattered",
    "four_wave_exact", "fresnel_R", "green", "hankel1", "log_weight",
    "reference_field_plane", "solve", "transmitted_direction",
    "vertical_wavenumber",
]
