"""Exact Schubert calculus on generalized flag manifolds.

CSM and Segre classes of Schubert, opposite-Schubert, and Richardson cells,
the deformed product built from Euler characteristics of open triple
intersections, and exhaustive verification sweeps over small-rank groups.
"""

from .boxproduct import BoxCalculator
from .cohomology import CohomologyClass, FlagCohomology
from .csm import CsmCalculator
from .errors import (
    CacheCorrupt,
    CalibrationFailure,
    CapacityExceeded,
    CsmVerifyError,
    GroupMismatch,
    InternalInvariantError,
    InvalidCartan,
    LemmaViolation,
    MirrorMismatch,
    NotFiniteType,
    ParityViolation,
    PathDisagreement,
    SingularSystem,
    UsageError,
)
from .richardson import Coefficients, RichardsonCalculator
from .rootdata import (
    CartanDatum,
    WeylElement,
    WeylGroup,
)

__version__ = "0.1.0"

__all__ = [
    "BoxCalculator",
    "CartanDatum",
    "Coefficients",
    "CohomologyClass",
    "CsmCalculator",
    "FlagCohomology",
    "RichardsonCalculator",
    "WeylElement",
    "WeylGroup",
    "__version__",
]
