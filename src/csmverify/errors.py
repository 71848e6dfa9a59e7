"""Exception types shared across the package.

Violations of proved identities (theorem-level facts and internal
consistency checks) derive from ``InternalInvariantError``: they indicate an
implementation bug and map to exit code 2 in the CLI.  Conjecture violations
are never exceptions; the verification sweeps report them as findings with
full witnesses.
"""


class CsmVerifyError(Exception):
    """Base class for all package errors."""


class UsageError(CsmVerifyError):
    """Invalid user input (CLI exit code 3)."""


class InvalidCartan(CsmVerifyError):
    """Cartan datum failed validation."""


class NotFiniteType(CsmVerifyError):
    """Root-system closure exceeded the finite-type bound."""


class CapacityExceeded(CsmVerifyError):
    """Weyl group order exceeds the configured enumeration cap."""


class GroupMismatch(CsmVerifyError):
    """Operands belong to different Weyl groups."""


class CacheCorrupt(CsmVerifyError):
    """An on-disk table file is not a JSON envelope or fails its checksum."""


class InternalInvariantError(CsmVerifyError):
    """A proved identity failed: implementation bug (CLI exit code 2)."""


class CalibrationFailure(InternalInvariantError):
    """A CSM cell class failed its positivity, support or normalization invariants."""


class MirrorMismatch(InternalInvariantError):
    """The two product expressions for a Richardson class disagree."""


class ParityViolation(InternalInvariantError):
    """Parity of Richardson coefficients (a proved statement) failed."""


class LemmaViolation(InternalInvariantError):
    """Sign condition of the twisted Segre expansion (proved) failed."""


class SingularSystem(InternalInvariantError):
    """Unitriangular change of basis could not be solved."""


class PathDisagreement(InternalInvariantError):
    """Independent Euler-characteristic formulas disagree."""
