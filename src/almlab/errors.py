"""Exception types shared across the package."""


class AlmlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(AlmlabError, ValueError):
    """A vector or matrix does not have the expected shape."""


class ProblemFormatError(AlmlabError, ValueError):
    """A problem file is malformed; ``field`` names the offending entry."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"field '{field}': {message}")


class InconsistentSpecError(AlmlabError, ValueError):
    """Generator spec dimensions are inconsistent with the requested family."""


class MaxInnerIterationsError(AlmlabError, RuntimeError):
    """The subproblem stopping criterion was not met within the iteration cap."""


class NonFiniteError(AlmlabError, FloatingPointError):
    """A non-finite value appeared during a subproblem solve."""


class InfeasibleError(AlmlabError):
    """The feasible set is empty: a search over {Ax = b, Gx <= d} found rows
    that cannot hold together, or no active set yields a feasible
    KKT-consistent point."""


class UnboundedError(AlmlabError):
    """The objective is unbounded below over the feasible set: the oracle
    found a feasible descent ray, a direction d with Qd = 0, q'd < 0,
    Ad = 0 and Gd <= 0, in a program whose feasible set is not empty."""


class EnumerationLimitError(AlmlabError):
    """An oracle face search hit its cap: more than 20 inequality rows for
    the 2^m2 enumeration (Q PSD but not positive definite, raised only
    after the program is found feasible and bounded), or more than
    10 (m2 + 1) face solves for a dual active-set search."""


class NoValidSamplesError(AlmlabError):
    """No iterate had a residual large enough to estimate the error-bound modulus."""


class InsufficientIterationsError(AlmlabError):
    """Fewer than four valid contraction ratios are available."""


class OracleMismatchError(AlmlabError):
    """A run trace and an oracle solution come from different problems."""


class NotAvailableError(AlmlabError):
    """The requested data was not recorded for this problem instance."""
