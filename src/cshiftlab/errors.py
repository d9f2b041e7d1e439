"""Exception types shared across the package."""


class CShiftError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(CShiftError, ValueError):
    """A constructor argument lies outside its legal domain."""


class SymbolDomainError(CShiftError, ValueError):
    """Problem data violates the symbol hypotheses (p' > 0, |arg(1+F)| < pi).

    Carries the offending node in ``node``.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class BranchError(CShiftError, ValueError):
    """Evaluation hit a logarithmic branch point or a branch cut."""


class PoleError(CShiftError, ValueError):
    """A kernel was evaluated too close to one of its poles."""


class BoundaryLimitError(CShiftError, RuntimeError):
    """The one-sided limit extrapolation did not converge."""


class AccuracyError(CShiftError, RuntimeError):
    """An evaluation cannot meet its accuracy budget.

    Carries the estimated error in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NearSingularityError(CShiftError, RuntimeError):
    """A second-kind system is numerically singular (det close to 0).

    Carries the condition-number estimate in ``cond``.
    """

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class AssemblyError(CShiftError, ValueError):
    """A kernel could not be discretized on the requested support."""


class GridMismatchError(CShiftError, ValueError):
    """Two half-line objects live on different grids."""


class ExcludedCaseError(CShiftError, RuntimeError):
    """A Fredholm determinant that must not vanish is (numerically) zero."""


class ResolutionError(CShiftError, RuntimeError):
    """The node budget cannot resolve the requested oscillation."""
