"""Exception types shared across the package."""


class MultibetaError(Exception):
    """Base class for all package errors."""


class ParallelOrDegenerate(MultibetaError):
    """Hyperplane system has (near-)singular normal matrix."""


class DegenerateSimplex(MultibetaError):
    """Simplex construction failed a transversality or volume check."""


class RankDeficient(MultibetaError):
    """Affine design matrix does not span; no unique fit."""


class NonConvergence(MultibetaError):
    """Iterative fit oscillated past its iteration budget."""


class EmptyIntersection(MultibetaError):
    """Requested plane or line does not meet the box."""


class DegenerateBox(MultibetaError):
    """Box too thin/empty for the requested coefficient."""


class OutOfDomain(MultibetaError):
    """Evaluation point outside a grid field's lattice hull."""


class BoundViolation(MultibetaError):
    """A computed quantity broke a bound that holds in exact arithmetic."""


class ConfigError(MultibetaError):
    """Run configuration failed validation."""


class BudgetExhausted(MultibetaError):
    """Randomized plane search ran out of draws.

    Carries the best selection found so far in ``selection``.
    """

    def __init__(self, message, selection=None):
        super().__init__(message)
        self.selection = selection
