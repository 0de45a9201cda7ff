"""Exception hierarchy shared by all growfrag modules."""


class GrowfragError(Exception):
    """Base class for all growfrag errors."""


class DomainError(GrowfragError):
    """Argument outside the coefficient domain (e.g. x <= 0)."""


class QuadratureDivergence(GrowfragError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class MomentDivergence(GrowfragError):
    """A required moment of the child-size measure is infinite."""


class CriterionViolated(GrowfragError):
    """A closed-form admissibility criterion failed.

    Carries the failing probe value and the (negative) margin.
    """

    def __init__(self, message, probe=None, margin=None):
        super().__init__(message)
        self.probe = probe
        self.margin = margin


class EntranceBoundaryAbsent(GrowfragError):
    """s(0+) diverges, so the entrance-boundary construction is unavailable."""


class UnboundedAbove(GrowfragError):
    """A h(x)/h(x) keeps increasing over the last probe decade; rise is
    its increase across that decade."""

    def __init__(self, message, rise=None):
        super().__init__(message)
        self.rise = rise


class RangeExtensionFailure(GrowfragError):
    """Flow table extension would exceed the configured hard ceiling."""


class MajorantOverflow(GrowfragError):
    """Thinning majorant exceeded 1e12; the model is mis-scaled."""


class RejectionStall(GrowfragError):
    """Child-size rejection sampler acceptance rate fell below 1e-6."""


class ExplosionGuard(GrowfragError):
    """Too many jumps, or the particle left the guarded working domain."""


class Reducible(GrowfragError):
    """Discrete operator sparsity graph is not strongly connected."""


class NoConvergence(GrowfragError):
    """Power iteration did not converge within the iteration cap."""


class BoundViolated(GrowfragError):
    """Spectral bound lambda0 <= lambda2 failed beyond tolerance."""


class RatePositive(GrowfragError):
    """Gap-rate fit found no decay (slope >= 0)."""


class CFLViolation(GrowfragError):
    """Requested time step exceeds the positivity-preserving bound."""


class CFLUnsatisfiable(GrowfragError):
    """The stable time step suggested by the grid is below 1e-12."""


class NegativeMass(GrowfragError):
    """Internal assertion: the scheme produced a negative cell mass."""


class InconsistentEta(GrowfragError):
    """Survival-based eta estimates drift by more than 10% between probes."""


class Extinction(GrowfragError):
    """All Fleming-Viot particles were killed simultaneously."""


class ConfigError(GrowfragError):
    """Malformed run configuration."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
