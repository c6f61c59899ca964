"""Exception hierarchy. Every error carries a stable machine-readable code."""


class ConetipError(Exception):
    """Base class; ``code`` is a stable kebab-case identifier."""

    code = "conetip-error"

    def __init__(self, message=""):
        super().__init__(f"[{self.code}] {message}" if message else f"[{self.code}]")


class CriticalContrastExcluded(ConetipError):
    code = "critical-contrast-excluded"


class InvalidGeometry(ConetipError):
    code = "invalid-geometry"


class DimensionMismatch(ConetipError):
    code = "dimension-mismatch"


class NearQuarterDegenerate(ConetipError):
    code = "near-quarter-degenerate"


class FluxLimitNonexistent(ConetipError):
    code = "flux-limit-nonexistent"


class OddDimensionInternalError(ConetipError):
    code = "odd-dimension-internal-error"


class SignatureMismatch(ConetipError):
    code = "signature-mismatch"


class SeriesDomain(ConetipError):
    code = "series-domain"


class SeriesNonconvergent(ConetipError):
    code = "series-nonconvergent"


class TrajectoryLost(ConetipError):
    code = "trajectory-lost"


class PerturbationDegenerate(ConetipError):
    code = "perturbation-degenerate"


class NoTransitionFound(ConetipError):
    code = "no-transition-found"


class ConfigError(ConetipError):
    code = "config-error"
