"""Exception hierarchy.

Two branches matter to callers: ``DomainError`` for violated preconditions or
infeasible requests (CLI exit code 3), and ``InternalConsistencyError`` for
violations of properties that are mathematically guaranteed for valid inputs,
i.e. bugs (CLI exit code 4).
"""


class LongShortError(Exception):
    """Base class for all library errors."""


class DomainError(LongShortError):
    """A precondition or domain restriction was violated by the caller."""


class InternalConsistencyError(LongShortError):
    """A proved invariant failed at runtime; indicates a bug, not bad input."""


class InvalidParameterError(DomainError):
    """Generic out-of-domain parameter (alpha, v0, stage, mu, sigma2...)."""


# --- input and output files ---

class InputFileError(DomainError):
    """An input file (prices or configuration) is missing, unreadable or malformed."""


class OutputFileError(DomainError):
    """An output path cannot be written: empty, a directory, named twice, or refused by the OS."""


class ConfigKeyError(DomainError):
    """A configuration file lacks a required key or gives it the wrong type."""


# --- price and return ingestion ---

class NonPositivePriceError(DomainError):
    """A price was zero or negative."""


class TooShortError(DomainError):
    """Fewer than two prices; no return can be computed."""


class MissingColumnError(DomainError):
    """Requested CSV column is absent from the header."""


class PriceParseError(DomainError):
    """A CSV cell could not be parsed; message reports row and column."""


class EmptyReturnsError(DomainError):
    """No returns supplied where at least one is required."""


class ReturnBelowNegOneError(DomainError):
    """A return of -1 or below (total loss or worse) is outside the model."""


class InvalidBoundsError(DomainError):
    """Support bounds must satisfy -1 < x_min < 0 < x_max < inf."""


class InvalidPmfError(DomainError):
    """PMF atoms violate the canonical-form invariants."""


# --- controller and simulation ---

class InadmissibleGainError(DomainError):
    """Feedback gain outside the admissible interval [0, k_max]."""


class ReturnOutOfBoundsError(DomainError):
    """A path return would break survivability for the configured gain."""


class SimulationOverflowError(DomainError):
    """Account value overflowed double precision; path too long or extreme."""


class MomentOverflowError(DomainError):
    """A closed-form moment leaves double range: the stage is too long for the gain."""


class StageTooSmallError(DomainError):
    """Stage index below the minimum required by the operation."""


# --- gain selection ---

class TargetNonpositiveError(DomainError):
    """Target standard deviation must be strictly positive."""


class TargetTooLargeError(DomainError):
    """Target standard deviation at or above the achievable ceiling s_max."""

    def __init__(self, message: str, s_max: float):
        super().__init__(message)
        self.s_max = s_max


class ZeroDriftError(DomainError):
    """Mean return is zero: expected gain is identically zero at alpha=1/2."""


class ZeroVolatilityError(DomainError):
    """Return variance is zero: the std constraint is degenerate."""


class NonMonotoneEstimateError(DomainError):
    """Monte-Carlo noise broke the bisection bracket; raise n_paths."""


# --- enumeration and portfolio ---

class EnumerationTooLargeError(DomainError):
    """Exact enumeration would exceed the sequence-count cap."""


class LengthMismatchError(DomainError):
    """Per-asset return paths must all have the same length."""


class PortfolioAssetError(DomainError):
    """Error in a per-asset computation, tagged with the asset index."""

    def __init__(self, asset_index: int, message: str):
        super().__init__(f"asset {asset_index}: {message}")
        self.asset_index = asset_index
