"""Exception hierarchy, one class for each thing a caller may do about an error.

``DomainError`` is bad input or an infeasible request (CLI exit code 3), and
``InternalConsistencyError`` a bug: a proved property failing on valid input (exit 4).
Add a class only if a caller catches it or it carries data; raise the nearest otherwise.
"""


class LongShortError(Exception):
    """Base class for all library errors."""


class DomainError(LongShortError):
    """A precondition or domain restriction was violated by the caller."""


class InternalConsistencyError(LongShortError):
    """A proved invariant failed at runtime; indicates a bug, not bad input."""


class InvalidParameterError(DomainError):
    """An argument's value is outside its domain: a count, gain, PMF, price or target."""


class InputFileError(DomainError):
    """An input file (prices or configuration) is missing, unreadable or malformed."""


class OutputFileError(DomainError):
    """An output path cannot be written: empty, a directory, named twice, or refused by the OS."""


class MomentOverflowError(DomainError):
    """A closed-form moment leaves double range: the stage is too long for the gain."""


class TargetTooLargeError(DomainError):
    """Target standard deviation at or above the achievable ceiling ``s_max``."""

    def __init__(self, message: str, s_max: float):
        super().__init__(message)
        self.s_max = s_max


class PortfolioAssetError(DomainError):
    """Error in a per-asset computation, tagged with the asset index."""

    def __init__(self, asset_index: int, message: str):
        super().__init__(f"asset {asset_index}: {message}")
        self.asset_index = asset_index
