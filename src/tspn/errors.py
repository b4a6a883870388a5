"""Exception hierarchy shared by all tspn modules, and the cut on echoed values."""

import json

ECHO_CHARS = 500  # the most characters of an offending value an error message echoes


def _echo(v, show=json.dumps) -> str:
    """``show(v)``, cut to its first ``ECHO_CHARS`` characters and ``…`` when longer."""
    text = show(v)
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "…"


class TspnError(Exception):
    """Base class for all contract violations raised by this package."""


class InvalidRegionError(TspnError):
    """A region's fields violate its shape invariants."""


class ContractError(TspnError):
    """An operation was called with inputs outside its stated contract."""


class SizeLimitError(ContractError):
    """Instance exceeds a hard size guard (e.g. the exact-solver cap)."""


class DegenerateDetectionError(TspnError):
    """An online detection oracle never fired before the center was reached."""


class InsufficientCoverageError(TspnError):
    """Too few view samples survive thresholding to form a closed region."""


class CapacityError(TspnError):
    """Scene generation could not place the requested number of objects."""

    def __init__(self, message: str, placed: int):
        super().__init__(message)
        self.placed = placed
