"""Exception taxonomy for the graywyner package.

Domain errors never surface as bare ValueError/KeyError from public
operations; callers can catch :class:`GrayWynerError` to handle any
contract violation uniformly.
"""


class GrayWynerError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPmfError(GrayWynerError):
    """A joint distribution violates one of its invariants."""


class NegativeMassError(InvalidPmfError):
    """A probability entry is below zero."""


class NotNormalizedError(InvalidPmfError):
    """Probabilities do not sum to one within tolerance."""


class ShapeMismatchError(InvalidPmfError):
    """Tensor or channel dimensions do not match the declared layout."""


class EmptySelectionError(GrayWynerError):
    """A variable subset that must be non-empty is empty."""


class ZeroProbabilityEventError(GrayWynerError):
    """Conditioning on an event of probability zero."""


class ParseError(GrayWynerError):
    """A document could not be parsed; message carries line/field context."""


class OverlappingSelectionsError(GrayWynerError):
    """Variable subsets that must be disjoint overlap."""


class MissingAuxAxisError(GrayWynerError):
    """Operation requires a joint law that includes the auxiliary axis."""


class NegativeMeasureError(GrayWynerError):
    """An information measure came out below -tolerance; internal bug."""


class KTooSmallError(GrayWynerError):
    """Operation requires at least two (or three) source variables."""


class SupportTooLargeError(GrayWynerError):
    """Support exceeds the enumeration bound of the brute-force oracle."""


class WitnessInfeasibleError(GrayWynerError):
    """A certified witness failed re-verification; signals a bug."""


class CodebookTooLargeError(GrayWynerError):
    """Requested code size exceeds the desk-scale guard."""


class EnumerationTooLargeError(GrayWynerError):
    """Exact enumeration would exceed the configured block-count guard."""


class ChannelTooLargeError(GrayWynerError):
    """The Wyner estimator's channels would exceed its byte guard."""
