"""Exception types shared across the package."""


class IntervalMCError(Exception):
    """Base class for every error raised by this package."""


class ParseError(IntervalMCError):
    """Malformed model, formula, or instance text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line})" if column is None else f" (line {line}, col {column})"
        elif column is not None:
            where = f" (col {column})"
        super().__init__(message + where)


class UnknownModality(ParseError):
    """Modality letter outside the supported alphabet."""


class OutOfRangeLiteral(ParseError):
    """DIMACS literal whose variable index exceeds the declared count."""


class ValidationError(IntervalMCError):
    """A structurally well-formed model violates a structure invariant.

    `reason` is one of: NotLeftTotal, UnknownState, UnknownProposition,
    MissingInit, DuplicateState, NotATrack (a state sequence given as a
    track of a structure has fewer than two states or a step that is not
    an edge). `subject` names the offending state or proposition when
    there is one.
    """

    def __init__(self, reason, subject=None, message=None):
        self.reason = reason
        self.subject = subject
        text = message or reason
        if subject is not None:
            text = f"{text}: {subject}"
        super().__init__(text)


class NotWitnessed(IntervalMCError):
    """Descriptor element realized by no track of the structure."""


class NotInFragment(IntervalMCError):
    """Formula outside the fragment an engine can decide."""


class NotPropositional(IntervalMCError):
    """Modal formula passed where a Boolean combination was required."""


class BoundTooSmall(IntervalMCError):
    """Track longer than the bound of a bounded evaluation."""


class NonPrenex(IntervalMCError):
    """Quantifier structure that is not a valid prenex prefix."""


class TooManyVariables(IntervalMCError):
    """Instance too large for the brute-force truth oracles."""
