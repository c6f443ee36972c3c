"""Exception hierarchy shared by the whole package."""


class ValsatError(Exception):
    """Base class for all errors raised by valsat."""


class NotPrime(ValsatError):
    """A domain parameter that must be prime is not."""


class NotInDomain(ValsatError):
    """The given fraction has negative valuation, so it lies outside V."""


class NotDivisible(ValsatError):
    """Exact division was requested but the quotient is not in V."""


class AllZero(ValsatError):
    """Content of a coefficient list was requested but every entry is zero."""


class NotPrimitive(ValsatError):
    """A pivot was requested for a vector with no unit coordinate."""


class ZeroVector(ValsatError):
    """The operation is undefined on the zero vector."""


class EmptyFamily(ValsatError):
    """A nonempty family of vectors was expected."""


class MixedFamily(ValsatError):
    """A family of vectors mixes domains or widths."""


class EmptyInput(ValsatError):
    """No nonzero generators were supplied."""


class IterationCapExceeded(ValsatError):
    """The saturation loop hit the iteration cap before the defect vanished."""


class InvalidIterationCap(ValsatError, ValueError):
    """A saturation round cap below 1 was requested."""


class DegreeExceeded(ValsatError):
    """An input vector does not fit in the requested degree slice."""


class ParseError(ValsatError):
    """A textual instance or vector could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
