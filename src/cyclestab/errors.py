"""Exception types shared across the package."""


class CycleStabError(Exception):
    """Base class for all library errors."""


class GraphFormatError(CycleStabError):
    """Malformed graph or coloring text input."""


class ParameterError(CycleStabError):
    """Arguments outside an operation's documented domain."""


class HypothesisViolatedError(CycleStabError):
    """A gated degree or density hypothesis does not hold."""


class NoSuchPathError(CycleStabError):
    """Requested path does not exist (only possible with a violated hypothesis)."""

    def __init__(self, message: str, hypothesis_ok: bool = False):
        super().__init__(message)
        self.hypothesis_ok = hypothesis_ok


class PreconditionError(CycleStabError):
    """An exactly-checked precondition failed; ``which`` names it."""

    def __init__(self, which: str, message: str = ""):
        super().__init__(message or which)
        self.which = which


class HypothesisUnsatisfiableError(CycleStabError):
    """A coloring hypothesis cannot hold; carries the monochromatic witness."""

    def __init__(self, message: str, color: str, witness: tuple):
        super().__init__(message)
        self.color = color
        self.witness = witness


class MonoCycleNotFoundError(CycleStabError):
    """No monochromatic cycle found where none is guaranteed."""


class InternalContradictionError(CycleStabError):
    """A guaranteed object is missing: a library bug or a genuine counterexample."""


class MalformedCertificateError(CycleStabError):
    """Certificate payload does not match its declared shape."""


class SweepSpaceError(CycleStabError):
    """Exhaustive sweep space, or its list of cycle masks, too large
    without an explicit override."""


class SearchTimeout(CycleStabError):
    """An exact search exceeded its deadline."""
