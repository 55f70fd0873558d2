"""Exception types shared across the package."""


class RegretlabError(Exception):
    """Base class for all regretlab errors."""


class UnknownInstance(RegretlabError):
    """An instance is not a point of the hypothesis class domain."""


class IndexOutOfRange(RegretlabError):
    """A hypothesis index falls outside [0, d)."""


class EmptyVersionSpace(RegretlabError):
    """An operation requires at least one surviving hypothesis."""


class WrongPhase(RegretlabError):
    """A version-space prediction step ran with an empty version space."""


class FactorialCapExceeded(RegretlabError):
    """Exhaustive permutation enumeration was requested above the cap."""


class LdimCapExceeded(RegretlabError):
    """An Ldim search would hold more member sets than its memo cap."""


class UnsupportedFormat(RegretlabError):
    """An unknown report output format was requested."""
