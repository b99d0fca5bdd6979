"""Exception types shared across the package.

Every refusal the package raises is one of these classes.  A node, time,
size or draw limit that stops work on a valid request raises
:class:`Inconclusive`; every other class is a definite refusal: bad input,
an unmet precondition or a failed certificate check.  Only ``cli.main``
catches them, and exits 2 for :class:`Inconclusive` and 1 for the rest.
"""


class EotileError(Exception):
    """Base class for all library errors."""


class BadVertex(EotileError):
    """An edge endpoint is outside the vertex range, or a loop was given."""


class DuplicateEdge(EotileError):
    """The same vertex pair appears twice in an edge list."""


class RankCollision(EotileError):
    """Two edges carry the same rank label."""


class BadSize(EotileError):
    """A generator was asked for a size it cannot produce."""


class NotComplete(EotileError):
    """An operation that requires a complete host got a non-complete graph."""


class MissingEdge(EotileError):
    """A required edge is absent from the graph."""


class NotTuranable(EotileError):
    """The operation is only defined for Turanable graphs."""


class BadAnchor(EotileError):
    """A pendant-extension precondition is violated."""


class BadSpec(EotileError):
    """A malformed or out-of-range specification: family descriptor,
    experiment parameter, search or tiler setting."""


class BadDivisibility(EotileError):
    """A tiling was requested where piece size does not divide host size."""


class BadSplit(EotileError):
    """No extremal split with the required indivisibility exists."""


class ParseError(EotileError):
    """A serialized document violates the expected schema."""


class CertificateError(EotileError):
    """A certificate produced by a search failed its independent re-check.

    This signals an internal error, never a negative answer.
    """


class Inconclusive(EotileError):
    """A node, time, size or draw limit stopped the search before the
    question was decided: a :class:`SearchBudget` ran out, an enumeration
    or coloring cap refused the instance before any work, or the
    ``theorem1-grid`` host sampler drew no host of the minimum degree in
    its ``MAX_SAMPLING_DRAWS`` draws.

    Deliberately distinct from a negative answer: callers must never treat
    a timeout as a proof of absence.
    """
