"""Exception types shared across the package."""


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
    """A family descriptor or experiment spec cannot be parsed."""


class SamplingFailed(BadSpec):
    """A seeded generator found no input meeting the spec's constraints."""


class BadDivisibility(EotileError):
    """A tiling was requested where piece size does not divide host size."""


class BadSplit(EotileError):
    """No extremal split with the required indivisibility exists."""


class UnknownExperiment(EotileError):
    """The experiment name is not one of the registered experiments."""


class ParseError(EotileError):
    """A serialized document violates the expected schema."""


class CertificateError(EotileError):
    """A certificate produced by a search failed its independent re-check.

    This signals an internal error, never a negative answer.
    """


class Inconclusive(EotileError):
    """A node, time or size limit stopped the search before the question was
    decided: a :class:`SearchBudget` ran out, or an enumeration or coloring
    cap refused the instance before any work.

    Deliberately distinct from a negative answer: callers must never treat
    a timeout as a proof of absence.
    """
