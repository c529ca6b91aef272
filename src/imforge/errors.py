"""Exception types shared across the package.

Every operation that can refuse an input raises one of these instead of a
bare ValueError, so callers (and tests) can match on the failure mode.
"""


class ImforgeError(Exception):
    """Base class for all library errors."""


class OutOfRangeError(ImforgeError):
    """A vertex id falls outside 0..n-1."""


class SelfLoopError(ImforgeError):
    """An edge joins a vertex to itself."""


class EmptySideError(ImforgeError):
    """A density query received an empty vertex set."""


class OverlapError(ImforgeError):
    """Two vertex sets required to be disjoint overlap."""


class NotRegularError(ImforgeError):
    """An operation requiring a regular graph got an irregular one."""


class NotConvergedError(ImforgeError):
    """The iterative eigensolver exhausted its budget."""


class ParityError(ImforgeError):
    """n*d is odd, so no d-regular graph on n vertices exists."""


class GenerationFailedError(ImforgeError):
    """Random generation exhausted its retry budget."""


class BadModulusError(ImforgeError):
    """Quadratic-residue construction needs a prime q = 1 (mod 4)."""


class ParseError(ImforgeError):
    """Malformed edge-list or certificate input; carries the 1-based line
    number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DomainError(ImforgeError):
    """Arguments outside the domain of an operation or a closed-form
    formula."""


class NoPathError(ImforgeError):
    """No admissible path within the length budget."""

    def __init__(self, max_len: int, message: str = ""):
        super().__init__(message or f"no path of length <= {max_len}")
        self.max_len = max_len


class InsufficientStarsError(ImforgeError):
    """Greedy star packing found fewer stars than asked for."""

    def __init__(self, found: int, wanted: int):
        super().__init__(f"packed {found} of {wanted} stars")
        self.found = found
        self.wanted = wanted


class UnitFailedError(ImforgeError):
    """Unit construction failed; carries the stage that ran out of room."""

    def __init__(self, stage: str):
        super().__init__(f"unit construction failed at stage '{stage}'")
        self.stage = stage


class BadPartitionError(ImforgeError):
    """A declared vertex partition is not a partition."""


class PreconditionFailedError(ImforgeError):
    """A strict-mode pipeline hypothesis does not hold."""


class UnitShortfallError(ImforgeError):
    """Strict-mode pipeline built fewer units than the target order."""


class DegenerateTError(ImforgeError):
    """Partition cell size collapsed to zero (parameters too small)."""


class StuckError(ImforgeError):
    """A pair could not be linked; carries the pair."""

    def __init__(self, pair):
        super().__init__(f"could not link pair {pair}")
        self.pair = pair


class NoEvenCycleError(ImforgeError):
    """The (possibly capped) search found no even cycle."""


class ExpansionFailedError(ImforgeError):
    """Could not grow a vertex expansion of the requested size."""


class BadSizeError(ImforgeError):
    """Requested trim size outside 1..|F|."""


class NoConnectionError(ImforgeError):
    """Two gadgets could not be linked by an admissible path."""


class SampleFailedError(ImforgeError):
    """Reservoir sampling never met its acceptance predicate."""

    def __init__(self, retries: int):
        super().__init__(f"no accepted sample in {retries} attempts")
        self.retries = retries


class RoutingFailedError(ImforgeError):
    """Fixed-length routing failed for a pair even after rollback."""

    def __init__(self, pair):
        super().__init__(f"could not route pair {pair}")
        self.pair = pair


class IncompleteEmbeddingError(ImforgeError):
    """Strict-mode pipeline could not connect every required pair."""
