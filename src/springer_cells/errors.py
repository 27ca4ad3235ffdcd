"""Exception types shared across the package."""


class SpringerCellsError(Exception):
    """Base class for all library errors."""


class ArcNotInMatching(SpringerCellsError):
    pass


class TooManyArcs(SpringerCellsError):
    """More arcs than the Jordan type can host (> min(n, N-n))."""


class Singular(SpringerCellsError):
    """A matrix expected to be invertible is not."""


class NotDivisible(SpringerCellsError):
    """An exact polynomial division leaves a remainder."""


class DimensionMismatch(SpringerCellsError):
    pass


class MissingParameter(SpringerCellsError):
    """A parameter vector does not assign a value to every arc."""


class InvalidSplitIndex(SpringerCellsError):
    """The index is covered by an arc, so the flag does not split there."""


class OddN(SpringerCellsError):
    pass


class CurveNotFound(SpringerCellsError):
    """Limit-curve synthesis produced no certified curve."""


class Infeasible(SpringerCellsError):
    """A brute-force enumeration would exceed the configured budget."""
