"""Exception hierarchy shared by all rebrick modules.

Every error raised on purpose by this package derives from RebrickError,
so callers can catch the whole family in one clause.  Input-validation
errors and negative mathematical verdicts are distinct classes; the CLI
maps the former to exit code 2, the latter to exit code 1 and an
InternalConsistencyError to exit code 3.
"""


class RebrickError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(RebrickError):
    """Matrix input is not a finite rectangular array."""


class ShapeMismatch(RebrickError):
    """Operands have incompatible shapes."""


class Singular(RebrickError):
    """A matrix required to be invertible is singular at tolerance."""

    def __init__(self, msg, sigma_min=0.0):
        super().__init__(msg)
        self.sigma_min = sigma_min


class NotABasis(RebrickError):
    """Columns of a factor do not form a basis (singular at tolerance)."""

    def __init__(self, msg, which=""):
        super().__init__(msg)
        self.which = which


class TooSmall(RebrickError):
    """Requested dimension is below the minimum the construction needs."""


class NotOrthogonal(RebrickError):
    """A matrix required to be orthogonal fails the check at tolerance."""

    def __init__(self, msg, which=""):
        super().__init__(msg)
        self.which = which


class NotRebrickable(RebrickError):
    """The operator fails the rebricking test, so the construction is undefined."""


class NotOrthogonalSymmetric(RebrickError):
    """Factorization input must be orthogonal and symmetric."""


class InternalConsistencyError(RebrickError):
    """Two independent decision routes disagree outside their guard bands."""


class NotAPermutation(RebrickError):
    """Index vector is not a bijection on the column indices."""


class SearchExhausted(RebrickError):
    """Randomized permutation search hit its trial cap without success."""

    def __init__(self, msg, trials=0):
        super().__init__(msg)
        self.trials = trials


class NotRepaired(RebrickError):
    """The supplied permutation does not make the rebricked matrix regular."""


class NotAFrame(RebrickError):
    """Synthesis matrix does not span the ambient space (rank below n)."""


class IndexCountMismatch(RebrickError):
    """Two frames compared by the partial order must share the index count."""


class RankDeficientInput(RebrickError):
    """An operator required to be surjective has deficient row rank."""


class NotParsevalInput(RebrickError):
    """Input frame is not Parseval at tolerance."""


class LengthMismatch(RebrickError):
    """Signal and multiplier lengths differ."""


class OddLength(RebrickError):
    """Signal length must be even for this construction."""


class GeneratorNotONB(RebrickError):
    """Translates of the generator do not form an orthonormal basis."""


class GridTooSmall(RebrickError):
    """Sampling grid too coarse for exact discrete orthogonality."""


class MatrixParseError(RebrickError):
    """A matrix file failed to parse; carries the 1-based cell position."""

    def __init__(self, msg, row=0, col=0):
        super().__init__(msg)
        self.row = row
        self.col = col
