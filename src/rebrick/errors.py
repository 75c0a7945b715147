"""Exception hierarchy shared by all rebrick modules.

Every error raised on purpose by this package derives from RebrickError,
so callers can catch the whole family in one clause.  Each concrete class
derives from exactly one of three kinds, and the kind carries the CLI
exit code, so the mapping from errors to exit codes is this class
hierarchy and nothing else:

  InputError                the question itself is malformed   exit 2
  NegativeVerdict           a well-posed question answered no  exit 1
  InternalConsistencyError  two decision routes disagree       exit 3

A command line that matches no declared CLI command is a UsageError (exit 2).
"""


class RebrickError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RebrickError):
    """A precondition on the input fails: the question is malformed."""

    exit_code = 2


class NegativeVerdict(RebrickError):
    """A well-posed question has a negative answer."""

    exit_code = 1


class InternalConsistencyError(RebrickError):
    """Only the RebrickVerdict functions raise it: their routes disagree outside the guard bands."""

    exit_code = 3


class UsageError(InputError):
    """A command line does not match any declared CLI command."""


class InvalidMatrix(InputError):
    """Matrix input is not a finite rectangular array, or its scale leaves float64."""


class ShapeMismatch(InputError):
    """Operands have incompatible shapes."""


class Singular(InputError):
    """A matrix required to be invertible is singular at tolerance."""

    def __init__(self, msg, sigma_min=0.0):
        super().__init__(msg)
        self.sigma_min = sigma_min


class NotABasis(InputError):
    """Columns of a factor do not form a basis (singular at tolerance)."""

    def __init__(self, msg, which=""):
        super().__init__(msg)
        self.which = which


class TooSmall(InputError):
    """Requested dimension is below the minimum the construction needs."""


class NotOrthogonal(InputError):
    """A matrix required to be orthogonal fails the check at tolerance."""

    def __init__(self, msg, which=""):
        super().__init__(msg)
        self.which = which


class NotRebrickable(NegativeVerdict):
    """The operator or pair fails the rebricking test, so the construction is undefined."""


class NotOrthogonalSymmetric(InputError):
    """Factorization input must be orthogonal and symmetric."""


class NotAPermutation(InputError):
    """Index vector is not a bijection on the column indices."""


class SearchExhausted(NegativeVerdict):
    """Randomized permutation search hit its trial cap without success."""

    def __init__(self, msg, trials=0):
        super().__init__(msg)
        self.trials = trials


class NotRepaired(NegativeVerdict):
    """The supplied permutation does not make the rebricked matrix regular."""


class NotAFrame(InputError):
    """Synthesis matrix does not span the ambient space (rank below n)."""


class IndexCountMismatch(InputError):
    """Two frames compared by the partial order must share the index count."""


class RankDeficientInput(InputError):
    """An operator required to be surjective has deficient row rank."""


class NotParsevalInput(InputError):
    """Input frame is not Parseval at tolerance."""


class LengthMismatch(InputError):
    """Signal and multiplier lengths differ."""


class OddLength(InputError):
    """Signal length must be even for this construction."""


class GeneratorNotONB(InputError):
    """Translates of the generator do not form an orthonormal basis."""


class GridTooSmall(InputError):
    """Sampling grid too coarse for exact discrete orthogonality."""


class MatrixParseError(InputError):
    """A matrix file failed to parse; carries the 1-based cell position."""

    def __init__(self, msg, row=0, col=0):
        super().__init__(msg)
        self.row = row
        self.col = col
