"""Exception hierarchy shared by all rebrick modules.

Every error that rebrick raises on purpose derives from RebrickError, so
callers can catch the whole family in one clause.  The one exception is
the ValueError that the records Tolerance, FrameBounds and CharPoly raise
when built with invalid fields.  Each concrete class derives from exactly
one of three kinds, and the kind carries the CLI exit code, so the
mapping from errors to exit codes is this class hierarchy and nothing
else:

  InputError                the question itself is malformed   exit 2
  NegativeVerdict           a well-posed question answered no  exit 1
  InternalConsistencyError  two decision routes contradict     exit 3

Each concrete class names one refused hypothesis; its message names the
operand.  A command line that matches no declared CLI command is a
UsageError (exit 2).
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
    """Only the RebrickVerdict functions raise it: sigma_min(B) breaks its eigenvalue bound.

    The bound is checked where the eigenvalues of A are computed with the verdict,
    that is where sigma(B) leaves an eigenvalue near i possible; a read of them
    later (a clear "yes") raises nothing.
    """

    exit_code = 3


class UsageError(InputError):
    """A command line does not match any declared CLI command."""


class InvalidMatrix(InputError):
    """An array or signal is not finite and numeric, or a value formed from it leaves float64."""


class ShapeMismatch(InputError):
    """Operands' shapes, lengths or index counts disagree."""


class RankDeficientInput(InputError):
    """A basis, frame or operator required to be regular is not, at tolerance."""


class NotOrthogonal(InputError):
    """An input required to be orthogonal, symmetric or Parseval fails the check at tolerance."""


class InvalidSize(InputError):
    """A size parameter lies outside the domain of the construction."""


class NotAPermutation(InputError):
    """Index vector is not a bijection on the column indices."""


class MatrixParseError(InputError):
    """A matrix file failed to parse; carries the 1-based cell position."""

    def __init__(self, msg, row=0, col=0):
        super().__init__(msg)
        self.row = row
        self.col = col


class NotRebrickable(NegativeVerdict):
    """The rebricked candidate is singular at tolerance, so the construction is undefined."""


class SearchExhausted(NegativeVerdict):
    """No repairing permutation: the cap was hit, or a Weyl bound on sigma(AV) rules all out."""
