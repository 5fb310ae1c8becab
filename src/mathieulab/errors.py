"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` that the CLI mirrors
into its error output and exit-code handling.
"""


class AlgebraError(Exception):
    """Base class for all domain errors."""

    code = "ERROR"


class RingMismatch(AlgebraError):
    code = "RING_MISMATCH"


class DivisionByZero(AlgebraError):
    code = "DIVISION_BY_ZERO"


class AmbiguousDivision(AlgebraError):
    code = "AMBIGUOUS"


class ZeroInput(AlgebraError):
    code = "ZERO_INPUT"


class BadInput(AlgebraError):
    code = "BAD_INPUT"


class ParseError(AlgebraError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotNormalized(AlgebraError):
    code = "NOT_NORMALIZED"


class BudgetExhausted(AlgebraError):
    code = "BUDGET_EXHAUSTED"


class BadWeight(AlgebraError):
    code = "BAD_WEIGHT"


class BadPair(AlgebraError):
    code = "BAD_PAIR"


class Degenerate(AlgebraError):
    code = "DEGENERATE"


class NotInRadical(AlgebraError):
    code = "NOT_IN_RADICAL"
