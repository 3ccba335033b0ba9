"""Exception types shared across the package."""

from quadguess.exact import format_rational


class QuadGuessError(Exception):
    """Base class for all quadguess errors."""


class DegenerateInputError(QuadGuessError):
    """The input sequence is identically zero; every equation fits vacuously."""


class InsufficientTermsError(QuadGuessError):
    """Too few terms to form the required system rows (or extension rows)."""


class InconsistentInitialTermsError(QuadGuessError):
    """A warm-up row of an extension does not vanish on the initial terms."""

    def __init__(self, row, residual):
        self.row = row
        self.residual = residual
        super().__init__(f"row {row} does not vanish on the initial terms "
                         f"(residual {format_rational(residual)})")


class LeadingCoefficientZeroError(QuadGuessError):
    """The coefficient of the next unknown term vanishes; extension stops."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"coefficient of the new term vanishes at row {row}")


class NonlinearStepError(QuadGuessError):
    """An extension row is quadratic in the unknown term (ill-posed step)."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} is quadratic in the unknown term")


class EquationFormatError(QuadGuessError):
    """Malformed equation JSON."""


class PrefixFormatError(QuadGuessError):
    """Malformed sequence file; the message names the line when known."""
