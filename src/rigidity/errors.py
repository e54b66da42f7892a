"""Exception types shared across the toolkit."""


class CapExceededError(RuntimeError):
    """An enumeration would outgrow its configured cap."""


class IncompatibleGeneratorsError(ValueError):
    """Generators mix realizations or disagree on degree / modulus / dimension."""


class SingularMatrixError(ValueError):
    """A matrix generator is not invertible modulo p."""


class UnsupportedModulusError(ValueError):
    """Modulus outside the supported brute-force range."""


class GroupSpecError(ValueError):
    """Malformed group spec text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownConstructorError(GroupSpecError):
    """Group spec names a constructor that does not exist."""


class SplitFailureError(RuntimeError):
    """Splitting or lifting at the Dixon prime found the class data inconsistent."""


class VerificationError(RuntimeError):
    """An exact check failed: the two counting routes disagree, an orbit size
    fails to divide |G|, a class-matrix entry is not an integer, or a
    character table fails an orthogonality relation."""


class NonIntegerResultError(ArithmeticError):
    """A character-theoretic count failed to reduce to a nonnegative integer."""


class PolynomialDivisionError(ZeroDivisionError):
    """Division by a zero polynomial or rational function."""
