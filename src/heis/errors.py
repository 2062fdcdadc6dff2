"""Exception types shared across the package."""


class HeisError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HeisError):
    """Malformed input file. Carries the offending line number when known."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class SizeBudgetError(HeisError):
    """A requested object exceeds the configured size budget."""


class ConvergenceError(HeisError):
    """Iterative eigensolver failed to converge. Carries the best iterate."""

    def __init__(self, message, best_value=None, best_vector=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_vector = best_vector


class LabelingError(HeisError):
    """A Casimir eigenvalue did not land near any admissible s(s+1)."""

    def __init__(self, message, offending_value=None):
        super().__init__(message)
        self.offending_value = offending_value


class NumericalError(HeisError):
    """A numerical assumption (monotonicity, bracketing) failed beyond tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
