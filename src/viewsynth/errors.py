"""Exception types shared across the package."""


class ViewSynthError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ViewSynthError):
    """The problem statement itself is malformed (bad kind, bad views, ...)."""


class ParseError(InputError):
    """Syntax or declaration error in an instance, query, or views file.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(ViewSynthError):
    """A construction grew past its configured state cap."""

    def __init__(self, what: str, cap: int):
        self.what = what
        self.cap = cap
        super().__init__(f"{what} exceeded cap of {cap} states")


class BudgetExceeded(ViewSynthError):
    """A search ran past its configured candidate budget."""

    def __init__(self, what: str, budget: int):
        self.what = what
        self.budget = budget
        super().__init__(f"{what} exceeded budget of {budget}")
