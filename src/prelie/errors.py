"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Input data has the wrong shape (non-cubical tensor, size mismatch, ...)."""


class DimensionMismatchError(ShapeError):
    """Two objects that must share a dimension do not."""


class NotSquareError(ShapeError):
    """A square matrix was required."""


class SingularError(ArithmeticError):
    """A map that had to be invertible is not."""


class NoUnitError(ValueError):
    """The algebra has no unit but a unital operation was requested."""


class FieldMismatchError(ValueError):
    """Operands live over different scalar fields."""


class UnverifiedError(ValueError):
    """A constructor received input that fails its required checks."""


class UnverifiedCocycleError(UnverifiedError):
    """The supplied bilinear map is not a 2-cocycle."""


class UnverifiedOperatorError(UnverifiedError):
    """The supplied linear map fails its operator identity."""


class UnverifiedNSError(UnverifiedError):
    """The supplied triple of products is not an NS-pre-Lie structure."""


class InvariantError(AssertionError):
    """A re-verification of the package's own output failed.

    Constructions re-check the theorems behind them; this names the one
    that did not hold, which points at a fault in the package, not in
    the input.
    """


def reverified(build, *args):
    """``build(*args)`` on the package's own output: an `UnverifiedError` there
    is a theorem that did not hold, re-raised as `InvariantError`."""
    try:
        return build(*args)
    except UnverifiedError as exc:
        raise InvariantError(str(exc)) from exc


class NotCocycleError(ValueError):
    """A 1-cocycle was required and the cocycle condition fails."""


class NotAdmissibleError(ValueError):
    """The gauge map id + B∘K is singular, so B is not admissible."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured candidate budget."""


class InfiniteFieldError(ValueError):
    """An exhaustive enumeration was requested over an infinite field."""


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class IoError(OSError):
    """A file could not be read."""
