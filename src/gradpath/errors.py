"""Exception types shared across the package, and the number checks every
boundary uses: they turn malformed, non-finite, fractional or non-positive
outside input into :class:`InputError` and return the converted number."""

import math


class GradPathError(Exception):
    """Base class for all package errors."""


class InputError(GradPathError, ValueError):
    """A precondition on user-supplied input was violated."""


class ComputationError(GradPathError, RuntimeError):
    """A numerical routine failed at runtime."""


class DivergenceError(ComputationError):
    """A trajectory left the divergence guard radius."""


class NonFiniteError(ComputationError):
    """A non-finite objective value or gradient was encountered."""


class StepSizeUnderflowError(ComputationError):
    """The adaptive integrator could not make progress (stiffness)."""

    def __init__(self, t: float):
        # args is (t,), so pickling rebuilds the error from t
        super().__init__(t)
        self.t = t

    def __str__(self):
        return f"step size underflow at t={self.t!r}"


class QuadratureError(ComputationError):
    """Adaptive quadrature did not converge within the subdivision limit."""


class InvariantViolation(GradPathError):
    """A runtime invariant (e.g. a bound sandwich) was violated."""


def finite_number(value, name: str, kind=float):
    """``kind(value)`` (``float`` or ``int``) if it is a finite number, else InputError naming ``name``;
    ``int`` takes integral values only (2.0 gives 2, 2.5 is an error) and text that spells an integer."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name}: expected {'an integer' if kind is int else 'a number'}, got {value!r}") from None
    if kind is int and number != value and not isinstance(value, str):
        raise InputError(f"{name}: expected an integer, got {value!r}")
    if kind is float and not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {value!r}")
    return number


def positive_number(value, name: str, kind=float):
    """:func:`finite_number` of ``value`` if it is above 0, else InputError naming ``name``."""
    number = finite_number(value, name, kind)
    if number <= 0:
        raise InputError(f"{name} must be {'a positive integer' if kind is int else 'positive'}, got {value!r}")
    return number
