"""Exception types shared across the package, and the finite-number parser
that turns malformed or non-finite outside input into :class:`InputError`."""

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
        self.t = t
        super().__init__(f"step size underflow at t={t!r}")


class QuadratureError(ComputationError):
    """Adaptive quadrature did not converge within the subdivision limit."""


class InvariantViolation(GradPathError):
    """A runtime invariant (e.g. a bound sandwich) was violated."""


def finite_number(value, name: str, kind=float):
    """``kind(value)`` (``float`` or ``int``) if it is a finite number, else InputError naming ``name``."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name}: expected {'an integer' if kind is int else 'a number'}, got {value!r}") from None
    if not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {value!r}")
    return number
