import inspect
import pickle

import pytest

from gradpath import errors

#: every exception class defined in gradpath.errors
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    # grid points run in forked workers, whose errors cross the process boundary pickled
    exc = cls(1.5) if cls is errors.StepSizeUnderflowError else cls("a point failed")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "t", None) == getattr(exc, "t", None)


def test_step_size_underflow_message():
    exc = errors.StepSizeUnderflowError(1.5)
    assert str(exc) == "step size underflow at t=1.5"
    assert exc.t == 1.5
