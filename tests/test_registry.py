import numpy as np
import pytest

from gradpath import InputError, make_instance, parse_instance, registry


def test_known_names():
    for name in ("quad-geom", "quad-random", "pkl-lower", "pkl-lower-gf",
                 "pkl-lower-gd", "fsep-quartic"):
        inst = make_instance(name)
        assert inst.objective.dim == len(inst.x0)


def test_parse_with_parameters():
    inst = parse_instance("quad-geom:d=3,omega=4")
    assert inst.objective.dim == 3
    assert inst.objective.L == pytest.approx(16.0)
    assert inst.eta == pytest.approx(1.0 / 32.0)


def test_parse_seed_is_integer():
    a = parse_instance("quad-random:d=5,kappa=50,seed=2")
    b = parse_instance("quad-random:d=5,kappa=50,seed=2")
    assert np.array_equal(a.x0, b.x0)


def test_descent_instance_carries_admissible_step():
    inst = make_instance("pkl-lower-gd", d=10)
    assert 0.25 <= inst.eta <= 0.5


def test_unknown_name_rejected():
    with pytest.raises(InputError, match="unknown objective"):
        make_instance("mystery")


def test_bad_parameter_rejected():
    with pytest.raises(InputError, match="bad parameter"):
        parse_instance("quad-geom:d~3")
    with pytest.raises(InputError, match="bad parameters"):
        parse_instance("quad-geom:radius=3")


def test_type_error_inside_a_builder_propagates(monkeypatch):
    # parameter names are checked against the signature; a TypeError the
    # builder itself raises is a bug and is not reported as bad input
    def broken(d: int = 3):
        raise TypeError("a bug inside the builder")

    monkeypatch.setitem(registry.REGISTRY, "broken", broken)
    with pytest.raises(TypeError, match="a bug inside the builder"):
        make_instance("broken", d=4)
    with pytest.raises(InputError, match="bad parameters for 'broken': radius; known: d"):
        make_instance("broken", radius=4)


def test_quad_geom_name_and_step():
    inst = make_instance("quad-geom", d=6, omega=11)
    assert inst.objective.name == "quad-geom(d=6,omega=11.0)"
    assert inst.eta == 1 / (2 * 11.0**5)


def test_objective_names_carry_the_parameters():
    assert parse_instance("quad-geom:d=3,omega=4").objective.name == "quad-geom(d=3,omega=4.0)"
    assert parse_instance("quad-random:d=5,kappa=50,seed=2").objective.name == "quad-random(d=5,kappa=50,seed=2)"


@pytest.mark.parametrize("text, match", [
    ("quad-geom:omega=nan", "omega in .* must be finite"),  # used to report L = 1.0
    ("quad-geom:omega=inf", "omega in .* must be finite"),
    ("quad-random:kappa=nan", "kappa in .* must be finite"),
    ("quad-geom:d=abc", "d in .*: expected an integer"),
    ("quad-geom:d=6.5", "d in .*: expected an integer"),
    ("quad-geom:d=3.0", "d in .*: expected an integer"),
])
def test_malformed_or_non_finite_parameter_rejected(text, match):
    with pytest.raises(InputError, match=match):
        parse_instance(text)
