"""One error context for every public entry point that takes a potential."""

import inspect

import pytest

import coulombgas
from coulombgas import (
    DomainError,
    MittagLeffler,
    convergence_study,
    dilate,
    dr_dtau,
    log_z_asymptotic,
    log_z_exact,
)

# The pointwise evaluators stay unwrapped, like the potential's own
# q_derivs and laplacian; the norm routes that call them add the context.
_POINTWISE = {"b1", "v_tau"}


def _entry_points():
    for name in coulombgas.__all__:
        obj = getattr(coulombgas, name)
        if inspect.isfunction(obj) and next(iter(inspect.signature(obj).parameters), None) == "p":
            yield name, obj


def test_every_entry_point_taking_a_potential_is_named():
    found = dict(_entry_points())
    assert _POINTWISE <= set(found)
    assert len(found) == 24
    for name, fn in found.items():
        assert hasattr(fn, "__wrapped__") == (name not in _POINTWISE), name
        assert fn.__name__ == name and fn.__doc__, name


_P = MittagLeffler(1.0, 1.0)

_CALLS = {
    "dr_dtau tau=0": lambda: dr_dtau(_P, 0.0),
    "dr_dtau tau=2": lambda: dr_dtau(_P, 2.0),
    "log_z_exact n=0": lambda: log_z_exact(_P, 0),
    "log_z_exact ensemble": lambda: log_z_exact(_P, 5, "x"),
    "log_z_asymptotic n=0": lambda: log_z_asymptotic(_P, 0),
    "convergence_study one size": lambda: convergence_study(_P, [100]),
    "dilate a=0": lambda: dilate(_P, 0),
}


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_argument_errors_name_the_potential_once(call):
    with pytest.raises(DomainError) as info:
        _CALLS[call]()
    msg = str(info.value)
    assert msg.startswith(f"{_P.name}: "), msg
    assert msg.count(_P.name) == 1, msg
