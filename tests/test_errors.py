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
from coulombgas.droplet import Droplet
from coulombgas.errors import _short_repr

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


@pytest.mark.parametrize("value, want", [
    (10**19, "10000000000000000000"),
    (-(10**20), "<21-digit int>"),
    (10**20 - 1, "99999999999999999999"),
    (10**5000, "<5001-digit int>"),
    (True, "True"),
    (2.5, "2.5"),
    (Droplet(0.0, 1.0, "disc"), "<Droplet>"),
    (Droplet, repr(Droplet)),
], ids=["1e19", "-1e20", "1e20-1", "1e5000", "bool", "float", "dataclass", "dataclass-type"])
def test_short_repr_names_huge_ints_and_dataclasses_briefly(value, want):
    # 10**5000 is past int's str limit: repr itself would raise ValueError.
    assert _short_repr(value) == want


def test_a_size_past_the_int_str_limit_is_a_domain_error():
    want = r"^ml\(lam=1.0, c=1.0\): n must be a positive integer, got <5001-digit int>$"
    with pytest.raises(DomainError, match=want):
        log_z_exact(_P, 10**5000)
