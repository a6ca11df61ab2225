import argparse
import json
import math
import os
import subprocess
import sys

import mpmath
import pytest

import coulombgas
import mp_reference
from coulombgas import cli, equilibrium
from coulombgas.cli import main
from coulombgas.errors import IntegrationError, SolverError
from coulombgas.norms import NormQuery, log_norm_laplace, log_norm_lowdeg
from coulombgas.oracles import ml_log_z
from coulombgas.potential import MittagLeffler, TruncatedUnitary
from coulombgas.quadrature import integrate


def test_droplet_single_line(capsys):
    rc = main(["droplet", "--potential", "ginibre"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert "kind=disc" in out
    assert "r1=1" in out


def test_droplet_ml_annulus(capsys):
    rc = main(["droplet", "--potential", "ml", "--lambda", "1", "--c", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kind=annulus" in out
    assert "r0=1" in out


def test_equilibrium_text_keys(capsys):
    rc = main(["equilibrium", "--potential", "ginibre"])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("energy=", "entropy=", "log_potential_origin=", "f_term="):
        assert key in out, key


def test_exact_agrees_with_oracle(capsys):
    rc = main(
        ["exact", "--potential", "ml", "--lambda", "1", "--c", "1", "--N", "10"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    val = float(out.split("log_z=")[1].split()[0])
    assert abs(val - ml_log_z(1.0, 1.0, 10, "normal")) < 1e-9


def test_oracle_compare_difference_small(capsys):
    rc = main(
        [
            "oracle",
            "--potential",
            "tu",
            "--alpha",
            "1",
            "--R",
            "1",
            "--N",
            "8",
            "--compare",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    diff = float(out.split("difference=")[1].split()[0])
    assert abs(diff) < 1e-9


def test_expand_terms_listing(capsys):
    rc = main(["expand", "--potential", "ginibre", "--N", "100", "--terms"])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("c_n2=", "c_nlogn=", "c_n=", "c_logn=", "c_1=", "log_z_asymptotic="):
        assert key in out, key


def test_norm_text_is_bare_value(capsys):
    rc = main(
        [
            "norm",
            "--potential",
            "ginibre",
            "--N",
            "10",
            "--j",
            "4",
            "--ensemble",
            "normal",
            "--method",
            "exact",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip()
    val = float(out)
    # Ginibre closed form: ln Gamma(5) - 5 ln 10
    assert abs(val - (math.lgamma(5.0) - 5.0 * math.log(10.0))) < 1e-10


def test_json_output_parses(capsys):
    rc = main(["equilibrium", "--potential", "ginibre", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["energy"] - 0.75) < 1e-11
    assert payload["kind"] == "disc"


def test_domain_error_exit_code(capsys):
    # Laplace at degree 0 on a disc has no interior saddle
    rc = main(
        [
            "norm",
            "--potential",
            "ginibre",
            "--N",
            "10",
            "--j",
            "0",
            "--ensemble",
            "normal",
            "--method",
            "laplace",
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_invalid_potential_exit_code(capsys):
    rc = main(["droplet", "--potential", "ginibre", "--scale", "-2"])
    assert rc == 3


_ML_HALF_DISC = ["--potential", "ml", "--lambda", "0.5", "--c", "0", "--N", "50"]


def test_exact_on_a_disc_without_origin_laplacian_exits_0(capsys):
    # The exact route reads no origin data (its saddles r_tau', tau' =
    # (j + 1/2)/s, are positive), so ML(1/2, 0) gets log Z where the disc
    # functionals above exit 3.  The value is within mp_reference.log_z_bound
    # of the 40-digit reference.
    p = MittagLeffler(0.5, 0.0)
    out, err, rc = _run(["exact", *_ML_HALF_DISC], capsys)
    assert rc == 0 and err == ""
    got = float(out.split("log_z=")[1].split()[0])
    gap = abs(float(mpmath.mpf(got) - mp_reference.log_z(p, 50, "normal")))
    assert gap <= mp_reference.log_z_bound(p, 50, "normal")


def test_oracle_compare_on_a_disc_without_origin_laplacian(capsys):
    # The Barnes-G oracle exists for lam = 1/2; the printed difference from
    # the exact route is within the exact route's reference bound.
    out, err, rc = _run(["oracle", *_ML_HALF_DISC, "--compare"], capsys)
    assert rc == 0 and err == ""
    diff = float(out.split("difference=")[1].split()[0])
    assert abs(diff) <= mp_reference.log_z_bound(MittagLeffler(0.5, 0.0), 50, "normal")


@pytest.mark.parametrize("command, extra", [("droplet", []), ("equilibrium", []),
                                            ("expand", ["--N", "100"])])
def test_zero_width_droplet_exits_3(capsys, command, extra):
    out, err, rc = _run([command, "--potential", "ml", "--lambda", "1", "--c", "1e17", *extra],
                        capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "zero-width droplet" in err


@pytest.mark.parametrize("command, extra", [("equilibrium", []), ("zw", []),
                                            ("expand", ["--N", "100"]),
                                            ("converge", ["--Ns", "100,200"])])
@pytest.mark.parametrize("lam", ["0.5", "20"])
def test_disc_without_origin_laplacian_exits_3(capsys, command, extra, lam):
    out, err, rc = _run([command, "--potential", "ml", "--lambda", lam, "--c", "0", *extra],
                        capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "ΔQ(0) finite and > 0" in err


_SUBCOMMAND_ARGS = {
    "droplet": [],
    "equilibrium": [],
    "zw": [],
    "norm": ["--N", "10", "--j", "1"],
    "exact": ["--N", "10"],
    "expand": ["--N", "10"],
    "oracle": ["--N", "10"],
    "lemmas": ["--N", "10", "--which", "sum_v_normal"],
    "converge": ["--Ns", "10,12"],
}


@pytest.mark.parametrize("cmd", sorted(_SUBCOMMAND_ARGS))
def test_cross_family_flag_is_usage_error(capsys, cmd):
    argv = [cmd, "--potential", "tu", "--alpha", "1", "--R", "1", "--lambda", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + _SUBCOMMAND_ARGS[cmd])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--lambda does not apply to --potential tu" in err
    _assert_subcommand_usage_error(err, cmd)


def _assert_subcommand_usage_error(err, cmd):
    """A usage error found after parsing prints the usage of the subcommand
    that failed, and its prog in the error line, as argparse's own do."""
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: coulombgas {cmd} "), err
    assert lines[-1].startswith(f"coulombgas {cmd}: error: "), err


def test_oracle_infinite_parameter_is_domain_error(capsys):
    rc = main(["oracle", "--potential", "tu", "--alpha", "inf", "--R", "1", "--N", "10"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error:")


def test_oracle_nonfinite_result_is_domain_error(capsys):
    rc = main(["oracle", "--potential", "ml", "--lambda", "1", "--c", "1e300", "--N", "10"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


def test_oracle_factor_cap_is_domain_error(capsys):
    # 1/lam = 1e300 is integral in float64: the oracle would need 1e300
    # Barnes G factors.
    rc = main(["oracle", "--potential", "ml", "--lambda", "1e-300", "--c", "1", "--N", "10"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "Barnes G factors" in err


# Family parameters whose squares leave float64 (scale^2 underflows to 0,
# lam^2 overflows), and a Laplace saddle that rounds onto the hard wall:
# each used to end in a traceback with exit 1.
@pytest.mark.parametrize(
    "argv",
    [
        ["droplet", "--potential", "ginibre", "--scale", "1e-200"],
        ["expand", "--potential", "ginibre", "--scale", "1e-200", "--N", "10"],
        ["exact", "--potential", "ml", "--lambda", "1e200", "--c", "1", "--N", "4"],
        ["norm", "--method", "laplace", "--potential", "tu", "--alpha", "1e-20", "--R", "1",
         "--N", "4", "--j", "2"],
        ["norm", "--method", "laplace", "--potential", "ml", "--lambda", "1e200", "--c", "1",
         "--N", "4", "--j", "2"],
    ],
    ids=["droplet-ginibre", "expand-ginibre", "exact-ml", "laplace-tu-wall", "laplace-ml"],
)
def test_extreme_parameters_exit_with_an_error_code(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (3, 4)
    assert out == ""
    assert err.startswith("error:")


def test_laplace_norm_at_tiny_ginibre_scale_is_a_value(capsys):
    # 2 pi r^2 / (s laplacian) underflows to 0 here; its log did not.
    argv = ["norm", "--method", "laplace", "--potential", "ginibre", "--scale", "1e-100",
            "--N", "4", "--j", "2"]
    assert main(argv) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_laplace_norm_at_huge_ginibre_scale_is_the_shifted_unit_norm(capsys):
    # laplacian^2 = 1e-400 underflows to 0 here, and b1 was 0 / 0; in its
    # scale-free form b1 = 1 / (12 r^2 laplacian) is exact.  The unit norm
    # shifts by 2 (j + 1) log a; the bound is that of the Laplace scaling
    # test in test_properties.py, 4 eps (|value| + |shift|).
    argv = ["norm", "--method", "laplace", "--potential", "ginibre", "--N", "10", "--j", "3"]
    assert main(argv) == 0
    unit = float(capsys.readouterr().out)
    assert main(argv + ["--scale", "1e100"]) == 0
    got = float(capsys.readouterr().out)
    shift = 8.0 * math.log(1e100)
    bound = 4.0 * mp_reference.EPS * (abs(got) + abs(shift))
    assert abs(got - (unit + shift)) <= bound, (got, unit)


def test_laplace_norm_error_names_the_potential_n_j_and_ensemble(capsys):
    argv = ["norm", "--method", "laplace", "--potential", "tu", "--alpha", "1e-20", "--R", "1",
            "--N", "4", "--j", "2"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: tu(alpha=1e-20, R=1.0), n=4, j=2, ensemble=normal: "
                   "infinite Laplacian at r_tau = 1.0, on the hard wall at 1.0\n")


@pytest.mark.parametrize("ensemble, j, degrees", [("normal", "5", "[0, 4]"),
                                                  ("symplectic", "10", "[0, 9]")])
def test_norm_query_error_names_the_potential_n_j_and_ensemble(capsys, ensemble, j, degrees):
    argv = ["norm", "--potential", "ginibre", "--N", "5", "--j", j, "--ensemble", ensemble]
    out, err, rc = _run(argv, capsys)
    assert rc == 3 and out == ""
    assert err == (f"error: ginibre(scale=1.0), n=5, j={j}, ensemble={ensemble}: "
                   f"degree must be an integer in {degrees}, got {j}\n")


@pytest.mark.parametrize("cmd", [["exact", "--N", "10"], ["expand", "--N", "10"],
                                 ["converge", "--Ns", "10,12"]])
def test_retired_convention_flag_is_a_usage_error(capsys, cmd):
    # log Z includes log n! on every route; there is no --convention.
    for value in ("physics", "canonical"):
        argv = [cmd[0], "--potential", "ginibre", *cmd[1:], "--convention", value]
        out, err, rc = _run(argv, capsys)
        assert rc == 2 and out == ""
        assert "unrecognized arguments: --convention" in err


def test_retired_highdeg_method_is_a_usage_error(capsys):
    # --method laplace covers the high degrees; there is no --method highdeg.
    for ensemble in ("normal", "symplectic"):
        argv = ["norm", "--potential", "ginibre", "--N", "10", "--j", "3",
                "--ensemble", ensemble, "--method", "highdeg"]
        out, err, rc = _run(argv, capsys)
        assert rc == 2 and out == ""
        assert "invalid choice: 'highdeg'" in err


def test_oracle_lam_off_k_over_p_is_domain_error(capsys):
    # 1/lam = 3.0000000003: the Barnes G product would be log Z of another
    # weight, and --compare would print its error as the exact route's.
    argv = ["oracle", "--potential", "ml", "--lambda", "0.3333333333", "--c", "1", "--N", "100"]
    for extra in ([], ["--compare"]):
        rc = main(argv + extra)
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err.startswith("error:") and "must be a positive integer" in err


def test_missing_family_parameter_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["droplet", "--potential", "ml", "--lambda", "1"])
    assert exc.value.code == 2
    _assert_subcommand_usage_error(capsys.readouterr().err, "droplet")
    out, err, rc = _run(["droplet", "--potential", "tu", "--alpha", "1"], capsys)
    assert rc == 2 and out == ""
    assert "--potential tu requires --alpha and --R" in err
    _assert_subcommand_usage_error(err, "droplet")
    out, err, rc = _run(["exact", "--potential", "ml", "--N", "5"], capsys)
    assert rc == 2 and out == ""
    _assert_subcommand_usage_error(err, "exact")
    assert err.endswith("coulombgas exact: error: --potential ml requires --lambda and --c\n")


_FAMILY_ARGS = {
    "ginibre": ["--scale", "2"],
    "ml": ["--lambda", "1", "--c", "1"],
    "tu": ["--alpha", "1", "--R", "1"],
}
_FOREIGN_FLAGS = [(family, flag) for family in sorted(_FAMILY_ARGS)
                  for flag in ("--scale", "--lambda", "--c", "--alpha", "--R")
                  if flag not in _FAMILY_ARGS[family]]


@pytest.mark.parametrize("family, flag", _FOREIGN_FLAGS)
def test_each_foreign_family_flag_is_a_usage_error(capsys, family, flag):
    argv = ["droplet", "--potential", family, *_FAMILY_ARGS[family], flag, "2"]
    out, err, rc = _run(argv, capsys)
    assert len(_FOREIGN_FLAGS) == 10
    assert rc == 2 and out == ""
    assert err.endswith(f"error: {flag} does not apply to --potential {family}\n")
    _assert_subcommand_usage_error(err, "droplet")


def test_a_non_integer_size_list_is_a_converge_usage_error(capsys):
    out, err, rc = _run(["converge", "--potential", "ginibre", "--Ns", "10,x"], capsys)
    assert rc == 2 and out == ""
    _assert_subcommand_usage_error(err, "converge")
    assert err.endswith("coulombgas converge: error: argument --Ns: "
                        "expects a comma-separated integer list, got '10,x'\n")


# The whole stderr line of each handler that names its errors with
# errors._named: an error raised in the handler gets the handler's context,
# and an inner route's passes unchanged.
@pytest.mark.parametrize("argv, line", [
    ("norm --potential ginibre --N 5 --j 9",
     "error: ginibre(scale=1.0), n=5, j=9, ensemble=normal: "
     "degree must be an integer in [0, 4], got 9"),
    ("expand --potential ginibre --N 0",
     "error: ginibre(scale=1.0): n must be a positive integer, got 0"),
    ("oracle --potential ginibre --scale 2 --N 10",
     "error: ginibre(scale=2.0), n=10, ensemble=normal: "
     "the closed-form route covers ginibre only at scale 1"),
    ("oracle --potential ml --lambda 0.3 --c 1 --N 10 --compare",
     "error: ml(lam=0.3, c=1.0), n=10, ensemble=normal: "
     "1/lam must be a positive integer, got 3.3333333333333335"),
], ids=["norm", "expand", "oracle", "oracle-compare"])
def test_named_handler_errors_keep_their_bytes(capsys, argv, line):
    out, err, rc = _run(argv.split(), capsys)
    assert (out, err, rc) == ("", line + "\n", 3)


# A huge N is named by its digit count and ExpansionTerms by its class, so
# the line stays short.
@pytest.mark.parametrize("argv, line", [
    ("expand --potential ml --lambda 1 --c 1 --N 1" + "0" * 200,
     "error: ml(lam=1.0, c=1.0): evaluate(<ExpansionTerms>, <201-digit int>) "
     "is not finite in float64"),
    ("expand --potential ml --lambda 1 --c 1 --N 1" + "0" * 400,
     "error: ml(lam=1.0, c=1.0): n must be a positive integer, got <401-digit int>"),
    ("exact --potential ml --lambda 1 --c 1 --N 1" + "0" * 400,
     "error: ml(lam=1.0, c=1.0): n must be a positive integer, got <401-digit int>"),
], ids=["expand-1e200", "expand-1e400", "exact-1e400"])
def test_a_huge_size_gives_a_short_error_line(capsys, argv, line):
    out, err, rc = _run(argv.split(), capsys)
    assert (out, err, rc) == ("", line + "\n", 3)
    assert len(line) <= 160


@pytest.mark.parametrize("family, kept", [("ml", ["--lambda", "1"]), ("ml", ["--c", "1"]),
                                          ("tu", ["--alpha", "1"]), ("tu", ["--R", "1"])])
def test_a_missing_family_flag_names_every_required_flag(capsys, family, kept):
    out, err, rc = _run(["droplet", "--potential", family, *kept], capsys)
    names = " and ".join(_FAMILY_ARGS[family][::2])
    assert rc == 2 and out == ""
    assert err.endswith(f"error: --potential {family} requires {names}\n")


def test_ginibre_scale_defaults_to_1(capsys):
    for cmd in (["droplet"], ["exact", "--N", "10"]):
        default = _run([*cmd, "--potential", "ginibre"], capsys)
        assert default == _run([*cmd, "--potential", "ginibre", "--scale", "1"], capsys)
        assert default[2] == 0


def test_unknown_norm_method_is_a_usage_error(capsys):
    argv = ["norm", "--potential", "ginibre", "--N", "10", "--j", "3", "--method", "bogus"]
    out, err, rc = _run(argv, capsys)
    assert rc == 2 and out == ""
    assert "argument --method: invalid choice: 'bogus'" in err


def test_oracle_ginibre_is_the_ml_1_0_oracle(capsys):
    out, err, rc = _run(["oracle", "--potential", "ginibre", "--N", "12"], capsys)
    assert rc == 0 and err == ""
    assert out == f"log_z_oracle={ml_log_z(1.0, 0.0, 12, 'normal'):.17g}\n"


def test_oracle_ginibre_off_scale_1_is_a_domain_error(capsys):
    out, err, rc = _run(["oracle", "--potential", "ginibre", "--scale", "2", "--N", "12"],
                        capsys)
    assert rc == 3 and out == ""
    assert err.startswith("error:") and "covers ginibre only at scale 1" in err


@pytest.mark.parametrize("family, name", [
    (["--potential", "ml", "--lambda", "0.7", "--c", "1"], "ml(lam=0.7, c=1.0)"),
    (["--potential", "ginibre", "--scale", "2"], "ginibre(scale=2.0)"),
], ids=["ml-lam-off-1-over-k", "ginibre-scale-2"])
def test_oracle_errors_name_the_potential_n_and_ensemble(capsys, family, name):
    out, err, rc = _run(["oracle", *family, "--N", "10"], capsys)
    assert rc == 3 and out == ""
    assert err.startswith(f"error: {name}, n=10, ensemble=normal: "), err
    assert err.count(name) == 1, err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_converge_deterministic_across_threads(tmp_path, capsys):
    base = [
        "converge",
        "--potential",
        "ml",
        "--lambda",
        "1",
        "--c",
        "1",
        "--Ns",
        "10,14,20,28",
        "--ensemble",
        "normal",
    ]
    out1 = tmp_path / "t1.csv"
    out8 = tmp_path / "t8.csv"
    rc1 = main(base + ["--threads", "1", "--out", str(out1)])
    rc8 = main(base + ["--threads", "8", "--out", str(out8)])
    capsys.readouterr()
    assert rc1 == 0 and rc8 == 0
    assert out1.read_bytes() == out8.read_bytes()
    header = out1.read_text().split("\n", 1)[0]
    assert header == "N,log_z_exact,log_z_asymptotic,residual"


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_path_is_a_usage_error(where, tmp_path, capsys):
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    rc = main(["droplet", "--potential", "ginibre", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def test_converge_rejects_bad_ns():
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "converge",
                "--potential",
                "ginibre",
                "--Ns",
                "10,chicken",
            ]
        )
    assert exc.value.code == 2


def test_lemmas_output(capsys):
    rc = main(
        [
            "lemmas",
            "--potential",
            "ml",
            "--lambda",
            "2",
            "--c",
            "1",
            "--N",
            "50",
            "--which",
            "sum_v_normal",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "direct=" in out
    assert "predicted=" in out
    assert "gap=" in out


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1e-13"])
@pytest.mark.parametrize(
    "cmd",
    [
        ["exact"],
        ["norm", "--j", "1", "--method", "exact"],
        ["oracle", "--compare"],
        ["converge", "--Ns", "10,12"],
    ],
    ids=["exact", "norm", "oracle-compare", "converge"],
)
def test_bad_quad_rel_tol_is_domain_error(capsys, cmd, bad):
    # Each norm derives its quadrature target from its roundoff floor, so
    # there is no tolerance flag: a bad value, and the old default value
    # too, is now refused as a usage error before any domain check.
    argv = [cmd[0], "--potential", "ginibre"]
    if cmd[0] != "converge":
        argv += ["--N", "3"]
    for value in (bad, "1e-13"):
        with pytest.raises(SystemExit) as exc:
            main(argv + cmd[1:] + [f"--quad-rel-tol={value}"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "--quad-rel-tol" in err


def _run(argv, capsys):
    """stdout, stderr and exit code of one main(argv) call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def test_kind_guard_error_names_the_potential_and_exits_3(capsys):
    out, err, code = _run(["lemmas", "--potential", "ginibre", "--N", "10",
                           "--which", "sum_v_normal"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ginibre(scale=1.0), n=10, which=sum_v_normal: ")
    assert "annular droplet" in err


@pytest.mark.parametrize("argv, what", [
    (["exact", "--N", "0"], "n must be a positive integer"),
    (["converge", "--Ns", "5,100"], "size grid entries must be at least 10"),
], ids=["exact", "converge"])
def test_argument_errors_name_the_potential_and_exit_3(capsys, argv, what):
    out, err, code = _run([argv[0], "--potential", "ml", "--lambda", "1", "--c", "1", *argv[1:]],
                          capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"error: ml(lam=1.0, c=1.0): {what}"), err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    argv = ["droplet", "--potential", "ginibre"]
    main(argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []


_TU_N8 = ["--potential", "tu", "--alpha", "1", "--R", "1", "--N", "8"]
_GOOD = ["droplet", "--potential", "ginibre"]

# Flags followed by the same command without them, and each way out of
# main() followed by a good call.
_REUSE_SEQUENCE = [
    ["oracle", *_TU_N8, "--compare"],
    ["oracle", *_TU_N8],
    ["expand", "--potential", "ginibre", "--N", "100", "--terms"],
    ["expand", "--potential", "ginibre", "--N", "100"],
    ["equilibrium", "--potential", "ginibre", "--format", "json"],
    ["equilibrium", "--potential", "ginibre"],
    ["droplet", "--potential", "ml", "--lambda", "1"],
    _GOOD,
    ["droplet", "--potential", "ginibre", "--scale", "-2"],
    _GOOD,
    ["--version"],
    _GOOD,
]


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    reused = [_run(argv, capsys) for argv in _REUSE_SEQUENCE]
    assert [code for _, _, code in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 0, 0]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_run(argv, capsys) for argv in _REUSE_SEQUENCE]
    assert reused == fresh


def test_huge_size_is_domain_error(capsys):
    # 10^400 does not fit a float: a DomainError, not an OverflowError.
    rc = main(["exact", "--potential", "ginibre", "--N", "1" + "0" * 400])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "n must be a positive integer" in err


def _pairs(out, fmt):
    """(key, value) pairs of a key/value command's output."""
    if fmt == "json":
        return list(json.loads(out).items())
    sep = "=" if fmt == "text" else ","
    return [tuple(tok.split(sep, 1)) for tok in out.split()]


def _as_number(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return v


def test_zw_formats_agree_and_residuals_vanish(capsys):
    # Ginibre: w = -x, s = 1, chi = 0 on x in (0, 1), so f0 = -3/4 and
    # f_half = f1 = 0.  residual_energy combines the f0 quadrature (value
    # 3/4) with the energy quadrature (1/8 of its value 2), each converged
    # to 1e-13 of its value, plus a few roundings of O(1) numbers:
    # 1e-13 * (3/4 + 1/4) + 8 eps.  The other residuals are exact zeros up
    # to the same bound.
    bound = 1e-13 + 8.0 * 2.0**-52
    outs = {}
    for fmt in ("text", "csv", "json"):
        assert main(["zw", "--potential", "ginibre", "--format", fmt]) == 0
        outs[fmt] = [(k, float(v)) for k, v in _pairs(capsys.readouterr().out, fmt)]
    assert outs["text"] == outs["csv"] == outs["json"]
    vals = dict(outs["text"])
    assert list(vals) == ["f0", "f_half", "f1", "residual_energy", "residual_entropy",
                          "residual_f_term"]
    assert abs(vals["f0"] + 0.75) <= bound
    for key in ("f_half", "f1", "residual_energy", "residual_entropy", "residual_f_term"):
        assert abs(vals[key]) <= bound, key


def test_zw_takes_each_distinct_integral_once(monkeypatch, capsys):
    # The coefficients integrate f0, the Dirichlet integral and the entropy;
    # the residuals add the energy alone: residual_f_term's f_disc takes f1's
    # Dirichlet integral, and residual_entropy, +0.0 because f_half is
    # -entropy/2, takes none.
    calls = []

    def counting(f, a, b, **kwargs):
        calls.append(f.__qualname__)
        return integrate(f, a, b, **kwargs)

    monkeypatch.setattr(equilibrium, "integrate", counting)
    assert main(["zw", "--potential", "tu", "--alpha", "3", "--R", "2"]) == 0
    assert "residual_entropy=0\n" in capsys.readouterr().out
    assert calls == ["_zw.<locals>.f0_integrand", "_dirichlet.<locals>.f", "entropy.<locals>.f",
                     "energy.<locals>.<lambda>"]


_NORM_ROUTES = {
    "laplace": log_norm_laplace,
    "lowdeg": log_norm_lowdeg,
}


@pytest.mark.parametrize("ensemble", ["normal", "symplectic"])
@pytest.mark.parametrize("method", sorted(_NORM_ROUTES))
def test_norm_methods_print_the_library_value(capsys, method, ensemble):
    argv = ["norm", "--potential", "tu", "--alpha", "2", "--R", "1.5", "--N", "20",
            "--j", "5", "--ensemble", ensemble, "--method", method]
    assert main(argv) == 0
    want = _NORM_ROUTES[method](TruncatedUnitary(2.0, 1.5), NormQuery(20, 5, ensemble))
    assert float(capsys.readouterr().out) == want


_ML11 = ["--potential", "ml", "--lambda", "1", "--c", "1"]
_KEY_VALUE_COMMANDS = {
    "droplet": ["droplet", *_ML11],
    "equilibrium": ["equilibrium", *_ML11],
    "zw": ["zw", "--potential", "ginibre"],
    "norm": ["norm", *_TU_N8, "--j", "3", "--method", "exact"],
    "exact": ["exact", *_ML11, "--N", "10"],
    "expand": ["expand", *_ML11, "--N", "100", "--terms"],
    "oracle": ["oracle", *_TU_N8, "--compare"],
    "lemmas": ["lemmas", "--potential", "ml", "--lambda", "2", "--c", "1", "--N", "50",
               "--which", "sum_v_normal"],
}


@pytest.mark.parametrize("cmd", sorted(_KEY_VALUE_COMMANDS))
def test_csv_rows_carry_the_text_values(capsys, cmd):
    argv = _KEY_VALUE_COMMANDS[cmd]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--format", "csv"]) == 0
    rows = _pairs(capsys.readouterr().out, "csv")
    # norm prints a bare value in text.
    pairs = [("log_norm", text.strip())] if cmd == "norm" else _pairs(text, "text")
    assert [k for k, _ in rows] == [k for k, _ in pairs]
    assert [_as_number(v) for _, v in rows] == [_as_number(v) for _, v in pairs]


def test_converge_json_rows_equal_the_csv_rows(capsys):
    argv = ["converge", *_ML11, "--Ns", "10,14,20"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    header = lines[0].split(",")
    csv_rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:-1]]
    assert doc["rows"] == csv_rows
    assert lines[-1] == f"# fitted_exponent={doc['fitted_exponent']!r} r2={doc['r2']!r}"
    assert doc["underflow"] is False


@pytest.mark.parametrize("error", [IntegrationError, SolverError])
def test_solver_failures_exit_4(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("no convergence")

    monkeypatch.setattr(cli, "log_z_exact", fail)
    rc = main(["exact", "--potential", "ginibre", "--N", "3"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err == "error: no convergence\n"


def _fresh_python(*args):
    """A fresh interpreter run with the package's source directory first on
    PYTHONPATH: (exit code, stdout bytes, stderr bytes)."""
    src = os.path.dirname(os.path.dirname(coulombgas.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    return run.returncode, run.stdout, run.stderr


def test_runtime_leaves_the_test_only_packages_unloaded():
    # mpmath and hypothesis are test extras (pyproject.toml).  A fresh
    # interpreter that imports the package and runs one CLI command must
    # not load either, or they would become runtime dependencies.
    code = (
        "import sys, coulombgas, coulombgas.cli\n"
        "rc = coulombgas.cli.main(['exact', '--potential', 'ml', '--lambda', '1', '--c', '1',"
        " '--N', '10'])\n"
        "print(rc, sorted(m for m in ('mpmath', 'hypothesis') if m in sys.modules))\n"
    )
    rc, out, err = _fresh_python("-c", code)
    assert rc == 0 and out.decode().splitlines()[-1] == "0 []", out + err


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["expand", "--potential", "ml", "--lambda", "1", "--c", "1", "--N", "100", "--terms"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert _fresh_python("-m", "coulombgas.cli", *argv) == (0, want, b"")
    retired = ["exact", "--potential", "ml", "--lambda", "1", "--c", "1", "--N", "10",
               "--convention", "physics"]
    rc, out, err = _fresh_python("-m", "coulombgas.cli", *retired)
    assert (rc, out) == (2, b"") and b"unrecognized arguments: --convention" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_beyond_float64_exits_3(capsys, fmt):
    # At N = 10**200 the expansion is -inf in float64: an error, not
    # log_z_asymptotic=-inf (JSON null).
    argv = ["expand", "--potential", "ml", "--lambda", "1", "--c", "1", "--N", str(10**200),
            "--format", fmt]
    out, err, rc = _run(argv, capsys)
    assert rc == 3 and out == ""
    assert err.startswith("error: ml(lam=1.0, c=1.0): ") and "is not finite in float64" in err
