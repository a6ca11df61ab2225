import json
import math

import pytest

from coulombgas.cli import main
from coulombgas.oracles import ml_log_z


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


def test_oracle_infinite_parameter_is_domain_error(capsys):
    rc = main(["oracle", "--potential", "tu", "--alpha", "inf", "--R", "1", "--N", "10"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error:")


def test_missing_family_parameter_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["droplet", "--potential", "ml", "--lambda", "1"])
    assert exc.value.code == 2


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
    argv = [cmd[0], "--potential", "ginibre"]
    if cmd[0] != "converge":
        argv += ["--N", "3"]
    rc = main(argv + cmd[1:] + [f"--quad-rel-tol={bad}"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "rel_tol" in err
